package obs

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// modelPackages are the simulation's plain models. core.System.Instrument
// is the one place instrumentation attaches (DESIGN.md §10), so none of
// them may reach this package, directly or through another witag package.
// phy is not among them: phy.Receiver.Spans times the bit-true chain.
var modelPackages = []string{"channel", "fault", "traffic", "tag", "mac", "dot11", "stats", "bitio"}

// TestModelPackagesDoNotImportObs walks the non-test imports of every
// model package, and of every witag package they import, and fails on a
// path that reaches witag/internal/obs.
func TestModelPackagesDoNotImportObs(t *testing.T) {
	const module, self = "witag/", "witag/internal/obs"
	// via[p] is the package whose import of p put it on the walk.
	via := map[string]string{}
	var queue []string
	for _, name := range modelPackages {
		p := module + "internal/" + name
		via[p] = ""
		queue = append(queue, p)
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		dir := filepath.Join("..", "..", filepath.FromSlash(strings.TrimPrefix(p, module)))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) {
				continue
			}
			if imp == self {
				chain := p
				for q := via[p]; q != ""; q = via[q] {
					chain = q + " → " + chain
				}
				t.Errorf("%s → %s: a model package reaches the instrumentation layer", chain, self)
				continue
			}
			if _, seen := via[imp]; !seen {
				via[imp] = p
				queue = append(queue, imp)
			}
		}
	}
	if len(via) < len(modelPackages) {
		t.Fatalf("walked %d packages, want at least %d", len(via), len(modelPackages))
	}
}
