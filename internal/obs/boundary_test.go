package obs

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
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

// interfaceMethods are exported methods that run because their type
// satisfies an interface with them, so no file need name them. Each
// names its method as in a method expression, and the interface.
var interfaceMethods = map[string]string{
	"(*JSONLHandler).Enabled":    "slog.Handler",
	"(*JSONLHandler).Handle":     "slog.Handler",
	"(*JSONLHandler).WithAttrs":  "slog.Handler",
	"(*JSONLHandler).WithGroup":  "slog.Handler",
	"(discardHandler).Enabled":   "slog.Handler",
	"(discardHandler).Handle":    "slog.Handler",
	"(discardHandler).WithAttrs": "slog.Handler",
	"(discardHandler).WithGroup": "slog.Handler",
}

// TestNoTestOnlyExports fails on any exported function or method under
// internal/ or cmd/ whose name no non-test Go file of the repository
// (the module, examples/ and perfbench/) uses. Code only tests call
// belongs in the test that calls it, or in a test support package — one
// whose name ends in "test", whose files count as neither declarations
// nor references. The match is by name, so a same-named identifier
// anywhere keeps a function alive; a declaration is never missed.
func TestNoTestOnlyExports(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(f.Name.Name, "test") {
			return nil
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		owned := strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
		declared := map[*ast.Ident]bool{}
		for _, dcl := range f.Decls {
			fn, ok := dcl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !owned || !fn.Name.IsExported() {
				continue
			}
			key := fn.Name.Name
			if fn.Recv != nil {
				key = "(" + receiver(fn.Recv.List[0].Type) + ")." + key
			}
			decls = append(decls, decl{key, fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("found %d exported functions under internal/ and cmd/; the walk is broken", len(decls))
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		if _, ok := interfaceMethods[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		if !used[d.name] {
			t.Errorf("%s: %s has no reference outside tests: move it into the test that uses it, or delete it", d.pos, d.key)
		}
	}
	for key, iface := range interfaceMethods {
		if !allowed[key] {
			t.Errorf("interfaceMethods lists %s (%s), which is not declared", key, iface)
		}
	}
}

// receiver renders a method's receiver type as in a method expression,
// "T" or "*T", without type parameters.
func receiver(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.StarExpr:
		return "*" + receiver(e.X)
	case *ast.IndexExpr:
		return receiver(e.X)
	case *ast.IndexListExpr:
		return receiver(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
