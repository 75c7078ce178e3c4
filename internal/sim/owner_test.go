package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlySimInstruments locks in that a world has one owner: InWorld
// builds, instruments and releases every world an experiment measures,
// so no non-test Go file of the repository outside internal/sim may call
// a method named Instrument. It parses every such file with go/parser
// and reports each call by position; it also requires the scan to find
// InWorld's own call, so a walk that reads nothing cannot pass.
func TestOnlySimInstruments(t *testing.T) {
	root := filepath.Join("..", "..")
	self := filepath.Join(root, "internal", "sim")
	fset := token.NewFileSet()
	owned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Instrument" {
				if filepath.Dir(path) == self {
					owned++
				} else {
					t.Errorf("%s: calls %s outside internal/sim: run the world through sim.InWorld", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if owned == 0 {
		t.Fatal("the scan found no Instrument call in internal/sim, not even InWorld's")
	}
}
