package obs

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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

// TestBatchCLIsLinkNoHTTPStack walks the non-test imports of the batch
// CLIs, through the repository's packages and the standard library's,
// and fails on a path that reaches package net, cgo (runtime/cgo, or a
// package with import "C"), net/http or a package under it, crypto/tls or
// expvar. The live surface answers HTTP itself (httpwire.go) and listens
// on a socket of its own (listen.go), so every batch binary is a static,
// pure-Go executable, about 5.8 MB; witag-top, a client, keeps net/http.
func TestBatchCLIsLinkNoHTTPStack(t *testing.T) {
	const module = "witag/"
	banned := func(p string) bool {
		return p == "net" || p == "runtime/cgo" || p == "C" ||
			p == "net/http" || strings.HasPrefix(p, "net/http/") || p == "crypto/tls" || p == "expvar"
	}
	type node struct{ via, dir string }
	seen := map[string]node{}
	var queue []string
	for _, p := range []string{module + "cmd/witag-bench", module + "cmd/witag-sim", module + "cmd/witag-trace", module + "cmd/witag-gate"} {
		seen[p] = node{}
		queue = append(queue, p)
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		var pkg *build.Package
		var err error
		if rel, ok := strings.CutPrefix(p, module); ok {
			pkg, err = build.ImportDir(filepath.Join("..", "..", filepath.FromSlash(rel)), 0)
		} else {
			pkg, err = build.Import(p, seen[p].dir, 0)
		}
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, imp := range pkg.Imports {
			if imp == "unsafe" {
				continue
			}
			if _, ok := seen[imp]; ok {
				continue
			}
			// Resolve the standard library's vendored imports from the
			// importing package's directory.
			seen[imp] = node{via: p, dir: pkg.Dir}
			if !banned(imp) {
				queue = append(queue, imp)
				continue
			}
			chain := imp
			for q := p; q != ""; q = seen[q].via {
				chain = q + " → " + chain
			}
			t.Errorf("%s: a batch CLI links net, cgo or the HTTP stack", chain)
		}
	}
	if len(seen) < 100 {
		t.Fatalf("walked %d packages, want the whole import graph", len(seen))
	}
}

// TestNoTestOnlyExports fails on any package-level function, method,
// type, var or const under internal/ or cmd/, exported or not, that no
// non-test Go file of the repository (the module, examples/ and
// perfbench/) references. Code only tests call belongs in the test that
// calls it, or in a test support package — one whose name ends in
// "test", whose files count as neither declarations nor references.
// It type-checks the whole repository on one goroutine, which the race
// detector slows about sixfold and has nothing to inform, so a -race
// build skips it; the plain test run and `make determinism` run it.
func TestNoTestOnlyExports(t *testing.T) {
	if raceEnabled {
		t.Skip("a single-goroutine type check; runs without -race")
	}
	dead, err := deadDecls(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s has no reference outside tests: move it into the test that uses it, or delete it", d)
	}
}

// TestDeadDeclsFixture runs the rule over a small module planted with the
// cases it must tell apart, and checks its exact findings.
func TestDeadDeclsFixture(t *testing.T) {
	dead, err := deadDecls(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/shape/shape.go:12:5: var shape.Unused",
		"internal/shape/shape.go:35:17: method (*shape.Tally).Add",
		"internal/shape/shape.go:41:6: func shape.unusedHelper",
		"internal/shape/shape.go:49:6: func shape.OnlyForTests",
	}
	if got := strings.Join(dead, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestDeadDeclsRefusesBrokenPackage checks that a package the rule cannot
// type-check fails it: a skipped package would hide its declarations.
func TestDeadDeclsRefusesBrokenPackage(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":          "module broken\n",
		"internal/a/a.go": "package a\n\nfunc F() int { return \"not an int\" }\n",
		"cmd/app/main.go": "package main\n\nimport \"broken/internal/a\"\n\nfunc main() { a.F() }\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadDecls(root)
	if err == nil || !strings.Contains(err.Error(), "broken/internal/a") {
		t.Fatalf("deadDecls = %v, %v; want a type-checking error naming broken/internal/a", dead, err)
	}
}

// deadDecls type-checks the non-test files of every package under root,
// whose go.mod names the module (a nested module, such as perfbench/, is
// read as one of its directories), and returns each package-level
// declaration under internal/ or cmd/ that no non-test file references,
// as "file:line:col: kind name" in position order. A use inside the
// declaration itself, such as a recursive call or a method naming its own
// receiver type, is no reference. A method is also referenced when its
// receiver implements an interface that declares it: any interface of the
// standard library the module imports, which may call it, or one whose
// methods a non-test file calls. A package that does not type-check is an
// error.
func deadDecls(root string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ld := &loader{
		root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*loaded{},
	}
	for _, line := range bytes.Split(gomod, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) == 2 && f[0] == "module" {
			ld.module = f[1]
		}
	}
	if ld.module == "" {
		return nil, fmt.Errorf("%s/go.mod has no module line", root)
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		_, err = ld.load(filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		return nil, err
	}

	// used holds every object a non-test file outside a support package
	// references; stdPkgs the standard packages those files reach.
	used := map[types.Object]bool{}
	stdPkgs := map[*types.Package]bool{}
	var reach func(*types.Package)
	reach = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !ld.owns(imp.Path()) && !stdPkgs[imp] {
				stdPkgs[imp] = true
				reach(imp)
			}
		}
	}
	for _, p := range ld.pkgs {
		if p.pkg == nil || p.support {
			continue
		}
		reach(p.pkg)
		for _, f := range p.files {
			for _, dcl := range f.Decls {
				self := declares(p.info, dcl)
				ast.Inspect(dcl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(p.info.Uses[id]); obj != nil && !self[obj] {
							used[obj] = true
						}
					}
					return true
				})
			}
		}
	}

	// ifaces indexes by method name the interfaces that may call a method
	// no file names: error, every exported one of the standard packages
	// reached, and every one whose method a non-test file calls.
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := typ.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for p := range stdPkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
	}
	for obj := range used {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				addIface(recv.Type())
			}
		}
	}
	implements := func(m *types.Func, named *types.Named) bool {
		for _, it := range ifaces[m.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	type finding struct {
		pos  token.Position
		what string
	}
	var dead []finding
	flag := func(obj types.Object, what string) {
		dead = append(dead, finding{ld.fset.Position(obj.Pos()), what})
	}
	for _, p := range ld.pkgs {
		if p.pkg == nil || p.support || !(strings.HasPrefix(p.rel, "internal/") || strings.HasPrefix(p.rel, "cmd/")) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			qual := p.pkg.Name() + "." + name
			if !used[obj] && !(p.pkg.Name() == "main" && name == "main") {
				flag(obj, kind(obj)+" "+qual)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if used[m] || implements(m, named) {
					continue
				}
				recv := qual
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "*" + recv
				}
				flag(m, "method ("+recv+")."+m.Name())
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	out := make([]string, len(dead))
	for i, d := range dead {
		rel, err := filepath.Rel(root, d.pos.Filename)
		if err != nil {
			return nil, err
		}
		out[i] = fmt.Sprintf("%s:%d:%d: %s", filepath.ToSlash(rel), d.pos.Line, d.pos.Column, d.what)
	}
	return out, nil
}

// loader type-checks the module's packages from source, importing each
// once, and the standard library through the source importer.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*loaded // by directory relative to root
}

// loaded is one directory's package; pkg is nil when the directory holds
// no non-test Go file.
type loaded struct {
	rel     string
	pkg     *types.Package
	files   []*ast.File
	info    *types.Info
	support bool // the package's name ends in "test"
}

// owns reports whether an import path is the module's.
func (ld *loader) owns(path string) bool {
	return path == ld.module || strings.HasPrefix(path, ld.module+"/")
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if !ld.owns(path) {
		return ld.std.Import(path)
	}
	p, err := ld.load(strings.TrimPrefix(strings.TrimPrefix(path, ld.module), "/"))
	if err == nil && p.pkg == nil {
		err = fmt.Errorf("%s: no non-test Go files", path)
	}
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and type-checks the non-test files of the package in the
// directory rel (slash-separated, "" or "." for root), once.
func (ld *loader) load(rel string) (*loaded, error) {
	if rel == "." {
		rel = ""
	}
	if p, ok := ld.pkgs[rel]; ok {
		if p == nil {
			return nil, fmt.Errorf("%s: import cycle", rel)
		}
		return p, nil
	}
	ld.pkgs[rel] = nil
	dir := filepath.Join(ld.root, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	p := &loaded{rel: rel}
	if _, none := err.(*build.NoGoError); none || (err == nil && len(bp.GoFiles) == 0) {
		ld.pkgs[rel] = p
		return p, nil
	}
	if err != nil {
		return nil, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	path := ld.module
	if rel != "" {
		path += "/" + rel
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: ld}
	if p.pkg, err = conf.Check(path, ld.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p.support = strings.HasSuffix(p.pkg.Name(), "test")
	ld.pkgs[rel] = p
	return p, nil
}

// declares returns the package-level objects a declaration declares, with
// a method's receiver type: uses inside it do not keep them alive.
func declares(info *types.Info, dcl ast.Decl) map[types.Object]bool {
	self := map[types.Object]bool{}
	switch d := dcl.(type) {
	case *ast.FuncDecl:
		fn := info.Defs[d.Name].(*types.Func)
		self[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if named, ok := typ.(*types.Named); ok {
				self[named.Origin().Obj()] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, name := range s.Names {
					self[info.Defs[name]] = true
				}
			}
		}
	}
	return self
}

// origin maps an instantiated function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// kind names a package-level object's kind as in its declaration.
func kind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}
