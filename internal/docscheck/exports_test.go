package main

import (
	"errors"
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

// interfaceMethods are exported method names that satisfy a standard
// interface (error, fmt.Stringer, encoding/json): the caller is the
// standard library, which this scan does not read.
var interfaceMethods = map[string]bool{
	"Error":         true,
	"Unwrap":        true,
	"String":        true,
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
}

// TestExportsHaveNonTestCallers keeps code that only tests reach out of
// the program files: every exported function and method declared in a
// non-test file of the module (benchmark/ included, as a caller too)
// must be used somewhere in a non-test file. The scan is by type: a
// method counts as used when a non-test file selects that method, or
// calls an interface method it implements, not when any type has a
// method of the same name.
func TestExportsHaveNonTestCallers(t *testing.T) {
	unused, err := exportsWithoutCallers(filepath.Join("..", "..")) // the module root
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s: exported %s has no caller outside _test.go files; delete it, or move it into the test that needs it", u.pos, u.name)
	}
}

// TestExportsGateFindsUnusedFunction runs the scan on a small module:
// Orphan is called only from a test and from a dot-directory copy,
// nothing calls the method Lonely or the function Run, and only T's Rank
// is called, not U's, so those four are reported; Helper, called in its
// own file, the String method, and V's Score, reached through the Scorer
// interface, are not.
func TestExportsGateFindsUnusedFunction(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":      "module m\n",
		"a/a.go":      "package a\n\ntype T struct{}\n\nfunc Used() {}\nfunc Orphan() {}\nfunc Helper() {}\nfunc (T) Lonely() { Helper() }\nfunc (T) String() string { return \"\" }\n",
		"a/rank.go":   "package a\n\ntype U struct{}\n\ntype V struct{}\n\ntype Scorer interface{ Score() int }\n\nfunc (T) Rank() int { return 0 }\nfunc (U) Rank() int { return 1 }\nfunc (*V) Score() int { return 2 }\n",
		"b/b.go":      "package b\n\nimport \"m/a\"\n\nfunc Run() { a.Used(); _ = a.T{}.Rank(); var s a.Scorer = &a.V{}; _ = s.Score() }\n",
		"b/b_test.go": "package b\n\nimport (\n\t\"testing\"\n\n\t\"m/a\"\n)\n\nfunc TestOrphan(t *testing.T) { a.Orphan() }\n",
		".old/a/a.go": "package a\n\nfunc Run() { Orphan() }\n",
	}
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, err := exportsWithoutCallers(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unused {
		got = append(got, u.name)
	}
	want := "Lonely Orphan Rank Run"
	if strings.Join(got, " ") != want {
		t.Fatalf("unused exports = %v, want %s", got, want)
	}
}

// unusedExport is one exported function or method without a caller.
type unusedExport struct {
	name string
	pos  string
}

// exportsWithoutCallers type-checks every non-test package under root,
// skipping dot-directories (extracted ref trees are whole old commits)
// and testdata, and returns, sorted by name, each exported function or
// method no non-test file uses. Packages of the module at root, nested
// modules below it included, are read from their files; the standard
// library from source, offline.
func exportsWithoutCallers(root string) ([]unusedExport, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
	l.module, _, _ = strings.Cut(strings.TrimPrefix(string(mod), "module "), "\n")
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
		if _, err := l.Import(filepath.ToSlash(filepath.Join(l.module, rel))); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	called := map[*types.Interface][]*types.Func{} // interface methods some file calls
	for _, obj := range l.uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				iface := recv.Type().Underlying().(*types.Interface)
				called[iface] = append(called[iface], fn)
			}
		}
		used[obj] = true
	}
	// A call through an interface reaches the method every module type
	// that implements it has, promoted from an embedded field or not.
	for _, named := range l.types {
		ptr := types.NewPointer(named)
		for iface, ms := range called {
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			set := types.NewMethodSet(ptr)
			for _, m := range ms {
				if sel := set.Lookup(m.Pkg(), m.Name()); sel != nil {
					used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	reached := func(fn *types.Func) bool {
		return used[fn] || fn.Signature().Recv() != nil && interfaceMethods[fn.Name()]
	}
	var unused []unusedExport
	for _, fn := range l.decls {
		if reached(fn) {
			continue
		}
		pos := fset.Position(fn.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		unused = append(unused, unusedExport{fn.Name(), fmt.Sprintf("%s:%d", rel, pos.Line)})
	}
	sort.Slice(unused, func(i, j int) bool {
		if unused[i].name != unused[j].name {
			return unused[i].name < unused[j].name
		}
		return unused[i].pos < unused[j].pos
	})
	return unused, nil
}

// loader type-checks the module's packages from their non-test files
// (those the default build context selects), once each, as a
// types.Importer: an import inside the module loads that package, any
// other goes to the standard library's source importer. It collects
// every exported function and method declared, every non-generic named
// type other than an interface, and every object used.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	decls        []*types.Func
	types        []*types.Named
	uses         []types.Object
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module)))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				l.decls = append(l.decls, info.Defs[fn.Name].(*types.Func))
			}
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil && !types.IsInterface(named) {
				l.types = append(l.types, named)
			}
		}
	}
	for _, obj := range info.Uses {
		l.uses = append(l.uses, obj)
	}
	return p, nil
}
