package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are exported method names that satisfy a standard
// interface (error, fmt.Stringer, encoding/json): the caller is the
// interface, which names them nowhere in this module.
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
// must be named by an identifier somewhere in a non-test file, beyond
// its own declaration. Code a test needs as its reference belongs in a
// _test.go file. The scan is by identifier token, not by type, so a
// method counts as called when any file names a method or field of the
// same name.
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
// Orphan is called only from a test and from a dot-directory copy, and
// nothing calls the method Lonely or the function Run, so all three are
// reported; Helper, called in its own file, and the String method are
// not.
func TestExportsGateFindsUnusedFunction(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":      "module m\n",
		"a/a.go":      "package a\n\ntype T struct{}\n\nfunc Used() {}\nfunc Orphan() {}\nfunc Helper() {}\nfunc (T) Lonely() { Helper() }\nfunc (T) String() string { return \"\" }\n",
		"b/b.go":      "package b\n\nimport \"m/a\"\n\nfunc Run() { a.Used() }\n",
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
	want := "Lonely Orphan Run"
	if strings.Join(got, " ") != want {
		t.Fatalf("unused exports = %v, want %s", got, want)
	}
}

// unusedExport is one exported function or method without a caller.
type unusedExport struct {
	name string
	pos  string
}

// exportsWithoutCallers parses every non-test .go file under root,
// skipping dot-directories (extracted ref trees are whole old commits)
// and testdata, and returns, sorted by name, each exported function or
// method whose name no non-test file uses beyond its declarations.
func exportsWithoutCallers(root string) ([]unusedExport, error) {
	fset := token.NewFileSet()
	var decls []*ast.Ident
	used := map[string]bool{}
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
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				declared[fn.Name] = true
				if fn.Recv == nil || !interfaceMethods[fn.Name.Name] {
					decls = append(decls, fn.Name)
				}
			}
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
		return nil, err
	}
	var unused []unusedExport
	for _, id := range decls {
		if used[id.Name] {
			continue
		}
		pos := fset.Position(id.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		unused = append(unused, unusedExport{id.Name, fmt.Sprintf("%s:%d", rel, pos.Line)})
	}
	sort.Slice(unused, func(i, j int) bool {
		if unused[i].name != unused[j].name {
			return unused[i].name < unused[j].name
		}
		return unused[i].pos < unused[j].pos
	})
	return unused, nil
}
