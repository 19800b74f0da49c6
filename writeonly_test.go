package univistor

import (
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

// TestNoWriteOnlyFields flags every unexported struct field, declared in a
// non-test file under internal/ or cmd/, that its package directory writes
// and never reads. A write is an assignment target, an op= target or an
// ++/-- operand; any other selector naming the field is a read, in any
// file of the directory, tests included. Fields are matched by name, not
// type, so a read of a same-named field of another struct hides a write-only
// one: the check can miss a field but never flags a read one.
func TestNoWriteOnlyFields(t *testing.T) {
	var found []string
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			found = append(found, writeOnlyFields(t, path)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is written but never read", f)
	}
}

// writeOnlyFields returns "dir: Type.field" for each write-only field
// declared in the Go files of dir.
func writeOnlyFields(t *testing.T, dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	declared := map[string][]string{} // field name -> "Type.field" declarations
	written := map[string]bool{}
	read := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(e.Name(), "_test.go") {
			declareFields(f, declared)
		}
		// Selectors in write position are collected first; every other
		// selector the walk meets is a read.
		writes := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			case *ast.SelectorExpr:
				if writes[n] {
					written[n.Sel.Name] = true
				} else {
					read[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	var out []string
	for name, decls := range declared {
		if written[name] && !read[name] {
			for _, d := range decls {
				out = append(out, dir+": "+d)
			}
		}
	}
	return out
}

// declareFields records the unexported fields of every struct type in f,
// named by their type (or "struct" for an anonymous struct).
func declareFields(f *ast.File, declared map[string][]string) {
	named := map[*ast.StructType]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				named[st] = n.Name.Name
			}
		case *ast.StructType:
			typ := named[n]
			if typ == "" {
				typ = "struct"
			}
			for _, field := range n.Fields.List {
				for _, id := range field.Names {
					if !id.IsExported() && id.Name != "_" {
						declared[id.Name] = append(declared[id.Name], typ+"."+id.Name)
					}
				}
			}
		}
		return true
	})
}
