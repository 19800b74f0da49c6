package univistor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// TestNoMutablePackageVars flags every package-level variable, declared in
// a non-test file under internal/ or cmd/, that non-test code changes
// outside its own declaration: the target of an assignment, op= or ++/--
// rooted at the variable (v, v.f, v[i], *v, or pkg.V from another
// package), or the receiver of a method call rooted there (v.Add(1)).
// Such a variable is state shared by every engine in the process, so one
// simulated run could depend on what the process ran before it.
func TestNoMutablePackageVars(t *testing.T) {
	pkgs := map[string]*pkgVars{} // import path -> its package-level vars
	var files []*ast.File
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			dir := "univistor/" + filepath.ToSlash(filepath.Dir(path))
			pv := pkgs[dir]
			if pv == nil {
				pv = &pkgVars{name: f.Name.Name, names: map[string]bool{}, specs: map[*ast.ValueSpec]bool{}}
				pkgs[dir] = pv
			}
			for _, s := range varSpecs(f) {
				pv.specs[s] = true
				for _, id := range s.Names {
					pv.names[id.Name] = id.Name != "_"
				}
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	found := map[string]bool{}
	for _, f := range files {
		c := mutationCheck{pkgs: pkgs, imports: map[string]string{}}
		c.self = pkgs["univistor/"+filepath.ToSlash(filepath.Dir(fset.File(f.Pos()).Name()))]
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			c.imports[name] = path
		}
		// A variable's own initializer may build it: each package-level
		// spec is walked with the names it declares exempt.
		c.walk(f, found, nil)
	}
	var names []string
	for v := range found {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		t.Errorf("package-level var %s is mutated outside its declaration", v)
	}
}

// pkgVars is one package's package-level variables.
type pkgVars struct {
	name  string                  // package name
	names map[string]bool         // declared variable names
	specs map[*ast.ValueSpec]bool // their declarations
}

// varSpecs returns the package-level var declarations of f.
func varSpecs(f *ast.File) []*ast.ValueSpec {
	var out []*ast.ValueSpec
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
			for _, s := range g.Specs {
				out = append(out, s.(*ast.ValueSpec))
			}
		}
	}
	return out
}

// mutationCheck resolves the write targets and method receivers of one
// file to the package-level variables they change.
type mutationCheck struct {
	pkgs    map[string]*pkgVars
	self    *pkgVars
	imports map[string]string // import name -> path
}

// walk records in found every package-level variable that n changes,
// except the ones named in own.
func (c *mutationCheck) walk(n ast.Node, found map[string]bool, own []*ast.Ident) {
	ast.Inspect(n, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.ValueSpec:
			if c.self.specs[n] && own == nil {
				c.walk(n, found, n.Names)
				return false
			}
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				targets = []ast.Expr{sel.X}
			}
		}
		for _, x := range targets {
			v := c.owner(x)
			if v != "" && !slices.ContainsFunc(own, func(id *ast.Ident) bool { return v == c.self.name+"."+id.Name }) {
				found[v] = true
			}
		}
		return true
	})
}

// owner returns the package-level variable that x is rooted at, as
// "pkg.name", or "" when x is rooted at anything else.
func (c *mutationCheck) owner(x ast.Expr) string {
	for {
		switch y := x.(type) {
		case *ast.Ident:
			// An identifier the parser resolved in this file is a
			// package-level var only if a package-level spec declares it;
			// an unresolved one may be declared in a sibling file.
			if o := y.Obj; o != nil {
				if vs, ok := o.Decl.(*ast.ValueSpec); !ok || !c.self.specs[vs] {
					return ""
				}
			} else if !c.self.names[y.Name] {
				return ""
			}
			return c.self.name + "." + y.Name
		case *ast.SelectorExpr:
			if id, ok := y.X.(*ast.Ident); ok && id.Obj == nil && !c.self.names[id.Name] {
				if pv := c.pkgs[c.imports[id.Name]]; pv != nil && pv.names[y.Sel.Name] {
					return pv.name + "." + y.Sel.Name
				}
				return ""
			}
			x = y.X
		case *ast.IndexExpr:
			x = y.X
		case *ast.StarExpr:
			x = y.X
		case *ast.ParenExpr:
			x = y.X
		default:
			return ""
		}
	}
}
