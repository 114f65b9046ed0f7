package anyk_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllow names the functions and methods the surface gate would flag
// but that stay, each with its reason. An entry the gate no longer flags
// fails the test, so the list cannot outlive its survivors.
var surfaceAllow = map[string]string{
	"relation.Relation.SetAt":     "tests write through it to pin the snapshot contract: rows below Size() never change under a reader",
	"dioid.NewGroupTie":           "the §6.3 tie-breaking dioid; it stays until ties are broken one way",
	"engine.WithAttributeWeights": "§6.1's attribute-weight ranking, offered as library API",
	"server.statusWriter.Unwrap":  "net/http's ResponseController calls it through an interface",
}

// TestExportedSurfaceIsUsed is the dead-code gate: every exported function
// and method declared under internal/ must be referenced by code that is
// not a test, and every unexported top-level function by its own package.
func TestExportedSurfaceIsUsed(t *testing.T) {
	dead, err := deadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		if _, ok := surfaceAllow[name]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or move it into the test that uses it", name)
		}
	}
	for name := range surfaceAllow {
		if !slices.Contains(dead, name) {
			t.Errorf("allow-list entry %s is not flagged any more: drop it", name)
		}
	}
}

// TestSurfaceGateFixture runs the gate over a small module under testdata
// whose dead and live declarations are known, so the gate cannot pass on
// the real tree by flagging nothing.
func TestSurfaceGateFixture(t *testing.T) {
	dead, err := deadSurface(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.Dead",          // called from a dot-directory only
		"lib.KitOnly",       // called from internal/testkit only
		"lib.T.DeadMethod",  // method called from a _test.go file only
		"lib.TestOnly",      // called from a _test.go file only
		"lib.deadHelper",    // unexported, called from a _test.go file only
		"lib.selfOnly",      // unexported, called from its own body only
		"tool.unusedInMain", // the unexported rule holds outside internal/ too
	}
	if !slices.Equal(dead, want) {
		t.Fatalf("gate flagged %q, want %q", dead, want)
	}
}

// surfaceDecl is one function the gate checks: pkg is the declaring
// package's import path and recv the receiver's type name for a method.
type surfaceDecl struct {
	pkg, recv, name string
}

// deadSurface parses every Go file under root, skipping dot-directories
// and testdata, and returns the sorted names ("pkg.Func", "pkg.Type.Method")
// of the functions no non-test code references. Test code is every
// _test.go file and everything under internal/testkit; cmd/, examples/ and
// benchmark/ count as callers. Exported functions and methods are checked
// when declared under internal/, unexported top-level functions anywhere.
// A method counts as used when any selector carries its name, so the gate
// may miss a dead method but never flags a live one.
func deadSurface(root string) ([]string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	var decls []surfaceDecl
	refs := map[[2]string]bool{} // (import path, identifier) used by non-test code
	selectors := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasSuffix(p, "_test.go") || rel == "internal/testkit" || strings.HasPrefix(rel, "internal/testkit/") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := mod
		if rel != "." {
			pkg = mod + "/" + rel
		}
		underInternal := rel == "internal" || strings.HasPrefix(rel, "internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			switch {
			case fn.Recv != nil:
				if underInternal && fn.Name.IsExported() {
					decls = append(decls, surfaceDecl{pkg, recvName(fn.Recv.List[0].Type), fn.Name.Name})
				}
			case fn.Name.IsExported():
				if underInternal {
					decls = append(decls, surfaceDecl{pkg: pkg, name: fn.Name.Name})
				}
			case fn.Name.Name != "main" && fn.Name.Name != "init" && fn.Name.Name != "_":
				decls = append(decls, surfaceDecl{pkg: pkg, name: fn.Name.Name})
			}
		}
		collectRefs(f, pkg, refs, selectors)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, d := range decls {
		short := path.Base(d.pkg)
		if d.recv != "" {
			if !selectors[d.name] {
				dead = append(dead, short+"."+d.recv+"."+d.name)
			}
		} else if !refs[[2]string{d.pkg, d.name}] {
			dead = append(dead, short+"."+d.name)
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// collectRefs records what file f, in package pkg, references: a bare
// identifier as pkg's own name, a qualified one under its import path, and
// every selector's name for methods. A function's own body does not count
// as a reference to it.
func collectRefs(f *ast.File, pkg string, refs map[[2]string]bool, selectors map[string]bool) {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		ip, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(ip)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = ip
	}
	for _, decl := range f.Decls {
		self, nodes := "", []ast.Node{decl}
		if fn, ok := decl.(*ast.FuncDecl); ok {
			if fn.Recv == nil {
				self = fn.Name.Name
			}
			nodes = []ast.Node{fn.Type} // every part but the declared name
			if fn.Recv != nil {
				nodes = append(nodes, fn.Recv)
			}
			if fn.Body != nil {
				nodes = append(nodes, fn.Body)
			}
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						refs[[2]string{ip, n.Sel.Name}] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if n.Name != self {
					refs[[2]string{pkg, n.Name}] = true
				}
			}
			return true
		}
		for _, n := range nodes {
			ast.Inspect(n, visit)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// modulePath reads the module line of root's go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m), nil
		}
	}
	return "", os.ErrNotExist
}
