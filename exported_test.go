package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyAPI is the ratchet file of TestExportedHaveCallers.
const testOnlyAPI = "scripts/test_only_api.txt"

// exportedDecl is one exported top-level identifier of an internal
// package: its listing key and the declaration that introduces it.
type exportedDecl struct {
	key  string // pkg.Name, or pkg.Type.Method for a method
	id   *ast.Ident
	node ast.Node
}

// exportedDecls lists the exported top-level identifiers f declares.
func exportedDecls(pkg string, f *ast.File) []exportedDecl {
	var out []exportedDecl
	add := func(key string, id *ast.Ident, node ast.Node) {
		if id.IsExported() {
			out = append(out, exportedDecl{key: key, id: id, node: node})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				key = pkg + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			add(key, d.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(pkg+"."+s.Name.Name, s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(pkg+"."+id.Name, id, s)
					}
				}
			}
		}
	}
	return out
}

// recvType names a method's receiver type: T for T, *T and T[P].
func recvType(e ast.Expr) string {
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
			return "?"
		}
	}
}

// TestExportedHaveCallers holds the internal packages to an API the
// program uses. It lists every exported top-level identifier under
// internal/ — function, method, type, variable or constant — that no
// non-test file of the root module names outside its own declaration, and
// requires that list to equal scripts/test_only_api.txt. The file only
// shrinks: an identifier that gains a caller or is deleted leaves it, and
// a new entry shows in review. The scan matches by name, so an identifier
// whose name something else uses counts as called.
func TestExportedHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []exportedDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
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
		files = append(files, f)
		if rest, ok := strings.CutPrefix(filepath.ToSlash(path), "internal/"); ok {
			pkg, _, _ := strings.Cut(rest, "/")
			decls = append(decls, exportedDecls(pkg, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// uses holds where each declared name is named, declarations aside:
	// two methods called Finished do not call each other.
	uses := map[string][]token.Pos{}
	declared := map[*ast.Ident]bool{}
	for _, d := range decls {
		uses[d.id.Name] = nil
		declared[d.id] = true
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if u, want := uses[id.Name]; want {
					uses[id.Name] = append(u, id.Pos())
				}
			}
			return true
		})
	}
	var got []string
	for _, d := range decls {
		called := slices.ContainsFunc(uses[d.id.Name], func(p token.Pos) bool {
			return p < d.node.Pos() || p >= d.node.End()
		})
		if !called {
			got = append(got, d.key)
		}
	}
	slices.Sort(got)
	got = slices.Compact(got)

	listed := readTestOnlyAPI(t)
	for _, key := range got {
		if !slices.Contains(listed, key) {
			t.Errorf("%s has no caller outside tests: call it, delete it, or list it in %s", key, testOnlyAPI)
		}
	}
	for _, key := range listed {
		if !slices.Contains(got, key) {
			t.Errorf("%s lists %s, which has a caller now or is gone: delete the line", testOnlyAPI, key)
		}
	}
}

// readTestOnlyAPI reads the ratchet file: one key a line, # comments.
func readTestOnlyAPI(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile(testOnlyAPI)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(string(b), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			keys = append(keys, line)
		}
	}
	return keys
}
