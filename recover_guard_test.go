package parsvd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoRecoverOutsideRunRank: failures travel as errors from the fabric
// up to the facade, so no production code recovers a panic except the
// test and benchmark harness's runRank in internal/mpi/mpi.go. Every
// non-test .go file outside bench/ is parsed, whatever its build tags, and
// every call of recover is reported with its file and function.
func TestNoRecoverOutsideRunRank(t *testing.T) {
	fset := token.NewFileSet()
	var harness int
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "recover" {
					return true
				}
				fn, ok := decl.(*ast.FuncDecl)
				if ok && filepath.ToSlash(path) == "internal/mpi/mpi.go" && fn.Recv == nil && fn.Name.Name == "runRank" {
					harness++
					return true
				}
				t.Errorf("%s: recover outside mpi's runRank", fset.Position(call.Pos()))
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if harness != 1 {
		t.Errorf("found %d recovers in runRank, want its one: the guard no longer sees it", harness)
	}
}
