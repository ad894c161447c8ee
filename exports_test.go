package hta

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports names the exported declarations under internal/ that no
// non-test file uses, each kept on purpose.
var keptExports = map[string]string{
	"DropWatches":              "kubetest is test support: it severs watches to test the operator's rewatch",
	"AutoRun":                  "kubetest is test support: it plays the kubelet for the operator tests",
	"DurationQuantile":         "benchmark/benchmark_test.go checks the benchmark's quantiles against it",
	"RunHTAStream":             "benchmark/benchmark_test.go checks the stream-day wiring against it",
	"GetService":               "core's deploy test reads the service it creates",
	"Levels":                   "structure oracle for the makeflow parser and the workload generators",
	"CategoryCounts":           "structure oracle for the makeflow parser and the workload generators",
	"IDs":                      "structure oracle for the makeflow parser and the workload generators",
	"Dependencies":             "structure oracle for the makeflow parser and the workload generators",
	"Dependents":               "structure oracle for the makeflow parser and the workload generators",
	"SourceFiles":              "structure oracle for the makeflow parser and the workload generators",
	"RunFor":                   "the simulated-time driver of the tests",
	"SmokeStreamEIConfig":      "test-size configuration of E-I",
	"SmokeTenantsEJConfig":     "test-size configuration of E-J",
	"SmokeTenantChaosEKConfig": "test-size configuration of E-K",
}

// TestNoTestOnlyExports fails on an exported func, method or type under
// internal/ whose name no non-test file of the module uses, unless
// keptExports names it. The check is by name, not by type: a
// declaration that shares its name with something production code does
// use (Parse, Len, Stop) passes it unseen.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, d := range f.Decls {
				var ids []*ast.Ident
				switch d := d.(type) {
				case *ast.FuncDecl:
					ids = append(ids, d.Name)
				case *ast.GenDecl:
					if d.Tok == token.TYPE {
						for _, s := range d.Specs {
							ids = append(ids, s.(*ast.TypeSpec).Name)
						}
					}
				}
				for _, id := range ids {
					declared[id] = true
					if id.IsExported() {
						decls = append(decls, decl{id.Name, fset.Position(id.Pos())})
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		if uses[d.name] == 0 && keptExports[d.name] == "" {
			unused = append(unused, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is reached only from tests: delete it, or add it to keptExports with a reason", u)
	}
	for name := range keptExports {
		found := false
		for _, d := range decls {
			found = found || d.name == name
		}
		if !found {
			t.Errorf("keptExports names %s, which no longer exists", name)
		}
	}
}

// TestNoOracleSwitchesInProduction fails if a non-test file under
// internal/ declares a switch to a test oracle (SetNaive*), a
// constructor of one (NewReference*), or a naive*-named function,
// method or struct field. The oracles live in their packages' _test.go
// files, and every production type has one mode.
func TestNoOracleSwitchesInProduction(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
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
			var names []*ast.Ident
			switch n := n.(type) {
			case *ast.FuncDecl:
				names = append(names, n.Name)
			case *ast.StructType:
				for _, field := range n.Fields.List {
					names = append(names, field.Names...)
				}
			}
			for _, id := range names {
				if strings.HasPrefix(id.Name, "SetNaive") || strings.HasPrefix(id.Name, "NewReference") ||
					strings.HasPrefix(id.Name, "naive") {
					t.Errorf("%s: %s switches to or builds a test oracle; keep oracles in _test.go files",
						fset.Position(id.Pos()), id.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
