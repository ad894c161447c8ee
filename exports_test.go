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
	"Less":                     "sort.Interface and heap.Interface method of the reference queues",
	"Swap":                     "sort.Interface and heap.Interface method of the reference queues",
	"DropWatches":              "kubetest is test support: it severs watches to test the operator's rewatch",
	"AutoRun":                  "kubetest is test support: it plays the kubelet for the operator tests",
	"DurationQuantile":         "benchmark/benchmark_test.go checks the benchmark's quantiles against it",
	"RunHTAStream":             "benchmark/benchmark_test.go checks the stream-day wiring against it",
	"PlanOnly":                 "BenchmarkArbiterCycle and TestTenantsEJPlanDifferential measure and check it",
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
	"SetNaiveArbitration":      "switches to the reference arbiter the differential tests compare against",
	"SetNaiveScheduling":       "switches to the reference scheduler the differential tests compare against",
	"SetNaivePlacement":        "switches to the reference placement the differential tests compare against",
	"ReferenceEstimateScale":   "the reference planner the differential tests compare against",
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
