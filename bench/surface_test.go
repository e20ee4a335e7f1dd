package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowedSurface is every name of the code under test the benchmark
// may mention, by package. It is deliberately narrow: ROADMAP items 2
// and 3 plan to delete the replica engine and two of the three routing
// representations, and must be able to without editing the benchmark.
var allowedSurface = map[string][]string{
	"minsim/internal/experiments": {"ParseJSON", "ByID", "Figures", "RunAll", "AddToPlan", "Budget", "Experiment", "Curve"},
	"minsim/internal/simrun": {"NewPlan", "Options", "Store", "NewStore", "StoreStats", "RunSpec", "Fingerprint", "PointConfig", "Counters",
		"WorkloadSpec", "PatternSpec", "ArrivalSpec", "Uniform", "HotSpot", "ArrivalMMPP"},
	"minsim/internal/metrics": {"Figure", "Point"},
	"minsim/internal/engine":  {"New", "Config", "Engine", "Stats"},
	"minsim/internal/server":  {"New", "Config", "Server"},
	"minsim/internal/fleet":   {"NewCoordinator", "NewWorker", "Config", "WorkerConfig", "EncodeSpec", "DecodeSpec"},
}

// forbiddenNames may not appear as any selector, whatever they hang
// off: they are the methods and types those ROADMAP items remove.
var forbiddenNames = []string{"ReplicaSet", "NewReplicaSet", "RoutingBytes", "RoutingFactored", "Table", "Factored"}

func TestAPISurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgOf := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, "minsim/") {
				continue
			}
			if _, ok := allowedSurface[p]; !ok {
				t.Errorf("%s imports %s, which the benchmark may not depend on", path, p)
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgOf[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, bad := range forbiddenNames {
				if sel.Sel.Name == bad {
					t.Errorf("%s: uses .%s", fset.Position(sel.Pos()), bad)
				}
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Obj != nil { // a local variable shadowing the package name
				return true
			}
			p, ok := pkgOf[id.Name]
			if !ok {
				return true
			}
			for _, name := range allowedSurface[p] {
				if sel.Sel.Name == name {
					return true
				}
			}
			t.Errorf("%s: %s.%s is outside the benchmark's allowed surface", fset.Position(sel.Pos()), id.Name, sel.Sel.Name)
			return true
		})
	}
}

// BENCHMARK.json is the contract the driver reads; its workloads and
// end-to-end metrics must be the ones the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var got []string
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name)
	}
	sort.Strings(got)
	if want := []string{"alloc_mb", "setup_s", "unit_rel"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("end-to-end metrics %v, want %v", got, want)
	}
	layers := map[string]bool{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = true
	}
	for _, l := range tracedLayers {
		if !layers["trace.share."+l] {
			t.Errorf("BENCHMARK.json lacks trace.share.%s", l)
		}
	}
}
