package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// against: the metric names and units every run must print.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMain lets the test binary serve as the reference server, which
// a run starts by executing itself with -ref ADDR.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-ref" {
		if err := serveRef(os.Args[2]); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// TestSelfTest runs every workload end to end and traced at a tiny
// size against a freshly built topod, and checks that every metric
// BENCHMARK.json names is printed with its unit and that every oracle
// and check passes.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds topod and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	topodBin := filepath.Join(t.TempDir(), "topod")
	build := exec.Command("go", "build", "-o", topodBin, "mbrtopo/cmd/topod")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building topod: %v\n%s", err, out)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for trace, want := range []map[string]string{unitsOf(bf.EndToEnd), unitsOf(bf.PerLayer)} {
			res, err := run(options{workload: w.Name, seed: 7, seconds: 1, trace: trace,
				topod: topodBin, work: t.TempDir(), repo: "..", tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s missing or not in %s (got %+v)", w.Name, trace, name, unit, got)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestNodeAccessesRepeat checks the paper's invariant: the traced
// run's node-access counts repeat exactly for the same seed.
func TestNodeAccessesRepeat(t *testing.T) {
	var first map[string]metric
	for i := 0; i < 2; i++ {
		res, err := run(options{workload: "hot", seed: 3, seconds: 1, trace: 1, work: t.TempDir(), repo: "..", tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Metrics
			continue
		}
		for _, name := range []string{"query.node_accesses", "query.node_accesses_selective", "rtree.search_node_accesses", "rtree.knn_node_accesses", "query.join_node_accesses"} {
			if a, b := first[name].Value, res.Metrics[name].Value; a != b {
				t.Errorf("%s: %v then %v", name, a, b)
			}
		}
	}
}

func unitsOf(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}
