package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile mirrors the metric lists of ../BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
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

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsInBenchmarkFile: every workload the file gates on exists
// here, with its name spelled the same.
func TestWorkloadsInBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json gates on %d workloads, want at least 2", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload %v", w.Name, workloadNames())
		}
	}
}

// TestSmoke runs every workload — the gated ones and restart_mixed — for
// a second, untraced and traced, and checks each emits exactly the metrics
// BENCHMARK.json lists, with their units, and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole stack")
	}
	bf := loadBenchmarkFile(t)
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			out, err := benchmark(sp, 7, time.Second, traced, "..", t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.Name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.Name, traced, out.Correct, out.Attempted, out.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := out.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", sp.Name, traced, name)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: %s unit %q, want %q", sp.Name, traced, name, got.Unit, unit)
				}
			}
			for name := range out.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s not in BENCHMARK.json", sp.Name, traced, name)
				}
			}
			if !traced {
				for _, m := range bf.EndToEnd {
					if out.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", sp.Name, m.Name)
					}
				}
			}
		}
	}
}
