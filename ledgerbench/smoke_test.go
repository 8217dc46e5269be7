package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"cellnpdp/internal/testutil"
)

// The suite runs under the repository's goroutine-leak gate: a worker,
// listener or connection a workload leaves behind fails it.
func TestMain(m *testing.M) { os.Exit(testutil.CheckMain(m)) }

// smallConfig is a run small enough for a test: n = 256 batch solves
// and a quarter-second measured phase.
func smallConfig(t *testing.T, corrupt func(op int) bool) config {
	return config{
		seed:     7,
		duration: 250 * time.Millisecond,
		workers:  2,
		n:        256,
		spillDir: t.TempDir(),
		corrupt:  corrupt,
	}
}

func names(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

// TestWorkloadsCleanAndCorrupted runs every workload untraced and
// traced, clean and with one result corrupted before verification. A
// clean run must be correct with no failures and print exactly its
// metric set; a corrupted one must count the failure and report itself
// incorrect, which proves the bit-for-bit check is not vacuous.
func TestWorkloadsCleanAndCorrupted(t *testing.T) {
	for name, runner := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := runner(context.Background(), smallConfig(t, nil), traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("clean run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				want := names(defs)
				if len(rep.Metrics) != len(want) {
					t.Fatalf("got %d metrics, want %d", len(rep.Metrics), len(want))
				}
				for k, m := range rep.Metrics {
					if want[k] != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", k, m.Unit, want[k])
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
					}
				}

				bad, err := runner(context.Background(), smallConfig(t, func(op int) bool { return op == 0 }), traced)
				if err != nil {
					t.Fatal(err)
				}
				if bad.Correct || bad.Failed == 0 {
					t.Fatalf("corrupted run: correct=%v failed=%d, want the flipped cell counted", bad.Correct, bad.Failed)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the workloads and
// metrics this package prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

// TestTail pins the tail rule: the value with exactly ten samples above
// it, so a run needs more than ten samples.
func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	v, pct, ok := tail(xs)
	if !ok || v != 30 || pct != 75 {
		t.Fatalf("tail = %v at p%v (ok %v), want 30 at p75", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("tail of ten samples reported a value")
	}
}
