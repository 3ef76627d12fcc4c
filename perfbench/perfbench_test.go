package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestCountsRepeat runs a slice of fig2 and scale50 twice at the golden
// seed: η, keccak digests per tx and messages per tx must repeat
// exactly, so claims may rest on them.
func TestCountsRepeat(t *testing.T) {
	cases := []struct {
		name  string
		cells []cell
	}{
		{"fig2", fig2Cells()[7:9]}, // semantic sets-20 and sets-5
		{"scale50", scale50Cells()},
	}
	counts := []string{"hms.eta", "keccak.digests_per_tx", "p2p.msgs_per_tx"}
	for _, tc := range cases {
		w := newSimWorkload(1, tc.cells, 1, newHostRef())
		var first map[string]float64
		for pass := 0; pass < 2; pass++ {
			// A deadline in the past runs exactly one pass.
			ph, err := w.phase(time.Now(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if ph.failed != 0 || len(ph.problems) != 0 {
				t.Fatalf("%s pass %d: %d failed: %v", tc.name, pass, ph.failed, ph.problems)
			}
			got := make(map[string]float64)
			for _, k := range counts {
				got[k] = ph.layers[k]
			}
			if first == nil {
				first = got
				continue
			}
			if !reflect.DeepEqual(got, first) {
				t.Errorf("%s: counts %v did not repeat %v", tc.name, got, first)
			}
		}
		if first["keccak.digests_per_tx"] == 0 || first["p2p.msgs_per_tx"] == 0 {
			t.Errorf("%s: zero counts %v", tc.name, first)
		}
	}
}

// TestServingWorkloads runs one short phase of each serving workload and
// requires every check to pass.
func TestServingWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"rpc-read", "rpc-write"} {
		w, err := newWorkload(name, 3, dir, newHostRef())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(); err != nil {
			t.Fatalf("%s setup: %v", name, err)
		}
		ph, err := w.phase(time.Now().Add(200*time.Millisecond), newTracer())
		if cerr := w.close(); cerr != nil {
			t.Errorf("%s close: %v", name, cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ph.ops == 0 || ph.failed != 0 || len(ph.problems) != 0 {
			t.Errorf("%s: ops=%d failed=%d problems=%v", name, ph.ops, ph.failed, ph.problems)
		}
	}
}

// TestProfileAttribution records a CPU profile of a busy loop and checks
// that the decoder attributes it to this package.
func TestProfileAttribution(t *testing.T) {
	prof, err := startProfiler()
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	if err := prof.stop(); err != nil {
		t.Fatal(err)
	}
	st, err := prof.cpuProfile()
	if err != nil {
		t.Fatal(err)
	}
	if st.total == 0 {
		t.Fatal("no samples")
	}
	if share := st.cumShare("sereth/perfbench.spin"); share < 50 {
		t.Errorf("spin share %.1f%%, want most samples", share)
	}
}

var sink uint64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 1e5; i++ {
			sink = sink*31 + uint64(i)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, program has %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: %+v, program has %+v", i, w, workloadDefs[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: %+v, program has %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
