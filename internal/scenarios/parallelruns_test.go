package scenarios

import (
	"runtime"
	"testing"

	"sereth/internal/sim"
)

// TestParallelExecGoldenScenarios runs EVERY golden η scenario once on
// its own at the benchmark seed, then again with all the scenarios
// executing concurrently in one process, and demands identical results.
// The simulator's seed-sweep worker pool relies on this: a simulation
// shares no mutable state with another one running beside it (frozen
// transactions, block-hash memos and the keccak counter are all safe to
// share), so concurrency changes wall time only.
func TestParallelExecGoldenScenarios(t *testing.T) {
	table := EtaTable()
	alone := make([]sim.Result, len(table))
	for i, e := range table {
		res, err := sim.Run(e.Make(EtaSeed))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		alone[i] = res
	}
	for i, e := range table {
		i, e := i, e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			concurrent, err := sim.Run(e.Make(EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, e.Name, alone[i], concurrent)
		})
	}
}

// TestParallelExecChaosHonestTwin covers the chaos family: η under
// faults AND the honest twin must be the same whether RunChaos runs the
// seeds one at a time (GOMAXPROCS 1) or on its worker pool.
func TestParallelExecChaosHonestTwin(t *testing.T) {
	names := []string{"chaos_churn", "chaos_partition", "chaos_loss"}
	seeds := sim.DefaultSeeds(2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := sim.RunChaos(names, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(len(seeds))
	par, err := sim.RunChaos(names, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("point count divergence: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Eta.Mean != p.Eta.Mean || s.HonestEta.Mean != p.HonestEta.Mean {
			t.Errorf("%s: η divergence: sequential %.6f honest %.6f, worker pool %.6f honest %.6f",
				s.Variant, s.Eta.Mean, s.HonestEta.Mean, p.Eta.Mean, p.HonestEta.Mean)
		}
		if s.Orphaned.Mean != p.Orphaned.Mean || s.Converged != p.Converged {
			t.Errorf("%s: robustness divergence: orphaned %.1f vs %.1f, converged %v vs %v",
				s.Variant, s.Orphaned.Mean, p.Orphaned.Mean, s.Converged, p.Converged)
		}
	}
}
