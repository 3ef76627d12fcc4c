package scenarios

import (
	"testing"

	"sereth/internal/sim"
)

// compareRuns demands two runs of one scenario that differ only in a
// mode pinned to change nothing the paper measures be observationally
// identical: every derived measurement — inclusion and success counts,
// η, block/message totals — must match exactly (not approximately).
func compareRuns(t *testing.T, name string, a, b sim.Result) {
	t.Helper()
	if a.Efficiency() != b.Efficiency() || a.SetEfficiency() != b.SetEfficiency() {
		t.Errorf("%s: η divergence: %.6f/%.6f vs %.6f/%.6f",
			name, a.Efficiency(), a.SetEfficiency(), b.Efficiency(), b.SetEfficiency())
	}
	if a.BuysIncluded != b.BuysIncluded || a.BuysSucceeded != b.BuysSucceeded ||
		a.SetsIncluded != b.SetsIncluded || a.SetsSucceeded != b.SetsSucceeded {
		t.Errorf("%s: inclusion divergence: %d/%d buys %d/%d sets vs %d/%d buys %d/%d sets",
			name, a.BuysIncluded, a.BuysSucceeded, a.SetsIncluded, a.SetsSucceeded,
			b.BuysIncluded, b.BuysSucceeded, b.SetsIncluded, b.SetsSucceeded)
	}
	if a.Blocks != b.Blocks || a.MsgsSent != b.MsgsSent {
		t.Errorf("%s: chain/network divergence: %d blocks %d msgs vs %d blocks %d msgs",
			name, a.Blocks, a.MsgsSent, b.Blocks, b.MsgsSent)
	}
}

// TestPersistGoldenScenarios runs EVERY golden η scenario twice at the
// benchmark seed — in-memory and store-backed — and demands identical
// results. Persistence is write-through by construction; this is the
// differential proof that flushing state and block records at every
// adoption perturbs nothing the paper measures.
func TestPersistGoldenScenarios(t *testing.T) {
	for _, e := range EtaTable() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			plainRes, err := sim.Run(e.Make(EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := e.Make(EtaSeed)
			cfg.Persist = true
			persistRes, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, e.Name, plainRes, persistRes)
		})
	}
}

// TestPersistChaosHonestTwin covers the chaos family: η under faults
// AND the honest twin must be unchanged by store-backed persistence.
func TestPersistChaosHonestTwin(t *testing.T) {
	names := []string{"chaos_churn", "chaos_partition", "chaos_loss"}
	seeds := sim.DefaultSeeds(1)
	plain, err := sim.RunChaos(names, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	persist, err := sim.RunChaos(names, seeds, nil, sim.Shape{Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(persist) {
		t.Fatalf("point count divergence: %d vs %d", len(plain), len(persist))
	}
	for i := range plain {
		s, p := plain[i], persist[i]
		if s.Eta.Mean != p.Eta.Mean || s.HonestEta.Mean != p.HonestEta.Mean {
			t.Errorf("%s: η divergence: plain %.6f honest %.6f, persisted %.6f honest %.6f",
				s.Variant, s.Eta.Mean, s.HonestEta.Mean, p.Eta.Mean, p.HonestEta.Mean)
		}
		if s.Orphaned.Mean != p.Orphaned.Mean || s.Converged != p.Converged {
			t.Errorf("%s: robustness divergence: orphaned %.1f vs %.1f, converged %v vs %v",
				s.Variant, s.Orphaned.Mean, p.Orphaned.Mean, s.Converged, p.Converged)
		}
	}
}

// TestRPCClientsGoldenScenarios runs EVERY golden η scenario twice —
// in-process clients and clients behind the HTTP JSON-RPC serving tier
// — and demands identical results: the wire encoding round-trips the
// same view words and submits the same signed transactions.
func TestRPCClientsGoldenScenarios(t *testing.T) {
	for _, e := range EtaTable() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			localRes, err := sim.Run(e.Make(EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := e.Make(EtaSeed)
			cfg.RPCClients = true
			rpcRes, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, e.Name, localRes, rpcRes)
		})
	}
}
