package scenarios

import (
	"testing"

	"sereth/internal/types"
)

func TestEtaTableShape(t *testing.T) {
	table := EtaTable()
	if len(table) != 22 {
		t.Fatalf("η table has %d scenarios, want 22", len(table))
	}
	seen := map[string]bool{}
	for _, e := range table {
		if seen[e.Name] {
			t.Errorf("duplicate scenario %q", e.Name)
		}
		seen[e.Name] = true
		cfg := e.Make(EtaSeed)
		if cfg.Buys <= 0 {
			t.Errorf("%s: empty workload", e.Name)
		}
	}
	for _, want := range []string{
		"figure2/geth/sets-100", "sequential-history",
		"ablation/extendheads/extended", "ablation/gossip/latency-15000ms",
	} {
		if !seen[want] {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestScaleTablePopulations(t *testing.T) {
	for _, e := range ScaleTable() {
		cfg := e.Make(EtaSeed)
		if cfg.SemanticMiners+cfg.BaselineMiners+cfg.Clients != 50 {
			t.Errorf("%s: population %d+%d+%d != 50",
				e.Name, cfg.SemanticMiners, cfg.BaselineMiners, cfg.Clients)
		}
	}
}

func TestChainPoolFixture(t *testing.T) {
	pool, tracker, tail := ChainPool(100)
	if pool.Len() != 100 {
		t.Fatalf("pool len %d", pool.Len())
	}
	view, ok := tracker.View()
	if !ok || view.Depth != 100 {
		t.Fatalf("view depth %d ok=%v", view.Depth, ok)
	}
	pool.Remove([]types.Hash{tail.Hash()})
	if view, _ := tracker.View(); view.Depth != 99 {
		t.Fatalf("churn depth %d", view.Depth)
	}
}

func TestStateFixtureDeterministic(t *testing.T) {
	a, addrs := StateFixture(200)
	b, _ := StateFixture(200)
	if len(addrs) != 200 {
		t.Fatalf("addrs = %d", len(addrs))
	}
	if a.Root() != b.Root() {
		t.Error("state fixture not deterministic")
	}
	if a.GetNonce(addrs[3]) == 0 {
		t.Error("fixture EOAs not populated")
	}
}

func TestReplayFixtureValidates(t *testing.T) {
	f := NewReplayFixture(20)
	c := f.NewChain(nil)
	receipts, err := c.InsertBlock(f.Block)
	if err != nil {
		t.Fatalf("fixture block rejected: %v", err)
	}
	if len(receipts) != 20 {
		t.Fatalf("receipts = %d", len(receipts))
	}
	for i, r := range receipts {
		if r.Status != types.StatusSucceeded {
			t.Errorf("fixture tx %d failed", i)
		}
	}
}
