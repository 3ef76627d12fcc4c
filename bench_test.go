package sereth

// Benchmark harness: one benchmark per experiment in DESIGN.md §3. The
// η scenario table and the 1000-tx view fixture live in
// internal/scenarios, shared with cmd/serethbench so BENCH_<date>.json
// is directly comparable with `go test -bench` output. Each η benchmark
// runs the full simulated-network scenario per iteration and reports
// the measured transaction efficiency (η, the Figure-2 y-axis) as a
// custom metric alongside the usual ns/op. Absolute wall times are
// simulator costs, not blockchain latencies; the η metrics are the
// reproduction targets.

import (
	"testing"

	"sereth/internal/chain"
	"sereth/internal/p2p"
	"sereth/internal/scenarios"
	"sereth/internal/sim"
)

// BenchmarkEta runs every scenario of the shared η table: the nine
// Figure-2 cells, the sequential-history check and the four ablations.
// Sub-benchmark names match the record names in BENCH_<date>.json.
func BenchmarkEta(b *testing.B) {
	for _, e := range scenarios.EtaTable() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			var etaSum float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(e.Make(int64(i+1) * 101))
				if err != nil {
					b.Fatal(err)
				}
				etaSum += res.Efficiency()
			}
			b.ReportMetric(etaSum/float64(b.N), "eta")
		})
	}
}

// E1: §V sequential-history check — single sender, η must be 1.0.
func BenchmarkSequentialHistory(b *testing.B) {
	var etaSum float64
	for i := 0; i < b.N; i++ {
		res, err := sim.SequentialHistory(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Efficiency() != 1.0 {
			b.Fatalf("sequential history η = %.3f, want 1.0", res.Efficiency())
		}
		etaSum += res.Efficiency()
	}
	b.ReportMetric(etaSum/float64(b.N), "eta")
}

// P1: HMS overhead — Process and Series cost against pool size lives in
// internal/hms (BenchmarkProcess, BenchmarkSeries). This root-level bench
// exercises the full client-visible view path on a 1000-tx pool: the
// incremental tracker absorbs a pool delta (tail removed, view read,
// tail re-admitted, view read) per iteration — O(Δ) maintenance instead
// of a per-call full recompute. The from-scratch path is tracked
// separately in BenchmarkViewFromScratch.
func BenchmarkViewLatency(b *testing.B) {
	cfg := sim.SerethClient(20, 1)
	if _, err := sim.Run(cfg); err != nil {
		b.Fatal(err)
	}
	pool, tracker, tail := scenarios.ChainPool(1000)
	tailHash := tail.Hash()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		view, ok := tracker.View()
		if !ok || view.Depth != 1000 {
			b.Fatalf("depth = %d", view.Depth)
		}
		pool.Remove([]Hash{tailHash})
		if view, _ := tracker.View(); view.Depth != 999 {
			b.Fatalf("churn depth = %d", view.Depth)
		}
		if err := pool.Add(tail); err != nil {
			b.Fatal(err)
		}
	}
}

// P2: the pre-incremental baseline — a standalone tracker recomputing
// the whole view from a pool snapshot per call (kept for the perf
// trajectory; it stays O(pool) per view).
func BenchmarkViewFromScratch(b *testing.B) {
	pool, _, _ := scenarios.ChainPool(1000)
	tracker := scenarios.NewTracker()
	snapshot, _ := pool.Snapshot()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		view := tracker.ViewOf(snapshot)
		if view.Depth != 1000 {
			b.Fatalf("depth = %d", view.Depth)
		}
	}
}

// G1: gossip cost — one transaction broadcast to a 50-peer full mesh,
// delivered within the iteration. The batched-envelope engine enqueues
// ONE shared payload per gossip; the pre-refactor heap enqueued 49
// copies. allocs/op is the acceptance metric; msgs/s reports end-to-end
// delivery throughput (49 deliveries per op).
func BenchmarkBroadcastMesh50(b *testing.B) {
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 1})
	for id := 1; id <= 50; id++ {
		net.Join(p2p.PeerID(id), scenarios.NopPeer{})
	}
	tx := (&Transaction{Nonce: 1, GasLimit: 1, Data: []byte{1}}).Memoize()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.BroadcastTx(1, tx)
		net.AdvanceTo(uint64(i + 1))
	}
	b.StopTimer()
	sent, _ := net.Stats()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/s")
}

// G2: the same broadcast relayed across a sparse random-regular graph
// (multi-hop + duplicate suppression).
func BenchmarkBroadcastDRegular50(b *testing.B) {
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 1, Topology: p2p.RandomRegular(6, 1)})
	for id := 1; id <= 50; id++ {
		net.Join(p2p.PeerID(id), scenarios.NopPeer{})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := (&Transaction{Nonce: uint64(i), GasLimit: 1, Data: []byte{byte(i), byte(i >> 8), byte(i >> 16)}}).Memoize()
		net.BroadcastTx(1, tx)
		net.Drain()
	}
	b.StopTimer()
	sent, _ := net.Stats()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/s")
}

// C1: state-commitment cost on the 1000-tx state (1000 funded EOAs +
// the contract's 1000 storage words). The incremental row mutates one
// account and recommits — the persistent tries rehash only the changed
// paths. The fromscratch row is the pre-incremental semantics: every
// Root rebuilt the full account and storage tries. The acceptance bar is
// a >= 5x ns ratio between the two.
func BenchmarkStateRoot(b *testing.B) {
	b.Run("incremental-1k", func(b *testing.B) {
		st, addrs := scenarios.StateFixture(1000)
		st.Root()
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.SetNonce(addrs[i%len(addrs)], uint64(i+100))
			if st.Root() == (Hash{}) {
				b.Fatal("zero root")
			}
		}
	})
	b.Run("fromscratch-1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, _ := scenarios.StateFixture(1000)
			b.StartTimer()
			// Root on a fully-dirty fresh state is exactly the
			// pre-incremental full rebuild.
			if st.Root() == (Hash{}) {
				b.Fatal("zero root")
			}
		}
	})
}

// C2: block-validation cost for a fresh peer importing a sealed 100-tx
// block. The full row replays the body (§II-D); the cached row shares
// the validated execution and verifies by root comparison — the per-peer
// import cost of an N-peer process after the first replay.
func BenchmarkBlockReplay(b *testing.B) {
	fixture := scenarios.NewReplayFixture(100)
	run := func(b *testing.B, cache *chain.ExecCache) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := fixture.NewChain(cache)
			b.StartTimer()
			if _, err := c.InsertBlock(fixture.Block); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("full-replay-100tx", func(b *testing.B) { run(b, nil) })
	b.Run("cached-100tx", func(b *testing.B) {
		cache := chain.NewExecCache(0)
		if _, err := fixture.NewChain(cache).InsertBlock(fixture.Block); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, cache)
	})
}

// A1: per-transaction pool admission — copy, identity hash, duplicate
// check, memoization (hash + fused mark) and change-feed notification.
// This is the per-peer cost every gossiped transaction pays; keccak
// dominates it, so it tracks the hash-layer overhaul (acceptance bar:
// >= 2x over the pre-overhaul loop-form keccak). Body shared with the
// serethbench txpool/admit row via internal/scenarios.
func BenchmarkTxAdmission(b *testing.B) { scenarios.BenchTxAdmission(b) }

// A2: batched admission of a 100-tx gossip envelope — one lock
// acquisition and one subscriber flush for the whole batch (the
// HandleTxs delivery path). ns/op is per 100-tx batch.
func BenchmarkAdmitBatch100(b *testing.B) { scenarios.BenchAdmitBatch100(b) }

// S1: a full figure2 cell at population scale — 48 miners + 2 clients
// on a mesh. Run with -benchtime 1x; the η metric must match the
// serethbench scale records.
func BenchmarkScaleFigure2Peers50(b *testing.B) {
	table := scenarios.ScaleTable()
	e := table[0] // peers-50-mesh
	var etaSum float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(e.Make(int64(i+1) * 101))
		if err != nil {
			b.Fatal(err)
		}
		etaSum += res.Efficiency()
	}
	b.ReportMetric(etaSum/float64(b.N), "eta")
}

// E1b: interpreter dispatch — one Call executing a 100-instruction
// loop through the jump table over pooled frames (pushes, stack
// shuffles, arithmetic, a conditional jump). Tracks dispatch overhead
// of the execution pipeline; body shared with the serethbench
// evm/interp-100op row via internal/scenarios.
func BenchmarkInterp100Op(b *testing.B) { scenarios.BenchInterp100Op(b) }

// E2b: typed flat journal — snapshot, eight mutations across the entry
// kinds, revert: the per-transaction journaling rhythm of
// ApplyTransaction. The closure journal allocated per mutation; the
// flat journal appends value structs into a reused slice. Body shared
// with the serethbench statedb/journal-churn row.
func BenchmarkJournalChurn(b *testing.B) { scenarios.BenchJournalChurn(b) }
