package sereth

// Root benchmark suite. The η rows run whole simulated-network
// scenarios from the shared tables in internal/scenarios and report the
// measured transaction efficiency (η, the Figure-2 y-axis) as a custom
// metric; at -benchtime 1x they run seed 101 and must reproduce the
// committed η values bit for bit. The remaining rows time one layer
// each: HMS views, gossip delivery, state commitment, block import,
// pool admission, interpreter dispatch and the state journal. Absolute
// wall times are simulator costs, not blockchain latencies. End-to-end
// throughput, with repeated samples and per-layer shares, is measured
// by perfbench (see BENCHMARK.json).

import (
	"testing"

	"sereth/internal/chain"
	"sereth/internal/evm"
	"sereth/internal/p2p"
	"sereth/internal/scenarios"
	"sereth/internal/sim"
	"sereth/internal/txpool"
	"sereth/internal/wallet"
)

// BenchmarkEta runs every scenario of the shared η tables: the nine
// Figure-2 cells, the sequential-history check, the four ablations and
// the four 50-peer scale rows. Sub-benchmark names match the record
// names of the historical BENCH_<date>.json files.
func BenchmarkEta(b *testing.B) {
	for _, e := range append(scenarios.EtaTable(), scenarios.ScaleTable()...) {
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
// import cost of an N-peer process after the first replay. The
// elision-off row replays with the SHA3 elision layer disabled and a
// cold signature registry per insert: the pre-elision cost of every
// digest path, the same-run reference for the full row.
func BenchmarkBlockReplay(b *testing.B) {
	fixture := scenarios.NewReplayFixture(100)
	run := func(b *testing.B, newChain func() *chain.Chain) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := newChain()
			b.StartTimer()
			if _, err := c.InsertBlock(fixture.Block); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("full-replay-100tx", func(b *testing.B) {
		run(b, func() *chain.Chain { return fixture.NewChain(nil) })
	})
	b.Run("cached-100tx", func(b *testing.B) {
		cache := chain.NewExecCache(0)
		if _, err := fixture.NewChain(cache).InsertBlock(fixture.Block); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, func() *chain.Chain { return fixture.NewChain(cache) })
	})
	// Last: a cold registry re-tags the shared instances' verified
	// flags, which the rows above must not observe.
	b.Run("full-replay-100tx-elision-off", func(b *testing.B) {
		evm.SetElisionDisabled(true)
		defer evm.SetElisionDisabled(false)
		run(b, func() *chain.Chain {
			reg := wallet.NewRegistry()
			reg.Register(fixture.Owner)
			return fixture.NewChainWithRegistry(reg)
		})
	})
}

// admissionTxs builds n distinct HMS set transactions so every admission
// pays the full derived-data memoization (identity hash + fused mark:
// two sponge finalizations per tx).
func admissionTxs(n int) []*Transaction {
	sel := SelectorFor("set(bytes32[3])")
	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i] = &Transaction{
			Nonce:    uint64(i),
			To:       scenarios.BenchContract,
			GasPrice: 10,
			GasLimit: 300_000,
			Data:     EncodeCall(sel, FlagChain, WordFromUint64(uint64(i)), WordFromUint64(uint64(i+1))),
			From:     Address{19: 0x01},
		}
	}
	return txs
}

// A1: per-transaction pool admission — copy, identity hash, duplicate
// check, memoization (hash + fused mark) and change-feed notification.
// This is the per-peer cost every gossiped transaction pays; keccak
// dominates it, so it tracks the hash-layer overhaul (acceptance bar:
// >= 2x over the pre-overhaul loop-form keccak).
func BenchmarkTxAdmission(b *testing.B) {
	const cycle = 4096
	txs := admissionTxs(cycle)
	b.ReportAllocs()
	b.ResetTimer()
	var pool *txpool.Pool
	for i := 0; i < b.N; i++ {
		if i%cycle == 0 {
			b.StopTimer()
			pool = txpool.New()
			b.StartTimer()
		}
		if _, err := pool.Admit(txs[i%cycle]); err != nil {
			b.Fatal(err)
		}
	}
}

// A2: batched admission of a 100-tx gossip envelope — one lock
// acquisition and one subscriber flush for the whole batch (the
// HandleTxs delivery path). ns/op is per 100-tx batch.
func BenchmarkAdmitBatch100(b *testing.B) {
	const batch = 100
	txs := admissionTxs(batch * 41)
	b.ReportAllocs()
	b.ResetTimer()
	var pool *txpool.Pool
	for i := 0; i < b.N; i++ {
		start := (i * batch) % len(txs)
		if start == 0 {
			b.StopTimer()
			pool = txpool.New()
			b.StartTimer()
		}
		admitted, errs := pool.AdmitBatch(txs[start : start+batch])
		for j, tx := range admitted {
			if tx == nil {
				b.Fatal(errs[j])
			}
		}
	}
}

// S1: a full figure2 cell at population scale — 48 miners + 2 clients
// on a mesh, the scale/figure2-sereth/peers-50-mesh row of BenchmarkEta
// on its own (the profiling target of the 50-peer cell).
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

// interpProgram returns a bytecode loop that executes exactly 100
// instructions before halting (one counter push, fourteen 7-op loop
// bodies, one STOP). The body mixes pushes, stack shuffles, arithmetic
// and a conditional jump, so the benchmark tracks dispatch overhead
// rather than any single handler.
func interpProgram() []byte {
	return []byte{
		0x60, 14, // PUSH1 14        counter
		0x5b,    // JUMPDEST  (pc=2)
		0x60, 1, // PUSH1 1
		0x90,    // SWAP1
		0x03,    // SUB            counter-1
		0x80,    // DUP1
		0x60, 2, // PUSH1 2
		0x57, // JUMPI          loop while counter != 0
		0x00, // STOP
	}
}

// E1b: interpreter dispatch — one Call executing the 100-instruction
// interpProgram through the jump table over pooled frames. ns/op is per
// program run, ~10 ns/op per executed instruction at parity.
func BenchmarkInterp100Op(b *testing.B) {
	st := NewStateDB()
	st.SetCode(scenarios.BenchContract, interpProgram())
	machine := evm.New(st, evm.BlockContext{Number: 1, Time: 15})
	ctx := evm.CallContext{
		Caller:   Address{19: 0x01},
		Contract: scenarios.BenchContract,
		Gas:      100_000,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := machine.Call(ctx); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// E2b: typed flat journal — snapshot, eight mutations across the entry
// kinds, revert: the per-transaction journaling rhythm of the block
// processor. The closure journal allocated per mutation; the flat
// journal appends value structs into a reused slice. ns/op is per churn
// cycle.
func BenchmarkJournalChurn(b *testing.B) {
	st, addrs := scenarios.StateFixture(16)
	st.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint64(i)
		a := addrs[i%len(addrs)]
		snap := st.Snapshot()
		st.SetNonce(a, n)
		st.AddBalance(a, 7)
		if !st.SubBalance(a, 3) {
			b.Fatal("underfunded fixture account")
		}
		for k := 0; k < 5; k++ {
			st.SetState(scenarios.BenchContract, WordFromUint64(uint64(k)), WordFromUint64(n+uint64(k)))
		}
		st.RevertToSnapshot(snap)
	}
}
