// Command serethbench runs the repository's benchmark suite outside `go
// test` and writes a dated BENCH_<date>.json with η (the Figure-2
// y-axis) and ns/op / allocs per scenario, so the performance trajectory
// is tracked across PRs. The η scenario table and view fixtures come
// from internal/scenarios — the same definitions the root bench harness
// uses — so the η values match `go test -bench` at -benchtime 1x and
// must stay bit-identical across pure performance work.
//
// Usage:
//
//	go run ./cmd/serethbench [-out BENCH_2006-01-02.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/evm"
	"sereth/internal/keccak"
	"sereth/internal/metrics"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/rpc"
	"sereth/internal/scenarios"
	"sereth/internal/sim"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// Record is one benchmark result row.
type Record struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	Eta         float64 `json:"eta,omitempty"`
	HasEta      bool    `json:"has_eta"`
	MsgsPerSec  float64 `json:"msgs_per_sec,omitempty"`
	// chaos/ rows: η of the honest twin (same seeds, faults disabled),
	// the degradation against it, and pooled resync-latency percentiles
	// (churn variants only).
	HonestEta   float64 `json:"honest_eta,omitempty"`
	EtaDrop     float64 `json:"eta_drop,omitempty"`
	ResyncP50Ms float64 `json:"resync_p50_ms,omitempty"`
	ResyncP90Ms float64 `json:"resync_p90_ms,omitempty"`
	// crash/ rows: kills injected, restarts that found a durable head on
	// disk, and bytes truncated as torn tail during salvage (the resync
	// percentiles carry the crash-recovery latency: salvage + catch-up).
	Crashes           int    `json:"crashes,omitempty"`
	RecoveredFromDisk int    `json:"recovered_from_disk,omitempty"`
	SalvageTornBytes  uint64 `json:"salvage_torn_bytes,omitempty"`
	// keccak/elision-* rows: the elision-off twin's ns/op over this
	// row's ns/op (the same-run elision speedup).
	Speedup float64 `json:"speedup,omitempty"`
	// keccak/elision-* rows: keccak digest finalizations per operation
	// (keccak.Invocations delta) — the elision acceptance metric is
	// hash count, not timing.
	KeccakPerOp float64 `json:"keccak_per_op,omitempty"`
	// serving/ rows: sustained request rate and latency percentiles of
	// the HTTP JSON-RPC tier at the given client concurrency.
	Clients    int     `json:"clients,omitempty"`
	ReqsPerSec float64 `json:"reqs_per_sec,omitempty"`
	LatP50Ms   float64 `json:"lat_p50_ms,omitempty"`
	LatP90Ms   float64 `json:"lat_p90_ms,omitempty"`
	LatP99Ms   float64 `json:"lat_p99_ms,omitempty"`
}

// Report is the serialized BENCH file.
type Report struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version,omitempty"`
	Records   []Record `json:"records"`
}

func main() {
	defaultOut := fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	out := flag.String("out", defaultOut, "output JSON path")
	flag.Parse()

	var records []Record
	add := func(r Record) {
		records = append(records, r)
		switch {
		case r.HonestEta > 0:
			fmt.Printf("%-48s %12.0f ns/op   eta=%.2f honest=%.2f drop=%+.2f\n",
				r.Name, r.NsPerOp, r.Eta, r.HonestEta, r.EtaDrop)
		case r.HasEta:
			fmt.Printf("%-48s %12.0f ns/op   eta=%.2f\n", r.Name, r.NsPerOp, r.Eta)
		case r.ReqsPerSec > 0:
			fmt.Printf("%-48s %12.0f ns/op   %8.0f req/s  p50=%.3fms p90=%.3fms p99=%.3fms\n",
				r.Name, r.NsPerOp, r.ReqsPerSec, r.LatP50Ms, r.LatP90Ms, r.LatP99Ms)
		case r.MsgsPerSec > 0:
			fmt.Printf("%-48s %12.0f ns/op   %8d B/op %6d allocs/op %12.0f msgs/s\n",
				r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.MsgsPerSec)
		case strings.HasPrefix(r.Name, "keccak/elision"):
			fmt.Printf("%-48s %12.0f ns/op   %8.2f keccaks/op speedup=%.2fx\n",
				r.Name, r.NsPerOp, r.KeccakPerOp, r.Speedup)
		case r.Speedup > 0:
			fmt.Printf("%-48s %12.0f ns/op   %8d B/op %6d allocs/op %8.2fx vs sequential\n",
				r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Speedup)
		default:
			fmt.Printf("%-48s %12.0f ns/op   %8d B/op %6d allocs/op\n",
				r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
	}

	for _, e := range scenarios.EtaTable() {
		add(runEta(e))
	}
	for _, e := range scenarios.ScaleTable() {
		add(runEta(e))
	}
	add(broadcastMesh50())
	add(viewLatency())
	add(viewFromScratch())
	incRoot, scratchRoot := stateRoot()
	add(incRoot)
	add(scratchRoot)
	if incRoot.NsPerOp > 0 {
		fmt.Printf("state-root incremental speedup: %.0fx (acceptance bar: >= 5x)\n",
			scratchRoot.NsPerOp/incRoot.NsPerOp)
	}
	fullReplay, cachedReplay := blockReplay()
	add(fullReplay)
	add(cachedReplay)
	add(keccakBench("keccak/sum256-64B", 64))
	add(keccakBench("keccak/sum256-1KB", 1024))
	add(txAdmission())
	add(admitBatch100())
	for _, r := range elisionRows() {
		add(r)
	}
	add(interp100Op())
	add(journalChurn())
	for _, r := range chaosRows() {
		add(r)
	}
	for _, r := range crashRows() {
		add(r)
	}
	add(fileStoreWrite())
	add(fileStoreCompact())
	for _, r := range servingRows() {
		add(r)
	}

	report := Report{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Records:   records,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serethbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "serethbench:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}

// runEta executes one scenario of the shared table at the fixed seed,
// recording wall time, η and the network message rate.
func runEta(e scenarios.Eta) Record {
	start := time.Now()
	res, err := sim.Run(e.Make(scenarios.EtaSeed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "serethbench: %s: %v\n", e.Name, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	rec := Record{
		Name:    e.Name,
		NsPerOp: float64(elapsed.Nanoseconds()),
		Eta:     res.Efficiency(),
		HasEta:  true,
	}
	if elapsed > 0 {
		rec.MsgsPerSec = float64(res.MsgsSent) / elapsed.Seconds()
	}
	return rec
}

func benchRecord(name string, res testing.BenchmarkResult) Record {
	return Record{
		Name:        name,
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// broadcastMesh50 measures one tx broadcast delivered to a 50-peer full
// mesh — the batched-gossip acceptance row (one shared envelope per
// gossip; the pre-refactor heap did 49 copies ≈ 150 allocs/op).
func broadcastMesh50() Record {
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 1})
	for id := 1; id <= 50; id++ {
		net.Join(p2p.PeerID(id), scenarios.NopPeer{})
	}
	tx := (&types.Transaction{Nonce: 1, GasLimit: 1, Data: []byte{1}}).Memoize()
	tick := uint64(0)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.BroadcastTx(1, tx)
			tick++
			net.AdvanceTo(tick)
		}
	})
	rec := benchRecord("gossip/broadcast-mesh50", res)
	rec.MsgsPerSec = 49 * float64(time.Second) / float64(res.NsPerOp())
	return rec
}

func viewLatency() Record {
	pool, tracker, tail := scenarios.ChainPool(1000)
	tailHash := tail.Hash()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			view, ok := tracker.View()
			if !ok || view.Depth != 1000 {
				b.Fatalf("depth = %d", view.Depth)
			}
			pool.Remove([]types.Hash{tailHash})
			if view, _ := tracker.View(); view.Depth != 999 {
				b.Fatalf("churn depth = %d", view.Depth)
			}
			if err := pool.Add(tail); err != nil {
				b.Fatal(err)
			}
		}
	})
	return benchRecord("view-latency/incremental-1k", res)
}

// stateRoot measures the 1000-tx-state commitment both ways: the
// incremental row (mutate one account, recommit via the persistent
// tries) against the pre-incremental full rebuild. The ratio is the
// tentpole acceptance metric (>= 5x).
func stateRoot() (incremental, fromScratch Record) {
	st, addrs := scenarios.StateFixture(1000)
	st.Root()
	n := uint64(0)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n++
			st.SetNonce(addrs[int(n)%len(addrs)], n+100)
			if st.Root() == (types.Hash{}) {
				b.Fatal("zero root")
			}
		}
	})
	incremental = benchRecord("stateroot/incremental-1k", res)
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh, _ := scenarios.StateFixture(1000)
			b.StartTimer()
			// Root on a fully-dirty fresh state is exactly the
			// pre-incremental full rebuild.
			if fresh.Root() == (types.Hash{}) {
				b.Fatal("zero root")
			}
		}
	})
	fromScratch = benchRecord("stateroot/fromscratch-1k", res)
	return incremental, fromScratch
}

// blockReplay measures a fresh peer importing a sealed 100-tx block by
// full replay versus adopting the shared validated execution.
func blockReplay() (full, cached Record) {
	fixture := scenarios.NewReplayFixture(100)
	run := func(cache *chain.ExecCache) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := fixture.NewChain(cache)
				b.StartTimer()
				if _, err := c.InsertBlock(fixture.Block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	full = benchRecord("replay/insert-100tx-full", run(nil))
	warm := chain.NewExecCache(0)
	if _, err := fixture.NewChain(warm).InsertBlock(fixture.Block); err != nil {
		fmt.Fprintln(os.Stderr, "serethbench: replay warmup:", err)
		os.Exit(1)
	}
	cached = benchRecord("replay/insert-100tx-cached", run(warm))
	return full, cached
}

// keccakBench measures the one-shot Sum256 sponge on an n-byte input —
// the hash-layer rows of the keccak overhaul (the 1KB row's acceptance
// bar is >= 2x over the pre-overhaul loop-form permutation).
func keccakBench(name string, n int) Record {
	in := make([]byte, n)
	for i := range in {
		in[i] = 0x3c
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keccak.Sum256(in)
		}
	})
	return benchRecord(name, res)
}

// txAdmission measures per-transaction pool admission including the
// derived-data memoization — the per-peer cost of every gossiped tx.
// The body is shared with the root BenchmarkTxAdmission via
// internal/scenarios so the recorded row and the CI acceptance
// benchmark cannot diverge.
func txAdmission() Record {
	return benchRecord("txpool/admit", testing.Benchmark(scenarios.BenchTxAdmission))
}

// admitBatch100 measures batched admission of a 100-tx gossip envelope
// (ns/op is per batch: one lock acquisition, one subscriber flush).
func admitBatch100() Record {
	return benchRecord("txpool/admit-batch-100", testing.Benchmark(scenarios.BenchAdmitBatch100))
}

// elisionRows measures the cross-layer SHA3 elision pipeline by hash
// count and wall time. The paired replay rows insert the same 100-tx
// golden body with the hint/memo path on (warm shared instances, the
// steady-state serving configuration) and off (elision disabled plus a
// cold signature registry per insert — the pre-elision behaviour of
// every digest path); KeccakPerOp is the keccak.Invocations delta per
// insert and the on-row's Speedup is the off-row's ns/op over its own,
// so the file carries the same-run ratio rather than a cross-day
// comparison. The admission row is the Nth-peer contract: admitting an
// already-frozen gossiped instance into a fresh pool costs zero
// digests.
func elisionRows() []Record {
	fixture := scenarios.NewReplayFixture(100)
	countInsert := func(c *chain.Chain) float64 {
		before := keccak.Invocations()
		if _, err := c.InsertBlock(fixture.Block); err != nil {
			fmt.Fprintln(os.Stderr, "serethbench: elision replay:", err)
			os.Exit(1)
		}
		return float64(keccak.Invocations() - before)
	}
	coldReg := func() *wallet.Registry {
		r := wallet.NewRegistry()
		r.Register(fixture.Owner)
		return r
	}

	evm.SetElisionDisabled(true)
	offCount := countInsert(fixture.NewChainWithRegistry(coldReg()))
	resOff := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := fixture.NewChainWithRegistry(coldReg())
			b.StartTimer()
			if _, err := c.InsertBlock(fixture.Block); err != nil {
				b.Fatal(err)
			}
		}
	})
	evm.SetElisionDisabled(false)

	// Warm-up insert: restores the shared instances' verified flags to
	// the fixture registry after the cold-registry baseline runs.
	if _, err := fixture.NewChain(nil).InsertBlock(fixture.Block); err != nil {
		fmt.Fprintln(os.Stderr, "serethbench: elision warmup:", err)
		os.Exit(1)
	}
	onCount := countInsert(fixture.NewChain(nil))
	resOn := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := fixture.NewChain(nil)
			b.StartTimer()
			if _, err := c.InsertBlock(fixture.Block); err != nil {
				b.Fatal(err)
			}
		}
	})

	off := benchRecord("keccak/elision-replay-100tx-off", resOff)
	off.KeccakPerOp = offCount
	on := benchRecord("keccak/elision-replay-100tx", resOn)
	on.KeccakPerOp = onCount
	if on.NsPerOp > 0 {
		on.Speedup = off.NsPerOp / on.NsPerOp
	}

	key := wallet.NewKey("bench-elision-admit")
	frozen := key.SignTx(&types.Transaction{
		To:       types.Address{19: 0x42},
		GasPrice: 10,
		GasLimit: 300_000,
		Data: types.EncodeCall(types.SelectorFor("set(bytes32[3])"),
			types.FlagHead, types.Word{}, types.WordFromUint64(7)),
	}).Memoize()
	var admitKeccaks float64
	resAdmit := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		pools := make([]*txpool.Pool, b.N)
		for i := range pools {
			pools[i] = txpool.New()
		}
		before := keccak.Invocations()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pools[i].Admit(frozen); err != nil {
				b.Fatal(err)
			}
		}
		admitKeccaks = float64(keccak.Invocations()-before) / float64(b.N)
	})
	admit := benchRecord("keccak/elision-admit-nth-peer", resAdmit)
	admit.KeccakPerOp = admitKeccaks
	return []Record{off, on, admit}
}

// interp100Op measures jump-table dispatch over pooled frames: one Call
// executing a 100-instruction loop (ns/op is per program run).
func interp100Op() Record {
	return benchRecord("evm/interp-100op", testing.Benchmark(scenarios.BenchInterp100Op))
}

// journalChurn measures the typed flat journal's per-transaction rhythm:
// snapshot, eight mutations, revert (ns/op is per churn cycle; the
// acceptance mark is zero allocs in steady state).
func journalChurn() Record {
	return benchRecord("statedb/journal-churn", testing.Benchmark(scenarios.BenchJournalChurn))
}

// chaosRows runs every chaos fault-injection variant over two seeds and
// records η under faults against the honest twin (same configuration
// and seeds, faults disabled), plus resync-latency percentiles for the
// churn variants. ns/op is wall time per seeded run, faulty and honest
// twin included.
func chaosRows() []Record {
	seeds := sim.DefaultSeeds(2)
	var out []Record
	for _, v := range sim.ChaosVariants {
		start := time.Now()
		points, err := sim.RunChaos([]string{v.Name}, seeds, nil)
		if err != nil || len(points) != 1 {
			fmt.Fprintf(os.Stderr, "serethbench: %s: %v\n", v.Name, err)
			os.Exit(1)
		}
		p := points[0]
		rec := Record{
			Name:      "chaos/" + strings.TrimPrefix(v.Name, "chaos_"),
			NsPerOp:   float64(time.Since(start).Nanoseconds()) / float64(2*len(seeds)),
			Eta:       p.Eta.Mean,
			HasEta:    true,
			HonestEta: p.HonestEta.Mean,
			EtaDrop:   p.EtaDrop,
		}
		if p.Rejoins > 0 {
			rec.ResyncP50Ms = p.ResyncP50Ms
			rec.ResyncP90Ms = p.ResyncP90Ms
		}
		out = append(out, rec)
	}
	return out
}

// crashRows runs every crash-consistency variant over two seeds: a
// persisting peer is hard-killed mid-commit (its unsynced log tail cut
// at a random byte), salvages its log on restart, reopens on a durable
// verified head, and catches up over gossip. η is reported against the
// honest twin; the resync percentiles carry the recovery latency.
func crashRows() []Record {
	seeds := sim.DefaultSeeds(2)
	var out []Record
	for _, v := range sim.CrashVariants {
		start := time.Now()
		points, err := sim.RunCrash([]string{v.Name}, seeds, nil)
		if err != nil || len(points) != 1 {
			fmt.Fprintf(os.Stderr, "serethbench: %s: %v\n", v.Name, err)
			os.Exit(1)
		}
		p := points[0]
		out = append(out, Record{
			Name:              "crash/" + strings.TrimPrefix(v.Name, "crash_"),
			NsPerOp:           float64(time.Since(start).Nanoseconds()) / float64(2*len(seeds)),
			Eta:               p.Eta.Mean,
			HasEta:            true,
			HonestEta:         p.HonestEta.Mean,
			EtaDrop:           p.EtaDrop,
			ResyncP50Ms:       p.RecoveryP50Ms,
			ResyncP90Ms:       p.RecoveryP90Ms,
			Crashes:           p.Crashes,
			RecoveredFromDisk: p.Recovered,
			SalvageTornBytes:  p.SalvageTornBytes,
		})
	}
	return out
}

// fileStoreWrite measures the steady-state batch append path of the
// persistent log — the pooled scratch buffer keeps it allocation-free.
func fileStoreWrite() Record {
	dir, err := os.MkdirTemp("", "serethbench-store")
	if err != nil {
		fmt.Fprintln(os.Stderr, "serethbench: store dir:", err)
		os.Exit(1)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	s, err := store.OpenFile(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serethbench: store:", err)
		os.Exit(1)
	}
	defer func() { _ = s.Close() }()
	s.CompactMinBytes = 0 // keep compaction out of the measurement
	batch := &store.Batch{}
	for i := 0; i < 100; i++ {
		batch.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := s.Write(batch); err != nil { // warm the scratch buffer
		fmt.Fprintln(os.Stderr, "serethbench: store warmup:", err)
		os.Exit(1)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Write(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	return benchRecord("store/filestore-write-100rec", res)
}

// fileStoreCompact measures a full log rewrite over a store where dead
// bytes dominate: 1000 keys overwritten ten times each, so compaction
// drops ~90% of the log.
func fileStoreCompact() Record {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "serethbench-compact")
			if err != nil {
				b.Fatal(err)
			}
			s, err := store.OpenFile(dir)
			if err != nil {
				b.Fatal(err)
			}
			s.CompactMinBytes = 0 // only the explicit call below compacts
			val := bytes.Repeat([]byte{0xab}, 128)
			for round := 0; round < 10; round++ {
				batch := &store.Batch{}
				for k := 0; k < 1000; k++ {
					batch.Put([]byte(fmt.Sprintf("key-%04d", k)), val)
				}
				if err := s.Write(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			stats, err := s.Compact()
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if stats.Records != 1000 || stats.BytesAfter >= stats.BytesBefore {
				b.Fatalf("compact stats %+v", stats)
			}
			_ = s.Close()
			_ = os.RemoveAll(dir)
			b.StartTimer()
		}
	})
	return benchRecord("store/filestore-compact-1k-live", res)
}

// servingContract is the managed-variable contract address of the
// serving-tier fixture (the sim's historical address).
var servingContract = types.Address{19: 0xcc}

// servingBlocks / servingPending size the serving fixture: a chain
// deep enough that recovery and bootstrap move real state, and a
// pending series for sereth_view to walk.
const (
	servingBlocks  = 12
	servingPending = 8
)

// servingNode builds a mining Sereth node with servingBlocks committed
// set transactions (one per block) and servingPending still in the
// pool, optionally backed by kv. It returns the node and the chain
// configuration it runs on (for reopening the same store).
func servingNode(kv store.Store) (*node.Node, chain.Config, error) {
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("serving-owner")
	reg.Register(owner)
	genesis := statedb.New()
	genesis.SetCode(servingContract, asm.SerethContract())
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = reg
	net := p2p.NewNetwork(p2p.Config{})
	n, err := node.New(node.Config{
		ID: 1, Mode: node.ModeSereth, Miner: node.MinerBaseline,
		Contract: servingContract, Chain: chainCfg, Genesis: genesis,
		Network: net, Store: kv,
	})
	if err != nil {
		return nil, chainCfg, err
	}
	prev := types.ZeroWord
	nonce := uint64(0)
	submit := func(i uint64) error {
		val := types.WordFromUint64(100 + i)
		if _, err := n.SubmitSet(owner, nonce, servingContract, types.FlagHead, prev, val); err != nil {
			return err
		}
		nonce++
		prev = val
		return nil
	}
	for i := 0; i < servingBlocks; i++ {
		if err := submit(uint64(i)); err != nil {
			return nil, chainCfg, err
		}
		net.AdvanceTo(net.Now() + 5)
		if _, err := n.MineAndBroadcast(net.Now() + 15); err != nil {
			return nil, chainCfg, err
		}
		net.AdvanceTo(net.Now() + 20)
	}
	for i := 0; i < servingPending; i++ {
		if err := submit(uint64(servingBlocks + i)); err != nil {
			return nil, chainCfg, err
		}
	}
	net.AdvanceTo(net.Now() + 20)
	return n, chainCfg, nil
}

// measureServing hammers one JSON-RPC method from `clients` concurrent
// callers (each with its own connection) and reports sustained req/s
// plus per-request latency percentiles via metrics.Percentile.
func measureServing(url, method string, clients int, call func(*rpc.Client) error) Record {
	const perClient = 150
	lats := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rpc.NewClient(url)
			lats[i] = make([]float64, 0, perClient)
			for j := 0; j < perClient; j++ {
				t0 := time.Now()
				if err := call(c); err != nil {
					errs[i] = err
					return
				}
				lats[i] = append(lats[i], float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []float64
	for i, ls := range lats {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "serethbench: serving/%s: %v\n", method, errs[i])
			os.Exit(1)
		}
		all = append(all, ls...)
	}
	total := clients * perClient
	return Record{
		Name:       fmt.Sprintf("serving/%s-c%d", method, clients),
		NsPerOp:    float64(wall.Nanoseconds()) / float64(total),
		Clients:    clients,
		ReqsPerSec: float64(total) / wall.Seconds(),
		LatP50Ms:   metrics.Percentile(all, 0.50),
		LatP90Ms:   metrics.Percentile(all, 0.90),
		LatP99Ms:   metrics.Percentile(all, 0.99),
	}
}

// servingRows measures the deployable node surface: the HTTP JSON-RPC
// read path under 1/8/64 concurrent clients (sereth_view is the
// READ-UNCOMMITTED product; eth_blockNumber bounds the transport
// floor), then the restart-recovery and snapshot-bootstrap paths that
// bring a node back (or a fresh peer up) without replaying history.
func servingRows() []Record {
	fatal := func(stage string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "serethbench: serving %s: %v\n", stage, err)
			os.Exit(1)
		}
	}
	var out []Record

	n, _, err := servingNode(nil)
	fatal("fixture", err)
	srv := httptest.NewServer(rpc.NewServer(n, servingContract))
	methods := []struct {
		name string
		call func(*rpc.Client) error
	}{
		{"sereth_view", func(c *rpc.Client) error { _, err := c.View(); return err }},
		{"eth_blockNumber", func(c *rpc.Client) error { _, err := c.BlockNumber(); return err }},
	}
	for _, m := range methods {
		for _, clients := range []int{1, 8, 64} {
			out = append(out, measureServing(srv.URL, m.name, clients, m.call))
		}
	}
	srv.Close()

	// Store-backed twin: its datadir feeds the recovery row, its fully
	// executed state feeds the snapshot row.
	dir, err := os.MkdirTemp("", "serethbench-datadir")
	fatal("datadir", err)
	defer func() { _ = os.RemoveAll(dir) }()
	kv, err := store.OpenFile(dir)
	fatal("store", err)
	stored, chainCfg, err := servingNode(kv)
	fatal("store-backed fixture", err)
	var snap bytes.Buffer
	fatal("snapshot export", stored.WriteSnapshot(&snap))

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := chain.Open(chainCfg, kv)
			if err != nil {
				b.Fatal(err)
			}
			if c.Height() != servingBlocks {
				b.Fatalf("recovered height %d", c.Height())
			}
		}
	})
	out = append(out, benchRecord(fmt.Sprintf("serving/restart-recovery-%dblocks", servingBlocks), res))

	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := chain.OpenSnapshot(chainCfg, bytes.NewReader(snap.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if c.Height() != servingBlocks {
				b.Fatalf("bootstrapped height %d", c.Height())
			}
		}
	})
	out = append(out, benchRecord("serving/snapshot-bootstrap", res))
	return out
}

func viewFromScratch() Record {
	pool, _, _ := scenarios.ChainPool(1000)
	tracker := scenarios.NewTracker()
	snapshot, _ := pool.Snapshot()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if view := tracker.ViewOf(snapshot); view.Depth != 1000 {
				b.Fatalf("depth = %d", view.Depth)
			}
		}
	})
	return benchRecord("view-latency/fromscratch-1k", res)
}
