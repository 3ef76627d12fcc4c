// Package scenarios holds the named workloads and fixtures that several
// packages measure or pin: the η scenario tables (the 22 golden
// Figure-2/ablation rows and the 50-peer scale rows), the 1000-tx
// chained view fixture, the state-commitment and block-replay fixtures,
// and the §V-B front-running demonstration. The root benchmarks
// (bench_test.go), this package's golden and elision tests and
// examples/frontrunning read the same definitions, so an η or a fixture
// cannot drift between them.
package scenarios

import (
	"fmt"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/p2p"
	"sereth/internal/sim"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// NopPeer is a p2p.Handler that absorbs every delivery — the shared
// sink of the gossip benchmarks.
type NopPeer struct{}

// HandleTx implements p2p.Handler.
func (NopPeer) HandleTx(p2p.PeerID, *types.Transaction) {}

// HandleBlock implements p2p.Handler.
func (NopPeer) HandleBlock(p2p.PeerID, *types.Block) {}

// HandleBlockRequest implements p2p.Handler.
func (NopPeer) HandleBlockRequest(p2p.PeerID, uint64) {}

// EtaSeed is the fixed seed of the η benchmark rows: it matches the
// root bench harness at -benchtime 1x (seed (i+1)*101 with i = 0).
const EtaSeed = 101

// Eta is one named η scenario of the benchmark table.
type Eta struct {
	Name string
	Make func(seed int64) sim.ScenarioConfig
}

// EtaTable returns the full η scenario table: the nine Figure-2 cells,
// the sequential-history check and the four §V-C/§V-A ablation sweeps —
// the 22 scenarios whose η values must stay bit-identical across pure
// performance work.
func EtaTable() []Eta {
	var out []Eta
	for _, sc := range []struct {
		name string
		mk   func(int, int64) sim.ScenarioConfig
	}{
		{"figure2/geth", sim.GethUnmodified},
		{"figure2/sereth", sim.SerethClient},
		{"figure2/semantic", sim.SemanticMining},
	} {
		for _, sets := range []int{100, 20, 5} {
			sets, mk := sets, sc.mk
			out = append(out, Eta{
				Name: fmt.Sprintf("%s/sets-%d", sc.name, sets),
				Make: func(seed int64) sim.ScenarioConfig { return mk(sets, seed) },
			})
		}
	}
	out = append(out, Eta{
		Name: "sequential-history",
		Make: func(_ int64) sim.ScenarioConfig { return sim.SequentialHistoryConfig(1) },
	})
	for _, fraction := range []float64{0, 0.5, 1} {
		fraction := fraction
		out = append(out, Eta{
			Name: fmt.Sprintf("ablation/participation/fraction-%d", int(fraction*100)),
			Make: func(seed int64) sim.ScenarioConfig {
				cfg := sim.SemanticMining(20, seed)
				cfg.SemanticFraction = fraction
				return cfg
			},
		})
	}
	for _, latency := range []uint64{50, 1000, 5000, 15000} {
		latency := latency
		out = append(out, Eta{
			Name: fmt.Sprintf("ablation/gossip/latency-%dms", latency),
			Make: func(seed int64) sim.ScenarioConfig {
				cfg := sim.SerethClient(20, seed)
				cfg.GossipLatencyMs = latency
				return cfg
			},
		})
	}
	for _, interval := range []uint64{500, 1000, 2000} {
		interval := interval
		out = append(out, Eta{
			Name: fmt.Sprintf("ablation/interval/interval-%dms", interval),
			Make: func(seed int64) sim.ScenarioConfig {
				cfg := sim.GethUnmodified(5, seed)
				cfg.SubmitIntervalMs = interval
				return cfg
			},
		})
	}
	for _, ext := range []bool{false, true} {
		ext := ext
		name := "ablation/extendheads/baseline"
		if ext {
			name = "ablation/extendheads/extended"
		}
		out = append(out, Eta{
			Name: name,
			Make: func(seed int64) sim.ScenarioConfig {
				cfg := sim.SemanticMining(50, seed)
				cfg.ExtendHeads = ext
				return cfg
			},
		})
	}
	return out
}

// ScaleTable returns the population-scale benchmark rows of the
// network engine: a 50-peer full-mesh figure2 cell plus sparse-topology
// variants at the same population.
func ScaleTable() []Eta {
	shapes := []struct {
		name  string
		shape sim.Shape
	}{
		{"scale/figure2-sereth/peers-50-mesh", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2}},
		{"scale/figure2-sereth/peers-50-ring", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2, Topology: "ring"}},
		{"scale/figure2-sereth/peers-50-dregular6", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2, Topology: "dregular", Degree: 6}},
		// Lazy clients must not move η: this row pins bit-equality with
		// the eager peers-50-mesh cell while recording the wall-time win.
		{"scale/figure2-sereth/peers-50-mesh-lazy", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2, LazyClients: true}},
	}
	var out []Eta
	for _, sc := range shapes {
		shape := sc.shape
		out = append(out, Eta{
			Name: sc.name,
			Make: func(seed int64) sim.ScenarioConfig {
				return shape.Apply(sim.SerethClient(20, seed))
			},
		})
	}
	return out
}

// BenchContract is the conventional Sereth contract address used by the
// view fixtures.
var BenchContract = types.Address{19: 0xcc}

// NewTracker returns a standalone HMS tracker bound to BenchContract.
func NewTracker() *hms.Tracker {
	return hms.NewTracker(hms.Config{
		Contract:    BenchContract,
		SetSelector: types.SelectorFor("set(bytes32[3])"),
		BuySelector: types.SelectorFor("buy(bytes32[3])"),
	})
}

// StateFixture builds the shared state-commitment fixture: a world state
// shaped like n applied transactions — n funded EOAs with bumped nonces
// plus the bench contract holding n storage words. It returns the state
// and the EOA addresses (churn targets for the incremental-root rows).
func StateFixture(n int) (*statedb.StateDB, []types.Address) {
	st := statedb.New()
	addrs := make([]types.Address, n)
	for i := 0; i < n; i++ {
		var a types.Address
		a[0] = 0xaa
		a[18] = byte(i >> 8)
		a[19] = byte(i)
		st.SetNonce(a, uint64(i%7+1))
		st.AddBalance(a, uint64(1000+i))
		addrs[i] = a
	}
	st.SetCode(BenchContract, asm.SerethContract())
	for i := 0; i < n; i++ {
		st.SetState(BenchContract, types.WordFromUint64(uint64(i)), types.WordFromUint64(uint64(i+1)))
	}
	return st, addrs
}

// ReplayFixture is the shared block-validation workload: a sealed block
// of chained set transactions on a contract genesis, plus everything a
// consumer needs to spin up fresh validator chains against it.
type ReplayFixture struct {
	Registry *wallet.Registry
	Owner    *wallet.Key // the single signing key behind every body tx
	Genesis  *statedb.StateDB
	Block    *types.Block
	gasLimit uint64
}

// NewReplayFixture builds the n-transaction replay fixture.
func NewReplayFixture(n int) *ReplayFixture {
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("replay-owner")
	reg.Register(owner)
	genesis := statedb.New()
	genesis.SetCode(BenchContract, asm.SerethContract())
	gasLimit := uint64(n+1) * 300_000
	c := chain.New(chain.Config{GasLimit: gasLimit, Registry: reg}, genesis)

	selSet := types.SelectorFor("set(bytes32[3])")
	txs := make([]*types.Transaction, n)
	prev := types.Word{}
	flag := types.FlagHead
	for i := range txs {
		v := types.WordFromUint64(uint64(i + 10))
		// Memoized like the real import path: a mined block's body holds
		// the pool's frozen instances, so importers verify cached
		// identity/signature digests instead of re-deriving them.
		txs[i] = owner.SignTx(&types.Transaction{
			Nonce:    uint64(i),
			To:       BenchContract,
			GasPrice: 10,
			GasLimit: 300_000,
			Data:     types.EncodeCall(selSet, flag, prev, v),
		}).Memoize()
		prev = types.NextMark(prev, v)
		flag = types.FlagChain
	}
	head := c.Head()
	header := &types.Header{
		ParentHash: head.Hash(),
		Number:     1,
		GasLimit:   gasLimit,
		Time:       15,
	}
	res, err := c.Process(c.State(), header, txs)
	if err != nil {
		panic(fmt.Sprintf("scenarios: replay fixture: %v", err))
	}
	// Like the miner, derive the tx root through the shared block so
	// every importing consumer reuses the memoized value; the state and
	// receipt roots come memoized from the processor.
	block := &types.Block{Header: header, Txs: txs}
	header.TxRoot = block.TxRoot()
	header.ReceiptRoot = res.ReceiptRoot
	header.StateRoot = res.StateRoot
	header.GasUsed = res.GasUsed
	return &ReplayFixture{
		Registry: reg,
		Owner:    owner,
		Genesis:  genesis,
		Block:    block,
		gasLimit: gasLimit,
	}
}

// NewChainWithRegistry is NewChain against a different signature
// registry. The elision tests use it with a cold registry (same Owner
// key, fresh Registry instance) to measure un-cached verification —
// the pre-elision baseline a replay's hash count is pinned against.
func (f *ReplayFixture) NewChainWithRegistry(reg *wallet.Registry) *chain.Chain {
	return chain.New(chain.Config{GasLimit: f.gasLimit, Registry: reg}, f.Genesis)
}

// NewChain returns a fresh validator chain at the fixture's genesis,
// optionally joined to a shared validated-execution cache.
func (f *ReplayFixture) NewChain(cache *chain.ExecCache) *chain.Chain {
	return chain.New(chain.Config{GasLimit: f.gasLimit, Registry: f.Registry, ExecCache: cache}, f.Genesis)
}

// ChainPool builds the shared view-latency fixture: an n-transaction
// chained set series admitted through a real pool with an attached
// incremental tracker. It returns the pool, the tracker and the tail
// transaction of the chain.
func ChainPool(n int) (*txpool.Pool, *hms.Tracker, *types.Transaction) {
	pool := txpool.New()
	tracker := NewTracker()
	tracker.Attach(pool)
	selSet := types.SelectorFor("set(bytes32[3])")
	prev := types.Word{}
	var tail *types.Transaction
	for i := 0; i < n; i++ {
		v := types.WordFromUint64(uint64(i + 1))
		flag := types.FlagChain
		if i == 0 {
			flag = types.FlagHead
		}
		tail = &types.Transaction{
			Nonce: uint64(i), To: BenchContract, GasLimit: 1,
			Data: types.EncodeCall(selSet, flag, prev, v),
		}
		if err := pool.Add(tail); err != nil {
			panic(err)
		}
		prev = types.NextMark(prev, v)
	}
	return pool, tracker, tail
}
