package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"sereth/internal/metrics"
)

// Shape overrides a sweep's population and network geometry — the
// -peers/-clients/-topology knobs of serethsim. Zero fields leave the
// scenario's own configuration untouched.
type Shape struct {
	SemanticMiners int
	BaselineMiners int
	Clients        int
	Topology       string
	Degree         int
	// LazyClients switches the client peers to lazy validation
	// (serethsim -lazy-clients): required for 1000-peer sweeps.
	LazyClients bool
	// RPCClients publishes client peers behind real HTTP JSON-RPC
	// endpoints (serethsim -rpc-clients). η is bit-identical either
	// way; the flag exists to exercise the serving tier across sweeps.
	RPCClients bool
	// Persist backs every node's chain with an in-memory store
	// (serethsim -persist), flushing state and blocks write-through at
	// each adoption. η is bit-identical either way.
	Persist bool
}

// Apply returns cfg with the non-zero shape fields overridden.
func (sh Shape) Apply(cfg ScenarioConfig) ScenarioConfig {
	if sh.SemanticMiners > 0 {
		cfg.SemanticMiners = sh.SemanticMiners
	}
	if sh.BaselineMiners > 0 {
		cfg.BaselineMiners = sh.BaselineMiners
	}
	if sh.Clients > 0 {
		cfg.Clients = sh.Clients
	}
	if sh.Topology != "" {
		cfg.Topology = sh.Topology
	}
	if sh.Degree > 0 {
		cfg.Degree = sh.Degree
	}
	if sh.LazyClients {
		cfg.LazyClients = true
	}
	if sh.RPCClients {
		cfg.RPCClients = true
	}
	if sh.Persist {
		cfg.Persist = true
	}
	return cfg
}

// shapeOf folds an optional trailing Shape argument.
func shapeOf(shape []Shape) Shape {
	if len(shape) == 0 {
		return Shape{}
	}
	return shape[0]
}

// runSeeds executes one run per seed on a bounded worker pool. Seeded
// runs are independent and fully deterministic, so parallelism changes
// wall time only — results come back in seed order and every aggregate
// is identical to the sequential sweep. The first error wins.
func runSeeds(seeds []int64, mk func(seed int64) ScenarioConfig) ([]Result, error) {
	results := make([]Result, len(seeds))
	errs := make([]error, len(seeds))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(seeds) {
		workers = len(seeds)
	}
	if workers <= 1 {
		for i, seed := range seeds {
			results[i], errs[i] = Run(mk(seed))
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					results[i], errs[i] = Run(mk(seeds[i]))
				}
			}()
		}
		for i := range seeds {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seeds[i], err)
		}
	}
	return results, nil
}

// SweepPoint is one (scenario, ratio) cell of an experiment sweep,
// aggregated over seeds.
type SweepPoint struct {
	Scenario string
	Sets     int
	Ratio    float64 // buys per set
	Eta      metrics.Summary
	StateTps metrics.Summary
}

// Figure2Scenarios are the three lines of the paper's Figure 2.
var Figure2Scenarios = []struct {
	Name string
	Make func(sets int, seed int64) ScenarioConfig
}{
	{"geth_unmodified", GethUnmodified},
	{"sereth_client", SerethClient},
	{"semantic_mining", SemanticMining},
}

// Figure2SetCounts are the set counts of the paper's sweep: 100 buys
// against 100 down to 5 sets (ratios 1:1 to 20:1).
var Figure2SetCounts = []int{100, 50, 33, 25, 20, 10, 6, 5}

// RunFigure2 sweeps the three scenarios over the given set counts and
// seeds, returning one point per (scenario, sets). Seeds within a cell
// run in parallel. A nil progress callback is allowed; an optional
// Shape reconfigures the peer population.
func RunFigure2(setCounts []int, seeds []int64, progress func(string), shape ...Shape) ([]SweepPoint, error) {
	sh := shapeOf(shape)
	var points []SweepPoint
	for _, sets := range setCounts {
		for _, sc := range Figure2Scenarios {
			sets, mk := sets, sc.Make
			results, err := runSeeds(seeds, func(seed int64) ScenarioConfig {
				return sh.Apply(mk(sets, seed))
			})
			if err != nil {
				return nil, fmt.Errorf("%s sets=%d: %w", sc.Name, sets, err)
			}
			var etas, tps []float64
			for _, res := range results {
				etas = append(etas, res.Efficiency())
				tps = append(tps, res.StateTps())
			}
			p := SweepPoint{
				Scenario: sc.Name,
				Sets:     sets,
				Ratio:    float64(100) / float64(sets),
				Eta:      metrics.Summarize(etas),
				StateTps: metrics.Summarize(tps),
			}
			points = append(points, p)
			if progress != nil {
				progress(fmt.Sprintf("%-16s sets=%3d ratio=%5.1f  η=%.3f ±%.3f",
					p.Scenario, p.Sets, p.Ratio, p.Eta.Mean, p.Eta.CI90))
			}
		}
	}
	return points, nil
}

// FormatSweep renders sweep points as an aligned table, grouped by
// scenario and ordered by ratio — the textual form of Figure 2.
func FormatSweep(points []SweepPoint) string {
	byScenario := make(map[string][]SweepPoint)
	var order []string
	for _, p := range points {
		if _, ok := byScenario[p.Scenario]; !ok {
			order = append(order, p.Scenario)
		}
		byScenario[p.Scenario] = append(byScenario[p.Scenario], p)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %6s %10s %10s %12s\n",
		"scenario", "ratio", "sets", "eta_mean", "eta_ci90", "state_tps")
	for _, name := range order {
		ps := byScenario[name]
		sort.Slice(ps, func(i, j int) bool { return ps[i].Ratio < ps[j].Ratio })
		for _, p := range ps {
			fmt.Fprintf(&b, "%-18s %7.1f:1 %6d %10.4f %10.4f %12.4f\n",
				p.Scenario, p.Ratio, p.Sets, p.Eta.Mean, p.Eta.CI90, p.StateTps.Mean)
		}
	}
	return b.String()
}

// SequentialHistoryConfig is the §V single-sender check configuration:
// with one address, real-time order = nonce order = block order, so η
// must be exactly 1. A plain geth client suffices — no remote views are
// needed when the sender knows its own history.
func SequentialHistoryConfig(seed int64) ScenarioConfig {
	cfg := Defaults()
	cfg.Name = "sequential_history"
	cfg.Seed = seed
	cfg.Sets = 20
	cfg.SingleSender = true
	return cfg
}

// SequentialHistory runs the §V single-sender check.
func SequentialHistory(seed int64) (Result, error) {
	return Run(SequentialHistoryConfig(seed))
}

// ParticipationPoint is one cell of the miner-participation ablation.
type ParticipationPoint struct {
	Fraction float64
	Eta      metrics.Summary
}

// RunParticipation sweeps the fraction of semantic miners (§V-C: "if
// only a fraction of the miners were assisting... there would still be
// benefits proportional to the participation").
func RunParticipation(fractions []float64, seeds []int64, sets int, shape ...Shape) ([]ParticipationPoint, error) {
	sh := shapeOf(shape)
	var out []ParticipationPoint
	for _, f := range fractions {
		f := f
		results, err := runSeeds(seeds, func(seed int64) ScenarioConfig {
			cfg := SemanticMining(sets, seed)
			cfg.Name = fmt.Sprintf("participation_%.2f", f)
			cfg.SemanticFraction = f
			return sh.Apply(cfg)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ParticipationPoint{Fraction: f, Eta: summarizeEtas(results)})
	}
	return out, nil
}

// GossipPoint is one cell of the TxPool-propagation ablation.
type GossipPoint struct {
	LatencyMs uint64
	Eta       metrics.Summary
}

// RunGossip sweeps the gossip latency for the sereth_client scenario
// (§V-C: "if communication of the TxPool were impeded among the Sereth
// enabled peers... performance would be degraded").
func RunGossip(latenciesMs []uint64, seeds []int64, sets int, shape ...Shape) ([]GossipPoint, error) {
	sh := shapeOf(shape)
	var out []GossipPoint
	for _, lat := range latenciesMs {
		lat := lat
		results, err := runSeeds(seeds, func(seed int64) ScenarioConfig {
			cfg := SerethClient(sets, seed)
			cfg.Name = fmt.Sprintf("gossip_%dms", lat)
			cfg.GossipLatencyMs = lat
			return sh.Apply(cfg)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, GossipPoint{LatencyMs: lat, Eta: summarizeEtas(results)})
	}
	return out, nil
}

// IntervalPoint is one cell of the submit-interval sensitivity ablation.
type IntervalPoint struct {
	IntervalMs uint64
	Eta        metrics.Summary
}

// RunInterval sweeps the submission interval at a high buy:set ratio
// (§V-A: "with few state changes transaction efficiency becomes more
// sensitive to the transaction interval").
func RunInterval(intervalsMs []uint64, seeds []int64, sets int, shape ...Shape) ([]IntervalPoint, error) {
	sh := shapeOf(shape)
	var out []IntervalPoint
	for _, iv := range intervalsMs {
		iv := iv
		results, err := runSeeds(seeds, func(seed int64) ScenarioConfig {
			cfg := GethUnmodified(sets, seed)
			cfg.Name = fmt.Sprintf("interval_%dms", iv)
			cfg.SubmitIntervalMs = iv
			return sh.Apply(cfg)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, IntervalPoint{IntervalMs: iv, Eta: summarizeEtas(results)})
	}
	return out, nil
}

// ExtendHeadsPoint is one cell of the orphan-recovery ablation.
type ExtendHeadsPoint struct {
	Extended bool
	Eta      metrics.Summary
}

// RunExtendHeads compares semantic mining with and without the HMS
// head-extension that recovers post-publish orphans (the paper's
// "efficiency could approach 100 percent if HMS were extended", §V-C).
func RunExtendHeads(seeds []int64, sets int, shape ...Shape) ([]ExtendHeadsPoint, error) {
	sh := shapeOf(shape)
	var out []ExtendHeadsPoint
	for _, ext := range []bool{false, true} {
		ext := ext
		results, err := runSeeds(seeds, func(seed int64) ScenarioConfig {
			cfg := SemanticMining(sets, seed)
			cfg.Name = fmt.Sprintf("extendheads_%v", ext)
			cfg.ExtendHeads = ext
			return sh.Apply(cfg)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ExtendHeadsPoint{Extended: ext, Eta: summarizeEtas(results)})
	}
	return out, nil
}

// OverloadPoint is one cell of the sustained-overload sweep.
type OverloadPoint struct {
	IntervalMs uint64
	Eta        metrics.Summary
	// LostFrac is the share of attempted buys that never made it into
	// a block: refused by the client's full pool, displaced by
	// eviction, or still pending when the drain window closed.
	LostFrac  metrics.Summary
	Evictions metrics.Summary
}

// RunOverload sweeps the submission interval below block capacity with
// bounded evict-lowest mempools: the mempool-eviction scenario family
// (arrival rate > block capacity, sustained).
func RunOverload(intervalsMs []uint64, seeds []int64, shape ...Shape) ([]OverloadPoint, error) {
	sh := shapeOf(shape)
	var out []OverloadPoint
	for _, iv := range intervalsMs {
		iv := iv
		results, err := runSeeds(seeds, func(seed int64) ScenarioConfig {
			cfg := Overload(seed)
			cfg.Name = fmt.Sprintf("overload_%dms", iv)
			cfg.SubmitIntervalMs = iv
			return sh.Apply(cfg)
		})
		if err != nil {
			return nil, err
		}
		var etas, lost, evictions []float64
		for _, res := range results {
			etas = append(etas, res.Efficiency())
			attempted := res.BuysSubmitted + res.BuysDropped
			if attempted > 0 {
				lost = append(lost, float64(attempted-res.BuysIncluded)/float64(attempted))
			}
			evictions = append(evictions, float64(res.Evicted))
		}
		out = append(out, OverloadPoint{
			IntervalMs: iv,
			Eta:        metrics.Summarize(etas),
			LostFrac:   metrics.Summarize(lost),
			Evictions:  metrics.Summarize(evictions),
		})
	}
	return out, nil
}

// BurstPoint is one cell of the burst-submission sweep.
type BurstPoint struct {
	BurstSize int
	Eta       metrics.Summary
	// Msgs is the network delivery count per run: the direct readout of
	// what batched envelopes save over per-tx gossip.
	Msgs metrics.Summary
}

// RunBurst sweeps the submission burst size for the batched-gossip
// scenario family. Size 1 is the per-tx baseline (identical schedule to
// sereth_client); larger bursts trade view freshness within a burst
// window for one shared admission batch and gossip envelope per client
// per burst.
func RunBurst(burstSizes []int, seeds []int64, shape ...Shape) ([]BurstPoint, error) {
	sh := shapeOf(shape)
	var out []BurstPoint
	for _, size := range burstSizes {
		size := size
		results, err := runSeeds(seeds, func(seed int64) ScenarioConfig {
			cfg := Burst(seed)
			cfg.Name = fmt.Sprintf("burst_%d", size)
			cfg.BurstSize = size
			return sh.Apply(cfg)
		})
		if err != nil {
			return nil, err
		}
		var msgs []float64
		for _, res := range results {
			msgs = append(msgs, float64(res.MsgsSent))
		}
		out = append(out, BurstPoint{
			BurstSize: size,
			Eta:       summarizeEtas(results),
			Msgs:      metrics.Summarize(msgs),
		})
	}
	return out, nil
}

func summarizeEtas(results []Result) metrics.Summary {
	etas := make([]float64, 0, len(results))
	for _, res := range results {
		etas = append(etas, res.Efficiency())
	}
	return metrics.Summarize(etas)
}

// DefaultSeeds returns n deterministic experiment seeds.
func DefaultSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i+1) * 101
	}
	return seeds
}
