// Command serethsim regenerates the paper's experiments on the simulated
// network: the Figure-2 sweep (transaction efficiency vs buy:set ratio
// for the three client/miner configurations), the sequential-history
// sanity check, the ablations catalogued in DESIGN.md §3, and the
// sustained-overload mempool-eviction family, and the burst-submission
// family (buys shipped through the batched admission + gossip
// pipeline), the chaos fault-injection family (churn, partitions,
// lossy links, and adversarial actors, each measured against an honest
// twin at the same seeds), and the crash-consistency family (persisting
// peers hard-killed mid-commit that must salvage their log, reopen on a
// durable head, and catch up). The -peers/-clients/-topology/-degree flags
// rescale every experiment from the paper's 3-peer rig to an N-peer
// population over an arbitrary gossip graph.
//
// Usage:
//
//	serethsim -experiment figure2 -runs 10
//	serethsim -experiment figure2 -peers 50 -clients 2 -topology dregular -degree 6
//	serethsim -experiment chaos -churn -partition -runs 3
//	serethsim -experiment all
package main

import (
	"flag"
	"fmt"
	"os"

	"sereth/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serethsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("serethsim", flag.ContinueOnError)
	experiment := fs.String("experiment", "figure2",
		"one of: figure2, sequential, participation, gossip, interval, extendheads, overload, burst, chaos, crash, all")
	runs := fs.Int("runs", 10, "seeded runs per data point")
	quick := fs.Bool("quick", false, "smaller sweep for a fast check")
	peers := fs.Int("peers", 0, "total peer count (miners + clients); 0 keeps the paper's 3-peer rig")
	clients := fs.Int("clients", 1, "non-mining client peers (used when -peers is set)")
	topology := fs.String("topology", "", "gossip topology: mesh (default), ring, dregular")
	degree := fs.Int("degree", 0, "neighbor degree for -topology dregular")
	lazyClients := fs.Bool("lazy-clients", false,
		"client peers adopt shared validated executions without re-verification (large -peers sweeps)")
	rpcClients := fs.Bool("rpc-clients", false,
		"clients reach their peers over real HTTP JSON-RPC (sereth_view / eth_sendRawTransaction); η is bit-identical to in-process clients")
	persist := fs.Bool("persist", false,
		"back every node's chain with a write-through store, flushing state and blocks at each adoption; η is bit-identical either way")
	churn := fs.Bool("churn", false, "chaos: include the churn variant (flags combine; none selected = every variant)")
	partition := fs.Bool("partition", false, "chaos: include the partition variant")
	loss := fs.Bool("loss", false, "chaos: include the lossy-links variant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var chaosNames []string
	if *churn {
		chaosNames = append(chaosNames, "chaos_churn")
	}
	if *partition {
		chaosNames = append(chaosNames, "chaos_partition")
	}
	if *loss {
		chaosNames = append(chaosNames, "chaos_loss")
	}
	seeds := sim.DefaultSeeds(*runs)
	shape, err := shapeFromFlags(*peers, *clients, *topology, *degree)
	if err != nil {
		return err
	}
	shape.LazyClients = *lazyClients
	shape.RPCClients = *rpcClients
	shape.Persist = *persist

	experiments := map[string]func(sim.Shape, []int64, bool) error{
		"figure2":       runFigure2,
		"sequential":    runSequential,
		"participation": runParticipation,
		"gossip":        runGossip,
		"interval":      runInterval,
		"extendheads":   runExtendHeads,
		"overload":      runOverload,
		"burst":         runBurst,
		"chaos": func(shape sim.Shape, seeds []int64, quick bool) error {
			return runChaos(shape, seeds, quick, chaosNames)
		},
		"crash": runCrash,
	}
	if *experiment == "all" {
		for _, name := range []string{"figure2", "sequential", "participation", "gossip", "interval", "extendheads", "overload", "burst", "chaos", "crash"} {
			fmt.Printf("\n=== %s ===\n", name)
			if err := experiments[name](shape, seeds, *quick); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := experiments[*experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return fn(shape, seeds, *quick)
}

// shapeFromFlags maps -peers/-clients/-topology/-degree onto a
// population Shape: the mining peers split evenly between semantic and
// baseline miners (semantic gets the odd one), so SemanticFraction
// keeps selecting the producer kind per block.
func shapeFromFlags(peers, clients int, topology string, degree int) (sim.Shape, error) {
	sh := sim.Shape{Topology: topology, Degree: degree}
	if peers == 0 {
		return sh, nil
	}
	if clients <= 0 {
		clients = 1
	}
	miners := peers - clients
	if miners < 2 {
		return sim.Shape{}, fmt.Errorf("-peers %d with %d clients leaves %d miners; the sweeps need at least 2 (1 semantic + 1 baseline)",
			peers, clients, miners)
	}
	sh.SemanticMiners = (miners + 1) / 2
	sh.BaselineMiners = miners / 2
	sh.Clients = clients
	return sh, nil
}

func runFigure2(shape sim.Shape, seeds []int64, quick bool) error {
	setCounts := sim.Figure2SetCounts
	if quick {
		setCounts = []int{50, 10}
	}
	points, err := sim.RunFigure2(setCounts, seeds, func(line string) {
		fmt.Println(line)
	}, shape)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(sim.FormatSweep(points))
	printFigure2Summary(points)
	return nil
}

// printFigure2Summary reports the paper's headline claims against the
// measured sweep.
func printFigure2Summary(points []sim.SweepPoint) {
	byKey := map[string]map[int]float64{}
	for _, p := range points {
		if byKey[p.Scenario] == nil {
			byKey[p.Scenario] = map[int]float64{}
		}
		byKey[p.Scenario][p.Sets] = p.Eta.Mean
	}
	var ratios []float64
	var count int
	for sets, geth := range byKey["geth_unmodified"] {
		if sereth, ok := byKey["sereth_client"][sets]; ok && geth > 0 {
			ratios = append(ratios, sereth/geth)
			count++
		}
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	if count > 0 {
		fmt.Printf("\nsereth_client / geth_unmodified mean improvement: %.1fx over %d ratios (paper: ~5x)\n",
			sum/float64(count), count)
	}
	var semSum float64
	var semN int
	for _, eta := range byKey["semantic_mining"] {
		semSum += eta
		semN++
	}
	if semN > 0 {
		fmt.Printf("semantic_mining mean efficiency: %.0f%% (paper: ~80%%)\n", 100*semSum/float64(semN))
	}
}

func runSequential(shape sim.Shape, seeds []int64, _ bool) error {
	for _, seed := range seeds {
		res, err := sim.Run(shape.Apply(sim.SequentialHistoryConfig(seed)))
		if err != nil {
			return err
		}
		fmt.Printf("seed=%-6d buys η=%.3f sets η=%.3f (paper: exactly 1.0)\n",
			seed, res.Efficiency(), res.SetEfficiency())
	}
	return nil
}

func runParticipation(shape sim.Shape, seeds []int64, quick bool) error {
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	if quick {
		fractions = []float64{0, 1}
	}
	points, err := sim.RunParticipation(fractions, seeds, 20, shape)
	if err != nil {
		return err
	}
	fmt.Println("semantic-miner fraction vs η (paper §V-C: benefits proportional to participation)")
	for _, p := range points {
		fmt.Printf("fraction=%.2f  η=%.3f ±%.3f\n", p.Fraction, p.Eta.Mean, p.Eta.CI90)
	}
	return nil
}

func runGossip(shape sim.Shape, seeds []int64, quick bool) error {
	latencies := []uint64{50, 250, 1000, 5000, 15000}
	if quick {
		latencies = []uint64{50, 5000}
	}
	points, err := sim.RunGossip(latencies, seeds, 20, shape)
	if err != nil {
		return err
	}
	fmt.Println("gossip latency vs sereth_client η (paper §V-C: impeded TxPool propagation degrades)")
	for _, p := range points {
		fmt.Printf("latency=%-6dms  η=%.3f ±%.3f\n", p.LatencyMs, p.Eta.Mean, p.Eta.CI90)
	}
	return nil
}

func runInterval(shape sim.Shape, seeds []int64, quick bool) error {
	intervals := []uint64{250, 500, 1000, 2000}
	if quick {
		intervals = []uint64{500, 2000}
	}
	points, err := sim.RunInterval(intervals, seeds, 5, shape)
	if err != nil {
		return err
	}
	fmt.Println("submit interval vs geth η at 20:1 (paper §V-A: high ratios sensitive to interval)")
	for _, p := range points {
		fmt.Printf("interval=%-5dms  η=%.3f ±%.3f\n", p.IntervalMs, p.Eta.Mean, p.Eta.CI90)
	}
	return nil
}

func runExtendHeads(shape sim.Shape, seeds []int64, _ bool) error {
	points, err := sim.RunExtendHeads(seeds, 50, shape)
	if err != nil {
		return err
	}
	fmt.Println("HMS head extension vs η (paper §V-C: extension could approach 100%)")
	for _, p := range points {
		fmt.Printf("extended=%-5v  η=%.3f ±%.3f\n", p.Extended, p.Eta.Mean, p.Eta.CI90)
	}
	return nil
}

func runBurst(shape sim.Shape, seeds []int64, quick bool) error {
	sizes := []int{1, 5, 10, 25}
	if quick {
		sizes = []int{1, 10}
	}
	points, err := sim.RunBurst(sizes, seeds, shape)
	if err != nil {
		return err
	}
	fmt.Println("burst submission: batched admission + ONE gossip envelope per client per burst")
	for _, p := range points {
		fmt.Printf("burst=%-3d  η=%.3f ±%.3f  msgs/run=%.0f\n",
			p.BurstSize, p.Eta.Mean, p.Eta.CI90, p.Msgs.Mean)
	}
	return nil
}

func runChaos(shape sim.Shape, seeds []int64, quick bool, names []string) error {
	if quick {
		if len(seeds) > 2 {
			seeds = seeds[:2]
		}
		if len(names) == 0 {
			names = []string{"chaos_churn", "chaos_partition", "chaos_loss"}
		}
	}
	points, err := sim.RunChaos(names, seeds, func(line string) {
		fmt.Println(line)
	}, shape)
	if err != nil {
		return err
	}
	fmt.Println("\nchaos family: η under faults vs the honest twin (same seeds, faults disabled)")
	for _, p := range points {
		fmt.Printf("%-16s η=%.3f ±%.3f  honest=%.3f  drop=%+.3f  orphaned=%.1f  censored=%.1f  converged=%v\n",
			p.Variant, p.Eta.Mean, p.Eta.CI90, p.HonestEta.Mean, p.EtaDrop,
			p.Orphaned.Mean, p.Censored.Mean, p.Converged)
		if p.Rejoins > 0 {
			fmt.Printf("%-16s rejoins=%d  resync p50=%.0fms p90=%.0fms  incomplete=%d\n",
				"", p.Rejoins, p.ResyncP50Ms, p.ResyncP90Ms, p.ResyncIncomplete)
		}
		if p.AttackSent > 0 || p.ForgedAccepted > 0 {
			fmt.Printf("%-16s attack txs sent=%d included=%d succeeded=%d  forged blocks accepted=%d\n",
				"", p.AttackSent, p.AttackIncluded, p.AttackSucceeded, p.ForgedAccepted)
		}
	}
	return nil
}

func runCrash(shape sim.Shape, seeds []int64, quick bool) error {
	var names []string
	if quick {
		if len(seeds) > 2 {
			seeds = seeds[:2]
		}
		names = []string{"crash_single", "crash_sync1"}
	}
	points, err := sim.RunCrash(names, seeds, func(line string) {
		fmt.Println(line)
	}, shape)
	if err != nil {
		return err
	}
	fmt.Println("\ncrash family: hard kills mid-commit, salvage + reopen + gossip catch-up, vs the honest twin")
	for _, p := range points {
		fmt.Printf("%-18s η=%.3f ±%.3f  honest=%.3f  drop=%+.3f  crashes=%d  recovered-from-disk=%d  converged=%v\n",
			p.Variant, p.Eta.Mean, p.Eta.CI90, p.HonestEta.Mean, p.EtaDrop,
			p.Crashes, p.Recovered, p.Converged)
		fmt.Printf("%-18s recovery p50=%.0fms p90=%.0fms  salvage: torn=%dB quarantined=%d corrected=%d\n",
			"", p.RecoveryP50Ms, p.RecoveryP90Ms,
			p.SalvageTornBytes, p.SalvageQuarantined, p.SalvageCorrected)
	}
	return nil
}

func runOverload(shape sim.Shape, seeds []int64, quick bool) error {
	intervals := []uint64{1000, 500, 250, 125}
	if quick {
		intervals = []uint64{500, 250}
	}
	points, err := sim.RunOverload(intervals, seeds, shape)
	if err != nil {
		return err
	}
	fmt.Println("sustained overload: arrival interval vs η with bounded evict-lowest mempools")
	for _, p := range points {
		fmt.Printf("interval=%-5dms  η=%.3f ±%.3f  lost=%.1f%%  evictions=%.0f\n",
			p.IntervalMs, p.Eta.Mean, p.Eta.CI90, 100*p.LostFrac.Mean, p.Evictions.Mean)
	}
	return nil
}
