// Command perfbench is the repository benchmark. It runs one named
// workload through the system's public surface (the sereth scenario
// runner, node, rpc.Server and store), checks the outputs, and prints
// one JSON result line last:
//
//	bash perfbench/run.sh --workload fig2 --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// alternates untraced and traced chunks and reports the per-layer
// metrics of the traced ones: shares of a CPU profile, a mutex profile,
// runtime counters and spans recorded around the benchmark's own calls
// into the program. --workload all runs every workload in turn and
// prints each one's metrics by name.
//
// The lines before the result are a record of the run: host, build,
// seed, and the workload-specific metrics named in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its fixtures; setup_s is the
// median and the last build is the one measured.
const setupReps = 9

// tracedChunks is how many traced chunks a --trace 1 run measures,
// interleaved with as many untraced ones.
const tracedChunks = 3

// metricDef is one metric of BENCHMARK.json. Moves names the end-to-end
// metric and workload a change in this layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// every one; what an "op" and a unit of work are depends on the workload
// (see workloadDefs).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"ok_ratio", "ratio", "higher", ""},
	{"work_per_cpu_s", "1/cpu-s", "higher", ""},
	{"op_ms_p50", "ms", "lower", ""},
	{"op_ms_p90", "ms", "lower", ""},
	{"heap_live_mb", "MB", "lower", ""},
}

// rpcMethods are the JSON-RPC methods the two serving workloads call.
var rpcMethods = []string{"sereth_view", "eth_call", "eth_getStorageAt", "eth_blockNumber", "eth_sendRawTransaction"}

// perLayer are the metrics of a traced run. A share is the % of the
// traced half's CPU samples: "cumulative" under a named function, or
// "self" in a package's own code.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"p2p.msgs_per_tx", "count", "lower", "op_ms_p50 on scale50"},
		{"p2p.self_share", "%", "lower", "op_ms_p50 on scale50"},
		{"p2p.advance_share", "%", "lower", "op_ms_p50 on scale50"},
		{"node.handle_block_share", "%", "lower", "op_ms_p50 on scale50"},
		{"node.handle_tx_share", "%", "lower", "op_ms_p50 on scale50 and fig2"},
		{"node.mine_share", "%", "lower", "op_ms_p50 on fig2"},
		{"node.submit_share", "%", "lower", "op_ms_p50 on fig2; op_ms_p90 on rpc-write"},
		{"node.view_share", "%", "lower", "op_ms_p50 on rpc-read"},
		{"chain.insert_share", "%", "lower", "op_ms_p50 on scale50 and fig2"},
		{"chain.process_share", "%", "lower", "op_ms_p50 on fig2"},
		{"types.header_hash_share", "%", "lower", "op_ms_p50 on scale50 and fig2"},
		{"types.sighash_share", "%", "lower", "op_ms_p50 on fig2; work_per_cpu_s on rpc-write"},
		{"keccak.digests_per_tx", "count", "lower", "work_per_cpu_s on fig2, scale50 and rpc-write"},
		{"keccak.self_share", "%", "lower", "work_per_cpu_s on fig2, scale50 and rpc-write"},
		{"rlp.self_share", "%", "lower", "op_ms_p50 on fig2; op_ms_p90 on rpc-write"},
		{"trie.self_share", "%", "lower", "op_ms_p50 on fig2; op_ms_p90 on rpc-write"},
		{"statedb.root_share", "%", "lower", "op_ms_p50 on fig2; op_ms_p90 on rpc-write"},
		{"evm.call_share", "%", "lower", "op_ms_p50 on rpc-read and rpc-write"},
		{"raa.augment_share", "%", "lower", "op_ms_p50 on rpc-read and rpc-write"},
		{"hms.view_share", "%", "lower", "op_ms_p50 on rpc-read and rpc-write"},
		{"hms.eta", "ratio", "higher", "none: a correctness count that must not move"},
		{"txpool.admit_share", "%", "lower", "op_ms_p50 on fig2; op_ms_p90 on rpc-write"},
		{"txpool.depth_max", "count", "lower", "none: stationarity check of rpc-write"},
		{"miner.build_share", "%", "lower", "op_ms_p50 on fig2; op_ms_p90 on rpc-write"},
		{"miner.block_ms_p50", "ms", "lower", "op_ms_p90 on rpc-write"},
		{"store.bytes_per_tx", "B", "lower", "work_per_cpu_s on rpc-write"},
		{"store.sync_share", "%", "lower", "work_per_cpu_s on rpc-write"},
		{"store.reopen_ms", "ms", "lower", "setup_s on rpc-write"},
		{"rpc.view_ms_p50", "ms", "lower", "op_ms_p50 on rpc-read and rpc-write"},
		{"rpc.view_ms_p90", "ms", "lower", "op_ms_p90 on rpc-read and rpc-write"},
		{"rpc.send_ms_p50", "ms", "lower", "op_ms_p50 on rpc-write"},
		{"rpc.send_ms_p90", "ms", "lower", "op_ms_p90 on rpc-write"},
	}
	for _, m := range rpcMethods {
		defs = append(defs,
			metricDef{"rpc.server_us_p50." + m, "us", "lower", "op_ms_p50 on rpc-read and rpc-write"},
			metricDef{"rpc.server_us_p99." + m, "us", "lower", "op_ms_p90 on rpc-read and rpc-write"})
	}
	return append(defs,
		metricDef{"rpc.transport_us_p50", "us", "lower", "work_per_cpu_s on rpc-read and rpc-write"},
		metricDef{"rpc.json_share", "%", "lower", "work_per_cpu_s on rpc-read and rpc-write"},
		metricDef{"rpc.shed_count", "count", "lower", "ok_ratio on rpc-read and rpc-write"},
		metricDef{"gc.cpu_share", "%", "lower", "every end-to-end metric"},
		metricDef{"alloc.bytes_per_op", "B", "lower", "every end-to-end metric"},
		metricDef{"lock.wait_share", "%", "lower", "op_ms_p90 on rpc-read and rpc-write"},
		metricDef{"gen.client_share", "%", "lower", "none: the load generator's own cost"},
		metricDef{"trace.overhead_pct", "%", "lower", "none: cost of the traced run"},
	)
}()

// cumulativeShares maps a share metric to the functions whose
// cumulative CPU it measures.
var cumulativeShares = []struct {
	metric string
	funcs  []string
}{
	{"p2p.advance_share", []string{"sereth/internal/p2p.(*Network).AdvanceTo"}},
	{"node.handle_block_share", []string{"sereth/internal/node.(*Node).HandleBlock"}},
	{"node.handle_tx_share", []string{"sereth/internal/node.(*Node).HandleTx"}}, // HandleTx and HandleTxs
	{"node.mine_share", []string{"sereth/internal/node.(*Node).MineAndBroadcast"}},
	{"node.submit_share", []string{"sereth/internal/node.(*Node).SubmitTx"}}, // SubmitTx and SubmitTxs
	{"node.view_share", []string{"sereth/internal/node.(*Node).ViewAMV"}},
	{"chain.insert_share", []string{"sereth/internal/chain.(*Chain).InsertBlock"}},
	{"chain.process_share", []string{"sereth/internal/chain.(*Processor).Process"}},
	{"types.header_hash_share", []string{"sereth/internal/types.(*Header).Hash"}},
	{"types.sighash_share", []string{"sereth/internal/types.(*Transaction).SigHash", "sereth/internal/types.(*Transaction).computeSigHash"}},
	{"statedb.root_share", []string{"sereth/internal/statedb.(*StateDB).Root"}},
	{"evm.call_share", []string{"sereth/internal/evm.(*EVM).Call"}},
	{"raa.augment_share", []string{"sereth/internal/raa.(*Service).Augment"}},
	{"hms.view_share", []string{"sereth/internal/hms.(*Tracker).View"}}, // View, ViewOf, ViewOrSnapshot
	{"txpool.admit_share", []string{"sereth/internal/txpool.(*Pool).Admit"}},
	{"miner.build_share", []string{"sereth/internal/miner.(*Miner).BuildBlock"}},
	{"store.sync_share", []string{"sereth/internal/store.(*FileStore).Sync"}},
	{"gen.client_share", []string{"main.(*loadConn)."}},
}

// selfShares maps a share metric to the package whose own code it
// measures.
var selfShares = []struct{ metric, pkg string }{
	{"p2p.self_share", "sereth/internal/p2p"},
	{"keccak.self_share", "sereth/internal/keccak"},
	{"rlp.self_share", "sereth/internal/rlp"},
	{"trie.self_share", "sereth/internal/trie"},
	{"rpc.json_share", "encoding/json"},
}

// workloadDefs lists the workloads, why each was chosen and which
// layers it loads; the text is BENCHMARK.json's "why".
var workloadDefs = []struct{ Name, Why string }{
	{"fig2", "The paper's 9 Figure-2 cells, 3 peers each; op = one RunScenario. Loads miner, chain, statedb, trie, keccak, txpool; p2p light, rpc and store idle."},
	{"scale50", "Figure-2 sereth sets-20 cell at 50 peers on a full mesh; op = one RunScenario. Loads p2p delivery, block import, header hashing; rpc and store idle."},
	{"rpc-read", "Read mix over 2 closed-loop HTTP conns to a node with a fixed pending series; op = one request. Loads rpc, json, evm, raa, hms; chain, trie, store idle."},
	{"rpc-write", "2 closed-loop conns each do view then send on a datadir node, a block every 16 txs; op = view+send. Loads txpool, hms, miner, statedb, store; p2p idle."},
}

// phaseResult is what one measured phase of a workload produced.
type phaseResult struct {
	ops, failed int
	work        float64 // units counted by work_per_cpu_s
	elapsed     time.Duration
	cpu         time.Duration // process CPU time, set by measure
	// opScale, cpuScale and wallScale bring op times, CPU time and wall
	// time to the nominal host speed (see hostRef).
	opScale, cpuScale, wallScale float64
	opMs                         []float64
	heapMB                       []float64          // live-heap samples the workload took itself
	setupS                       []float64          // fixture builds the phase made itself
	layers                       map[string]float64 // per-layer values the workload measured
	detail                       map[string]float64 // workload-specific end-to-end values
	problems                     []string           // failed correctness checks
}

// scale sets the phase's host-speed factors from its reference samples;
// opWall says whether op times are wall (else thread CPU) times.
func (p *phaseResult) scale(s *refSamples, opWall bool) {
	p.cpuScale, p.wallScale = s.cpuScale(), s.wallScale()
	p.opScale = p.cpuScale
	if opWall {
		p.opScale = p.wallScale
	}
	p.detail["host_ref_cpu_scale"] = p.cpuScale
	p.detail["host_ref_wall_scale"] = p.wallScale
}

func (p *phaseResult) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named input set of the benchmark.
type workload interface {
	// setup builds the fixtures the measured phases use. It is called
	// setupReps times; each call replaces the previous fixtures.
	setup() error
	// phase runs measured work until deadline. tr is nil when untraced.
	phase(deadline time.Time, tr *tracer) (*phaseResult, error)
	close() error
}

func newWorkload(name string, seed int64, workdir string, host *hostRef) (workload, error) {
	switch name {
	case "fig2":
		return newSimWorkload(seed, fig2Cells(), fig2Rounds, host), nil
	case "scale50":
		return newSimWorkload(seed, scale50Cells(), scale50Rounds, host), nil
	case "rpc-read":
		return &rpcReadWorkload{seed: seed, host: host}, nil
	case "rpc-write":
		return &rpcWriteWorkload{seed: seed, workdir: workdir, host: host}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	rev      string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the run's host, build and workload-specific detail, printed
// before the result.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     map[string]any     `json:"host"`
	SetupS   []float64          `json:"setup_s_samples"`
	Detail   map[string]float64 `json:"detail,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; seed 1 reproduces the golden Figure-2 η at round 0")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for datadirs")
	fs.StringVar(&o.rev, "rev", "unknown", "source revision recorded in the host record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return fmt.Errorf("workdir: %w", err)
	}
	if o.workload == "all" {
		return runAll(o, out)
	}
	res, rec, err := runWorkload(o)
	if err != nil {
		return err
	}
	return emit(out, rec, res)
}

func emit(out io.Writer, rec *record, res *result) error {
	line, err := json.Marshal(map[string]*record{"record": rec})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(out, string(line)); err != nil {
		return err
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// runAll runs every workload and prints each one's end-to-end and
// detail metrics by name; the last line sums the verdicts.
func runAll(o options, out io.Writer) error {
	total := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, wd := range workloadDefs {
		o.workload = wd.Name
		res, rec, err := runWorkload(o)
		if err != nil {
			return fmt.Errorf("%s: %w", wd.Name, err)
		}
		fmt.Fprintf(out, "== %s (correct=%v attempted=%d failed=%d)\n", wd.Name, res.Correct, res.Attempted, res.Failed)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
			total.Metrics[wd.Name+"/"+name] = m
		}
		for _, name := range sortedKeys(rec.Detail) {
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", name, rec.Detail[name], detailUnit(name))
		}
		for _, p := range rec.Problems {
			fmt.Fprintf(out, "  problem: %s\n", p)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// detailUnit is the unit of a workload-specific detail metric.
func detailUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_per_s") || name == "rpc_rps":
		return "1/s"
	}
	return "ratio"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runWorkload(o options) (*result, *record, error) {
	host := newHostRef()
	w, err := newWorkload(o.workload, o.seed, o.workdir, host)
	if err != nil {
		return nil, nil, err
	}
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: hostRecord(o.rev)}
	res, err := measure(w, host, o, rec)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// measure sets the workload up, runs its phases and assembles the
// result.
func measure(w workload, host *hostRef, o options, rec *record) (*result, error) {
	var setupRefs refSamples
	runtime.LockOSThread()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			runtime.UnlockOSThread()
			return nil, fmt.Errorf("setup: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
		host.sample(&setupRefs)
		host.sample(&setupRefs)
	}
	runtime.UnlockOSThread()
	total := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metricValue{}}
	if !o.trace {
		ph, err := runPhase(w, total, nil)
		if err != nil {
			return nil, err
		}
		// Set-up times, like op times, are brought to the nominal host
		// speed with the reference samples taken around them.
		var setups []float64
		for _, s := range rec.SetupS {
			setups = append(setups, s*setupRefs.wallScale())
		}
		for _, s := range ph.setupS {
			setups = append(setups, s*ph.wallScale)
		}
		rec.SetupS = append(rec.SetupS, ph.setupS...)
		vals := map[string]float64{
			"setup_s":        median(setups),
			"ok_ratio":       1 - ratio(float64(ph.failed), float64(ph.ops)),
			"work_per_cpu_s": ph.work / (ph.cpu.Seconds() * ph.cpuScale),
			"op_ms_p50":      quantile(ph.opMs, 0.5) * ph.opScale,
			"op_ms_p90":      quantile(ph.opMs, 0.9) * ph.opScale,
		}
		// The live heap is read with the fixtures alive but without the
		// benchmark's own latency records.
		ph.opMs = nil
		if len(ph.heapMB) == 0 {
			ph.heapMB = []float64{liveHeapMB()}
		}
		vals["heap_live_mb"] = median(ph.heapMB)
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
		rec.Detail = ph.detail
		rec.Detail["fail_ratio"] = ratio(float64(ph.failed), float64(ph.ops))
		finish(res, rec, ph)
		return res, nil
	}

	// Traced run: untraced and traced chunks alternate, so host drift
	// falls on both alike. The untraced chunks give the reference CPU
	// cost of work for the tracing overhead; each per-layer metric is the
	// median of its values over the traced chunks.
	chunk := total / (2 * tracedChunks)
	tr := newTracer()
	all := &phaseResult{}
	var rate [2]struct{ work, cpu float64 } // untraced, traced
	perChunk := make(map[string][]float64)
	for i := 0; i < 2*tracedChunks; i++ {
		if i%2 == 0 {
			ph, err := runPhase(w, chunk, nil)
			if err != nil {
				return nil, err
			}
			all.add(ph)
			rate[0].work += ph.work
			rate[0].cpu += ph.cpu.Seconds() * ph.cpuScale
			continue
		}
		from := tr.mark()
		prof, err := startProfiler()
		if err != nil {
			return nil, err
		}
		ph, err := runPhase(w, chunk, tr)
		if serr := prof.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		all.add(ph)
		rate[1].work += ph.work
		rate[1].cpu += ph.cpu.Seconds() * ph.cpuScale
		layers, err := attribute(prof, tr, from, ph)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			perChunk[k] = append(perChunk[k], v)
		}
	}
	overhead := 100 * (ratio(rate[0].work, rate[0].cpu)/ratio(rate[1].work, rate[1].cpu) - 1)
	perChunk["trace.overhead_pct"] = []float64{overhead}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{median(perChunk[d.Name]), d.Unit}
	}
	if err := tr.writeJSONL(filepath.Join(o.workdir, o.workload+"-spans.jsonl")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	finish(res, rec, all)
	return res, nil
}

// runPhase runs one phase of length d and records its process CPU time.
func runPhase(w workload, d time.Duration, tr *tracer) (*phaseResult, error) {
	c0 := processCPU()
	ph, err := w.phase(time.Now().Add(d), tr)
	if err != nil {
		return nil, err
	}
	ph.cpu = processCPU() - c0
	return ph, nil
}

// add accumulates another phase's operation counts and problems.
func (p *phaseResult) add(o *phaseResult) {
	p.ops += o.ops
	p.failed += o.failed
	p.problems = append(p.problems, o.problems...)
}

func finish(res *result, rec *record, ph *phaseResult) {
	res.Attempted = ph.ops
	res.Failed = ph.failed
	res.Correct = ph.failed == 0 && len(ph.problems) == 0 && ph.ops > 0
	rec.Problems = ph.problems
}

// attribute turns a traced phase's profiles, spans recorded since mark
// from, and counters into the per-layer metrics.
func attribute(prof *profiler, tr *tracer, from int, ph *phaseResult) (map[string]float64, error) {
	layers := make(map[string]float64)
	for k, v := range ph.layers {
		layers[k] = v
	}
	st, err := prof.cpuProfile()
	if err != nil {
		return nil, err
	}
	if st.total == 0 {
		return nil, errors.New("cpu profile has no samples")
	}
	for _, c := range cumulativeShares {
		layers[c.metric] = st.cumShare(c.funcs...)
	}
	for _, s := range selfShares {
		layers[s.metric] = st.selfShare(s.pkg)
	}
	layers["gc.cpu_share"] = prof.gcShare()
	layers["alloc.bytes_per_op"] = ratio(prof.allocBytes(), float64(ph.ops))
	layers["lock.wait_share"] = prof.lockWaitShare()
	for _, m := range rpcMethods {
		srv := durationsUs(tr.durations("rpc.server."+m, from))
		layers["rpc.server_us_p50."+m] = quantile(srv, 0.5)
		layers["rpc.server_us_p99."+m] = quantile(srv, 0.99)
	}
	layers["rpc.transport_us_p50"] = transportP50(tr, from)
	return layers, nil
}

// transportP50 is the median of client round trip minus server span
// over requests that have both.
func transportP50(tr *tracer, from int) float64 {
	var gaps []float64
	for _, m := range rpcMethods {
		client := tr.byID("rpc.client."+m, from)
		for id, s := range tr.byID("rpc.server."+m, from) {
			if c, ok := client[id]; ok {
				gaps = append(gaps, us(c.dur()-s.dur()))
			}
		}
	}
	return quantile(gaps, 0.5)
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostRecord describes the host and build a result came from.
func hostRecord(rev string) map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"revision":   rev,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo where it exists.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
