package main

import (
	"fmt"
	"runtime"
	"time"

	"sereth"
	"sereth/internal/keccak"
)

// Rounds per seed list: one round runs every cell of the workload once
// at one cell seed. Passes over the list repeat until the phase ends.
const (
	fig2Rounds    = 24
	scale50Rounds = 128
	// warmupSeed is not a multiple of 101, so no run's list contains it.
	warmupSeed = 7
	// refEvery is the simulation CPU time between host reference samples.
	refEvery = 100 * time.Millisecond
)

// cell is one scenario of a simulation workload.
type cell struct {
	name string
	make func(seed int64) sereth.ScenarioConfig
}

// fig2Cells are the paper's nine Figure-2 cells on the default 3-peer
// rig, in the order of the η golden table.
func fig2Cells() []cell {
	var out []cell
	for _, line := range []struct {
		name string
		mk   func(int, int64) sereth.ScenarioConfig
	}{
		{"geth", sereth.Figure2Geth},
		{"sereth", sereth.Figure2Sereth},
		{"semantic", sereth.Figure2Semantic},
	} {
		for _, sets := range []int{100, 20, 5} {
			mk, sets := line.mk, sets
			out = append(out, cell{
				name: fmt.Sprintf("%s/sets-%d", line.name, sets),
				make: func(seed int64) sereth.ScenarioConfig { return mk(sets, seed) },
			})
		}
	}
	return out
}

// scale50Cells is the sereth_client sets-20 cell with 24 semantic
// miners, 24 baseline miners and 2 clients on the default full mesh. Only
// the population fields are set.
func scale50Cells() []cell {
	return []cell{{
		name: "sereth/sets-20/peers-50-mesh",
		make: func(seed int64) sereth.ScenarioConfig {
			cfg := sereth.Figure2Sereth(20, seed)
			cfg.SemanticMiners = 24
			cfg.BaselineMiners = 24
			cfg.Clients = 2
			return cfg
		},
	}}
}

// goldenEta is η at cell seed 101 (round 0 of benchmark seed 1), as
// pinned by the repository's golden test and BENCH tables.
var goldenEta = map[string]float64{
	"geth/sets-100":                0,
	"geth/sets-20":                 0,
	"geth/sets-5":                  0.09,
	"sereth/sets-100":              0.09,
	"sereth/sets-20":               0.36,
	"sereth/sets-5":                0.64,
	"semantic/sets-100":            0.26,
	"semantic/sets-20":             0.68,
	"semantic/sets-5":              0.88,
	"sereth/sets-20/peers-50-mesh": 0.4,
}

// cellSeeds derives the seed list of a run: consecutive blocks of the
// (i+1)*101 sequence the repository's η tables use, so seed 1 starts at
// 101 and distinct seeds never share a cell seed.
func cellSeeds(seed int64, rounds int) []int64 {
	out := make([]int64, rounds)
	for r := range out {
		out[r] = 101 * ((seed-1)*int64(rounds) + int64(r) + 1)
	}
	return out
}

// cellCounts are the deterministic outputs of one cell at one seed.
type cellCounts struct {
	eta    float64
	txs    int
	msgs   uint64
	digest uint64 // keccak digests
}

type cellKey struct {
	cell int
	seed int64
}

// simWorkload runs simulation cells back to back on one goroutine.
type simWorkload struct {
	seed  int64
	cells []cell
	seeds []int64
	// ref holds each cell's counts from the first pass; later passes
	// must repeat them exactly.
	ref map[cellKey]cellCounts
	// next is the position in the (round, cell) cycle where the next
	// phase resumes.
	next int
	host *hostRef
}

func newSimWorkload(seed int64, cells []cell, rounds int, host *hostRef) *simWorkload {
	return &simWorkload{seed: seed, cells: cells, seeds: cellSeeds(seed, rounds), ref: make(map[cellKey]cellCounts), host: host}
}

// setup runs one warm-up cell at a seed outside every run's list.
func (w *simWorkload) setup() error {
	res, err := sereth.RunScenario(w.cells[len(w.cells)-1].make(warmupSeed))
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("warm-up cell did not converge")
	}
	return nil
}

func (w *simWorkload) close() error { return nil }

// phase runs cells in (round, cell) order until deadline, finishing at
// least one full pass over the seed list so η and the counts cover it.
// An op's time is the CPU time the simulating thread spent on the cell,
// which leaves out the time it waited for a CPU; on a shared host that
// wait would otherwise dominate the spread. Wall times go to the detail
// record.
func (w *simWorkload) phase(deadline time.Time, tr *tracer) (*phaseResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph := &phaseResult{layers: map[string]float64{}, detail: map[string]float64{}}
	n := len(w.seeds) * len(w.cells)
	var wallMs []float64
	var refs refSamples
	var sinceRef time.Duration
	start := time.Now()
	for done := 0; done < n || time.Now().Before(deadline); done++ {
		pos := w.next % n
		w.next++
		round, ci := pos/len(w.cells), pos%len(w.cells)
		c := w.cells[ci]
		key := cellKey{ci, w.seeds[round]}

		k0 := keccak.Invocations()
		c0 := threadCPU()
		t0 := time.Now()
		res, err := sereth.RunScenario(c.make(key.seed))
		t1 := time.Now()
		cpu := threadCPU() - c0
		digests := keccak.Invocations() - k0
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", c.name, key.seed, err)
		}
		tr.record("sim.RunScenario", tr.newID(), 0, t0, t1)
		ph.ops++
		ph.opMs = append(ph.opMs, ms(cpu))
		wallMs = append(wallMs, ms(t1.Sub(t0)))
		txs := res.BuysIncluded + res.SetsIncluded
		ph.work += float64(txs)
		got := cellCounts{eta: res.Efficiency(), txs: txs, msgs: res.MsgsSent, digest: digests}
		w.check(ph, c.name, key, res, got)
		if sinceRef += cpu; sinceRef >= refEvery {
			w.host.sample(&refs)
			sinceRef = 0
		}
	}
	if len(refs.cpu) == 0 {
		w.host.sample(&refs)
	}
	ph.scale(&refs, false)
	ph.elapsed = time.Since(start)
	ph.detail["sim_tx_per_s"] = ph.work / ph.elapsed.Seconds()
	ph.detail["cell_ms_p50"] = quantile(wallMs, 0.5)
	ph.detail["cell_ms_p90"] = quantile(wallMs, 0.9)
	w.summarize(ph)
	return ph, nil
}

// check applies the per-cell correctness checks.
func (w *simWorkload) check(ph *phaseResult, name string, key cellKey, res sereth.ScenarioResult, got cellCounts) {
	switch {
	case !res.Converged:
		ph.fail("%s seed %d: peers did not converge", name, key.seed)
		return
	case res.BuysIncluded != res.BuysSubmitted || res.SetsIncluded != res.SetsSubmitted:
		ph.fail("%s seed %d: included %d/%d buys, %d/%d sets", name, key.seed,
			res.BuysIncluded, res.BuysSubmitted, res.SetsIncluded, res.SetsSubmitted)
		return
	case res.SetsSucceeded != res.SetsIncluded:
		ph.fail("%s seed %d: %d of %d sets succeeded", name, key.seed, res.SetsSucceeded, res.SetsIncluded)
		return
	}
	if want, ok := goldenEta[name]; ok && key.seed == 101 && got.eta != want {
		ph.fail("%s seed 101: η %v, golden %v", name, got.eta, want)
		return
	}
	ref, seen := w.ref[key]
	if !seen {
		w.ref[key] = got
		return
	}
	if ref != got {
		ph.fail("%s seed %d: counts %+v did not repeat %+v", name, key.seed, got, ref)
	}
}

// summarize fills the workload's detail and count metrics from the
// first-pass counts, which repeat exactly for a given seed.
func (w *simWorkload) summarize(ph *phaseResult) {
	var eta float64
	var txs, msgs, digests float64
	for _, c := range w.ref {
		eta += c.eta
		txs += float64(c.txs)
		msgs += float64(c.msgs)
		digests += float64(c.digest)
	}
	eta /= float64(len(w.ref))
	ph.layers["hms.eta"] = eta
	ph.layers["p2p.msgs_per_tx"] = ratio(msgs, txs)
	ph.layers["keccak.digests_per_tx"] = ratio(digests, txs)
	ph.detail["eta"] = eta
	if w.seed == 1 {
		for ci, c := range w.cells {
			if r, ok := w.ref[cellKey{ci, 101}]; ok {
				ph.detail["eta_seed101."+c.name] = r.eta
			}
		}
	}
}
