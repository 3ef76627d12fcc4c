package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sereth"
	"sereth/internal/keccak"
	"sereth/internal/rpc"
	"sereth/internal/types"
)

// Shape of the rpc-read fixture: committed blocks, each with one set and
// readBuysPerBlock buys quoting the view, then a pending series of
// readPending chained sets that is never mined.
const (
	readBlocks       = 24
	readBuysPerBlock = 6
	readPending      = 8
	// readWindow is the stretch of load between host reference samples.
	readWindow = 250 * time.Millisecond
)

// readRequest is one request of the fixed mix with its known answer.
type readRequest struct {
	method string
	params string
	want   string // raw JSON of the expected result
}

// rpcReadWorkload serves a fixed chain and pending series to a read mix.
type rpcReadWorkload struct {
	seed    int64
	fix     *rpcFixture
	mix     []readRequest // index: the mix position drawn per request
	weights []int         // cumulative % per mix entry
	eta     float64       // η of the fixture's committed buys
	host    *hostRef
}

func (w *rpcReadWorkload) close() error {
	if w.fix == nil {
		return nil
	}
	err := w.fix.stop()
	w.fix = nil
	return err
}

// setup boots a node, commits readBlocks blocks through it, leaves a
// pending HMS series in its pool, and derives every answer the mix can
// expect from the values it submitted.
func (w *rpcReadWorkload) setup() error {
	if err := w.close(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed))
	owner := sereth.NewKey(fmt.Sprintf("perfbench/owner/%d", w.seed))
	buyers := make([]*sereth.Key, 4)
	reg := sereth.NewRegistry()
	reg.Register(owner)
	for i := range buyers {
		buyers[i] = sereth.NewKey(fmt.Sprintf("perfbench/buyer/%d/%d", w.seed, i))
		reg.Register(buyers[i])
	}
	fix, err := startFixture(fixtureConfig{seed: w.seed, registry: reg})
	if err != nil {
		return err
	}
	w.fix = fix
	n, contract := fix.node, fix.contract

	var ownerNonce uint64
	buyerNonce := make([]uint64, len(buyers))
	var mark, value types.Word // the owner's chain of sets
	var buys []types.Hash
	setNext := func(flag types.Word) error {
		price := sereth.WordFromUint64(uint64(10 + rng.Intn(90)))
		if err := n.SubmitTx(signCall(owner, ownerNonce, contract, sereth.SelSet, flag, mark, price)); err != nil {
			return err
		}
		ownerNonce++
		mark, value = sereth.NextMark(mark, price), price
		return nil
	}
	for b := 1; b <= readBlocks; b++ {
		if err := setNext(sereth.FlagHead); err != nil {
			return fmt.Errorf("block %d set: %w", b, err)
		}
		for i := 0; i < readBuysPerBlock; i++ {
			k := rng.Intn(len(buyers))
			flag, vm, vv := n.ViewAMV(buyers[k].Address(), contract)
			tx := signCall(buyers[k], buyerNonce[k], contract, sereth.SelBuy, flag, vm, vv)
			if err := n.SubmitTx(tx); err != nil {
				return fmt.Errorf("block %d buy: %w", b, err)
			}
			buyerNonce[k]++
			buys = append(buys, tx.Hash())
		}
		if _, err := n.MineAndBroadcast(uint64(b) * 15); err != nil {
			return fmt.Errorf("mine block %d: %w", b, err)
		}
	}
	if n.Pool().Len() != 0 {
		return fmt.Errorf("%d transactions left unmined", n.Pool().Len())
	}
	committedMark, committedValue := mark, value
	if got := n.StorageAt(contract, sereth.SlotMark); got != committedMark {
		return fmt.Errorf("committed mark %s, want %s", got.Hex(), committedMark.Hex())
	}
	if got := n.StorageAt(contract, sereth.SlotValue); got != committedValue {
		return fmt.Errorf("committed value %s, want %s", got.Hex(), committedValue.Hex())
	}
	_, receipts := includedTxs(n.Chain())
	var ok int
	for _, h := range buys {
		if r := receipts[h]; r != nil && r.Status == types.StatusSucceeded {
			ok++
		}
	}
	w.eta = ratio(float64(ok), float64(len(buys)))

	for i := 0; i < readPending; i++ {
		flag := sereth.FlagChain
		if i == 0 {
			flag = sereth.FlagHead
		}
		if err := setNext(flag); err != nil {
			return fmt.Errorf("pending set %d: %w", i, err)
		}
	}
	flag, vm, vv := n.ViewAMV(types.Address{}, contract)
	if vm != mark || vv != value {
		return fmt.Errorf("view (%s, %s), want the pending series head (%s, %s)", vm.Hex(), vv.Hex(), mark.Hex(), value.Hex())
	}
	view, err := json.Marshal(rpc.ViewResult{Flag: flag.Hex(), Mark: mark.Hex(), Value: value.Hex()})
	if err != nil {
		return err
	}
	addr := quoted(contract.Hex())
	zero := types.Word{}
	w.mix = []readRequest{
		{"sereth_view", "", string(view)},
		{"eth_call", addr + "," + quoted(hexData(sereth.EncodeCall(sereth.SelGet, zero, zero, zero))), quoted(value.Hex())},
		{"eth_call", addr + "," + quoted(hexData(sereth.EncodeCall(sereth.SelMark, zero, zero, zero))), quoted(mark.Hex())},
		{"eth_getStorageAt", addr + `,"0x` + strconv.FormatUint(sereth.SlotMark, 16) + `"`, quoted(committedMark.Hex())},
		{"eth_getStorageAt", addr + `,"0x` + strconv.FormatUint(sereth.SlotValue, 16) + `"`, quoted(committedValue.Hex())},
		{"eth_blockNumber", "", quoted("0x" + strconv.FormatUint(readBlocks, 16))},
	}
	w.weights = []int{50, 60, 70, 80, 90, 100}
	return nil
}

// pick draws a mix entry: view 50%, RAA eth_call 20% (get and mark),
// storage 20% (mark and value slots), block number 10%.
func (w *rpcReadWorkload) pick(rng *rand.Rand) readRequest {
	x := rng.Intn(100)
	for i, c := range w.weights {
		if x < c {
			return w.mix[i]
		}
	}
	return w.mix[len(w.mix)-1]
}

// readTally is one connection's state and results.
type readTally struct {
	conn        *loadConn
	rng         *rand.Rand
	ops, failed int
	lat         latencies
	all         []float64
	problems    []string
}

// run sends requests of the mix back to back until deadline.
func (t *readTally) run(w *rpcReadWorkload, deadline time.Time) {
	for time.Now().Before(deadline) {
		req := w.pick(t.rng)
		t0 := time.Now()
		got, err := t.conn.call(req.method, req.params)
		d := ms(time.Since(t0))
		t.ops++
		t.all = append(t.all, d)
		t.lat[req.method] = append(t.lat[req.method], d)
		if err == nil && string(got) != req.want {
			err = fmt.Errorf("answer %s, want %s", got, req.want)
		}
		if err != nil {
			t.failed++
			if len(t.problems) < 5 {
				t.problems = append(t.problems, fmt.Sprintf("%s: %v", req.method, err))
			}
		}
	}
}

// phase runs the closed loops in windows of readWindow; between windows
// the load pauses while the host reference is sampled.
func (w *rpcReadWorkload) phase(deadline time.Time, tr *tracer) (*phaseResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w.fix.timed.tr.Store(tr)
	defer w.fix.timed.tr.Store(nil)
	k0 := keccak.Invocations()
	tallies := make([]readTally, conns)
	for i := range tallies {
		tallies[i].conn = w.fix.conn(tr)
		tallies[i].rng = rand.New(rand.NewSource(w.seed*1000 + int64(i)))
		tallies[i].lat = latencies{}
	}
	var refs refSamples
	start := time.Now()
	for time.Now().Before(deadline) {
		window := time.Now().Add(readWindow)
		if window.After(deadline) {
			window = deadline
		}
		var wg sync.WaitGroup
		for i := range tallies {
			wg.Add(1)
			go func(t *readTally) {
				defer wg.Done()
				t.run(w, window)
			}(&tallies[i])
		}
		wg.Wait()
		w.host.sample(&refs)
	}
	ph := &phaseResult{elapsed: time.Since(start), layers: map[string]float64{}, detail: map[string]float64{}}
	ph.scale(&refs, true)
	lat := latencies{}
	var shed int
	for _, t := range tallies {
		ph.ops += t.ops
		ph.failed += t.failed
		ph.opMs = append(ph.opMs, t.all...)
		ph.problems = append(ph.problems, t.problems...)
		lat.merge(t.lat)
		shed += t.conn.shed
	}
	ph.work = float64(ph.ops)
	views := lat["sereth_view"]
	ph.detail["rpc_rps"] = ph.work / ph.elapsed.Seconds()
	ph.detail["view_ms_p50"] = quantile(views, 0.5)
	ph.detail["view_ms_p90"] = quantile(views, 0.9)
	ph.layers["rpc.view_ms_p50"] = ph.detail["view_ms_p50"]
	ph.layers["rpc.view_ms_p90"] = ph.detail["view_ms_p90"]
	ph.layers["rpc.shed_count"] = float64(shed)
	ph.layers["hms.eta"] = w.eta
	ph.layers["txpool.depth_max"] = float64(w.fix.node.Pool().Len())
	ph.layers["keccak.digests_per_tx"] = ratio(float64(keccak.Invocations()-k0), float64(ph.ops))
	return ph, nil
}
