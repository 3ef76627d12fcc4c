package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sereth"
	"sereth/internal/keccak"
	"sereth/internal/node"
	"sereth/internal/rpc"
	"sereth/internal/store"
	"sereth/internal/types"
)

// Shape of one rpc-write round: each connection sends writesPerConn
// transactions, and the benchmark mines one block after every
// blockEvery admitted transactions, so a round is the same work at any
// speed.
const (
	writesPerConn = 150
	blockEvery    = 16
	buyEvery      = 5 // every fifth transaction is a buy quoting the view
)

// rpcWriteWorkload runs rounds of the paper's client loop against a
// fresh datadir-backed node, then closes, reopens and verifies it.
type rpcWriteWorkload struct {
	seed    int64
	workdir string
	keys    []*sereth.Key
	host    *hostRef
}

func (w *rpcWriteWorkload) close() error { return nil }

// registry returns a fresh registry of the writers' keys.
func (w *rpcWriteWorkload) registry() *sereth.Registry {
	if w.keys == nil {
		for i := 0; i < conns; i++ {
			w.keys = append(w.keys, sereth.NewKey(fmt.Sprintf("perfbench/writer/%d/%d", w.seed, i)))
		}
	}
	reg := sereth.NewRegistry()
	for _, k := range w.keys {
		reg.Register(k)
	}
	return reg
}

// datadirNode is a fixture backed by a fresh store.FileStore.
type datadirNode struct {
	*rpcFixture
	dir string
	reg *sereth.Registry
}

// open starts a fixture whose node persists to a fresh datadir.
func (w *rpcWriteWorkload) open() (*datadirNode, error) {
	dir, err := os.MkdirTemp(w.workdir, "rpc-write-")
	if err != nil {
		return nil, err
	}
	kv, err := store.OpenFile(dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	reg := w.registry()
	fix, err := startFixture(fixtureConfig{seed: w.seed, registry: reg, store: kv})
	if err != nil {
		_ = kv.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	return &datadirNode{rpcFixture: fix, dir: dir, reg: reg}, nil
}

// setup measures a cold node start on a fresh datadir.
func (w *rpcWriteWorkload) setup() error {
	d, err := w.open()
	if err != nil {
		return err
	}
	err = d.stop()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// writeTally is one connection's share of a round.
type writeTally struct {
	ops, failed int
	opMs        []float64
	lat         latencies
	sent        []*types.Transaction
	buys        []types.Hash
	problems    []string
	shed        int
}

// roundStats is what one round measured.
type roundStats struct {
	tallies  []writeTally
	mineMs   []float64
	depthMax int
	heapMB   float64 // live heap the round's node added
	setupS   float64 // the round's fixture build
	reopenMs float64
	bytes    int64
	buysOK   int
	problems []string
}

// phase runs rounds until deadline; between rounds, with no load, it
// samples the host reference.
func (w *rpcWriteWorkload) phase(deadline time.Time, tr *tracer) (*phaseResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph := &phaseResult{layers: map[string]float64{}, detail: map[string]float64{}}
	var refs refSamples
	lat := latencies{}
	var mineMs, reopenMs, bytesPerTx []float64
	var depthMax, shed, buys, buysOK int
	k0 := keccak.Invocations()
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Now().Before(deadline); rounds++ {
		rs, err := w.round(tr, rand.New(rand.NewSource(w.seed*7919+int64(rounds))))
		if err != nil {
			return nil, err
		}
		var txs int
		for _, t := range rs.tallies {
			ph.ops += t.ops
			ph.failed += t.failed
			ph.opMs = append(ph.opMs, t.opMs...)
			ph.problems = append(ph.problems, t.problems...)
			lat.merge(t.lat)
			shed += t.shed
			txs += len(t.sent)
			buys += len(t.buys)
		}
		buysOK += rs.buysOK
		if len(rs.problems) > 0 {
			ph.fail("round %d: %v", rounds, rs.problems)
		}
		ph.work += float64(txs)
		ph.heapMB = append(ph.heapMB, rs.heapMB)
		ph.setupS = append(ph.setupS, rs.setupS)
		mineMs = append(mineMs, rs.mineMs...)
		reopenMs = append(reopenMs, rs.reopenMs)
		bytesPerTx = append(bytesPerTx, ratio(float64(rs.bytes), float64(txs)))
		depthMax = max(depthMax, rs.depthMax)
		w.host.sample(&refs)
	}
	ph.elapsed = time.Since(start)
	ph.scale(&refs, true)
	// Stationarity: mining keeps up with admission, so the backlog stays
	// within a few blocks' worth. A block is mined after blockEvery
	// admissions, plus at most one per connection that was mid-operation,
	// and it also finds what earlier blocks left behind: the semantic
	// miner defers an orphaned set whose sender has an earlier
	// transaction in the HMS series, so txpool.depth_max reads above
	// blockEvery+conns. The cap catches a backlog that grows with the run.
	if limit := 4 * (blockEvery + conns); depthMax > limit {
		ph.fail("pool depth reached %d, limit %d", depthMax, limit)
	}
	views, sends := lat["sereth_view"], lat["eth_sendRawTransaction"]
	ph.detail["rpc_rps"] = float64(len(views)+len(sends)) / ph.elapsed.Seconds()
	ph.detail["view_ms_p50"] = quantile(views, 0.5)
	ph.detail["view_ms_p90"] = quantile(views, 0.9)
	ph.detail["send_ms_p50"] = quantile(sends, 0.5)
	ph.detail["send_ms_p90"] = quantile(sends, 0.9)
	ph.detail["reopen_ms"] = median(reopenMs)
	ph.layers["rpc.view_ms_p50"] = ph.detail["view_ms_p50"]
	ph.layers["rpc.view_ms_p90"] = ph.detail["view_ms_p90"]
	ph.layers["rpc.send_ms_p50"] = ph.detail["send_ms_p50"]
	ph.layers["rpc.send_ms_p90"] = ph.detail["send_ms_p90"]
	ph.layers["store.reopen_ms"] = ph.detail["reopen_ms"]
	ph.layers["store.bytes_per_tx"] = median(bytesPerTx)
	ph.layers["miner.block_ms_p50"] = quantile(mineMs, 0.5)
	ph.layers["txpool.depth_max"] = float64(depthMax)
	ph.layers["rpc.shed_count"] = float64(shed)
	ph.layers["hms.eta"] = ratio(float64(buysOK), float64(buys))
	ph.layers["keccak.digests_per_tx"] = ratio(float64(keccak.Invocations()-k0), ph.work)
	return ph, nil
}

// round runs one fixed-size round: concurrent client loops with periodic
// mining, a drain, inclusion checks, close, reopen and head checks.
func (w *rpcWriteWorkload) round(tr *tracer, rng *rand.Rand) (*roundStats, error) {
	t0 := time.Now()
	d, err := w.open()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d.dir)
	setupS := time.Since(t0).Seconds()
	heapBase := liveHeapMB()
	d.timed.tr.Store(tr)
	rs := &roundStats{tallies: make([]writeTally, conns), setupS: setupS}

	var (
		gate     sync.RWMutex // write-held while mining; guards ts, mineErr, rs.mineMs, rs.depthMax
		ts       uint64
		mineErr  error
		admitted atomic.Int64
	)
	mine := func() {
		gate.Lock()
		defer gate.Unlock()
		rs.depthMax = max(rs.depthMax, d.node.Pool().Len())
		ts += 15
		t0 := time.Now()
		_, err := d.node.MineAndBroadcast(ts)
		t1 := time.Now()
		tr.record("node.MineAndBroadcast", tr.newID(), 0, t0, t1)
		rs.mineMs = append(rs.mineMs, ms(t1.Sub(t0)))
		if err != nil && mineErr == nil {
			mineErr = err
		}
	}
	connSeeds := make([]int64, conns)
	for i := range connSeeds {
		connSeeds[i] = rng.Int63()
	}
	var wg sync.WaitGroup
	for i := range rs.tallies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.client(d, tr, i, rand.New(rand.NewSource(connSeeds[i])), &rs.tallies[i], &gate, func() {
				if admitted.Add(1)%blockEvery == 0 {
					mine()
				}
			})
		}(i)
	}
	wg.Wait()
	for tries := 0; d.node.Pool().Len() > 0 && tries < 8; tries++ {
		mine()
	}
	if mineErr != nil {
		_ = d.stop()
		return nil, fmt.Errorf("mine: %w", mineErr)
	}
	rs.check(d)
	rs.heapMB = liveHeapMB() - heapBase

	head := d.node.Chain().Head()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("close node: %w", err)
	}
	rs.bytes = dirBytes(d.dir)
	t0 = time.Now()
	reopened, err := w.reopen(d)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	tr.record("store.reopen", tr.newID(), 0, t0, t1)
	rs.reopenMs = ms(t1.Sub(t0))
	got := reopened.Chain().Head()
	if got.Hash() != head.Hash() || got.Header.StateRoot != head.Header.StateRoot {
		rs.problems = append(rs.problems, fmt.Sprintf("reopened head %d %s, live head %d %s",
			got.Number(), got.Hash().Hex(), head.Number(), head.Hash().Hex()))
	}
	if reopened.BootSource() != node.BootRecovered {
		rs.problems = append(rs.problems, "reopened node booted from "+reopened.BootSource().String())
	}
	if err := reopened.Close(); err != nil {
		return nil, fmt.Errorf("close reopened node: %w", err)
	}
	return rs, nil
}

// reopen opens the round's datadir and boots a node on it until the
// head is available.
func (w *rpcWriteWorkload) reopen(d *datadirNode) (*node.Node, error) {
	kv, err := store.OpenFile(d.dir)
	if err != nil {
		return nil, err
	}
	genesis, contract := sereth.NewGenesisWithContract()
	n, err := node.New(nodeConfig(fixtureConfig{seed: w.seed, registry: d.reg, store: kv}, contract, genesis))
	if err != nil {
		_ = kv.Close()
		return nil, err
	}
	return n, nil
}

// client runs one connection's loop: read the view, then send a set
// chained on the mark just read, or every buyEvery-th time a buy
// quoting the view. Each operation holds gate for reading, so blocks are
// mined between operations and op latency measures the serving path.
func (w *rpcWriteWorkload) client(d *datadirNode, tr *tracer, idx int, rng *rand.Rand, t *writeTally, gate *sync.RWMutex, admitted func()) {
	c := d.conn(tr)
	t.lat = latencies{}
	for nonce := uint64(0); nonce < writesPerConn; nonce++ {
		t.ops++
		gate.RLock()
		tx, err := w.writeOp(c, d.contract, w.keys[idx], nonce, rng, t)
		gate.RUnlock()
		if err != nil {
			t.fail(err)
			return
		}
		t.sent = append(t.sent, tx)
		if nonce%buyEvery == buyEvery-1 {
			t.buys = append(t.buys, tx.Hash())
		}
		admitted()
	}
	t.shed = c.shed
}

// writeOp reads the view and sends the write built from it; the two
// request spans share the operation's id as parent.
func (w *rpcWriteWorkload) writeOp(c *loadConn, contract types.Address, key *sereth.Key, nonce uint64, rng *rand.Rand, t *writeTally) (*types.Transaction, error) {
	op := c.tr.newID()
	c.parent = op
	t0 := time.Now()
	raw, err := c.call("sereth_view", "")
	t1 := time.Now()
	t.lat["sereth_view"] = append(t.lat["sereth_view"], ms(t1.Sub(t0)))
	if err != nil {
		return nil, fmt.Errorf("view: %w", err)
	}
	tx, err := buildWrite(raw, key, nonce, contract, rng)
	if err != nil {
		return nil, fmt.Errorf("view answer: %w", err)
	}
	t2 := time.Now()
	got, err := c.call("eth_sendRawTransaction", quoted(hexData(tx.EncodeRLP())))
	t3 := time.Now()
	t.lat["eth_sendRawTransaction"] = append(t.lat["eth_sendRawTransaction"], ms(t3.Sub(t2)))
	c.tr.record("write.op", op, 0, t0, t3)
	t.opMs = append(t.opMs, ms(t3.Sub(t0)))
	if err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	if string(got) != quoted(tx.Hash().Hex()) {
		return nil, fmt.Errorf("send returned hash %s, want %s", got, tx.Hash().Hex())
	}
	return tx, nil
}

// fail counts a failed operation; the connection stops, because its
// nonce sequence can no longer continue.
func (t *writeTally) fail(err error) {
	t.failed++
	t.problems = append(t.problems, err.Error())
}

// buildWrite signs the next write from a sereth_view answer.
func buildWrite(raw []byte, key *sereth.Key, nonce uint64, contract types.Address, rng *rand.Rand) (*types.Transaction, error) {
	var v rpc.ViewResult
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	var words [3]types.Word
	for i, s := range []string{v.Flag, v.Mark, v.Value} {
		h, err := types.HexToHash(s)
		if err != nil {
			return nil, err
		}
		words[i] = types.Word(h)
	}
	if nonce%buyEvery == buyEvery-1 {
		return signCall(key, nonce, contract, sereth.SelBuy, words[0], words[1], words[2]), nil
	}
	price := sereth.WordFromUint64(uint64(10 + rng.Intn(90)))
	return signCall(key, nonce, contract, sereth.SelSet, words[0], words[1], price), nil
}

// check verifies that every sent transaction is included exactly once
// and nothing else is, and counts the buys that succeeded.
func (rs *roundStats) check(d *datadirNode) {
	counts, receipts := includedTxs(d.node.Chain())
	var sent int
	for _, t := range rs.tallies {
		for _, tx := range t.sent {
			sent++
			if n := counts[tx.Hash()]; n != 1 {
				rs.problems = append(rs.problems, fmt.Sprintf("tx %s included %d times", tx.Hash().Hex(), n))
			}
		}
		for _, h := range t.buys {
			if r := receipts[h]; r != nil && r.Status == types.StatusSucceeded {
				rs.buysOK++
			}
		}
	}
	if len(counts) != sent {
		rs.problems = append(rs.problems, fmt.Sprintf("chain holds %d transactions, %d were sent", len(counts), sent))
	}
	if d.node.Pool().Len() != 0 {
		rs.problems = append(rs.problems, fmt.Sprintf("%d transactions never mined", d.node.Pool().Len()))
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if info, ierr := e.Info(); ierr == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
