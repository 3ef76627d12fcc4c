package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sereth"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/rpc"
	"sereth/internal/store"
	"sereth/internal/types"
)

// conns is the number of closed-loop client connections of the serving
// workloads: one per core of the 2-core reference host.
const conns = 2

// rpcFixture is one Sereth node served by rpc.Server on a loopback
// listener.
type rpcFixture struct {
	node      *node.Node
	server    *rpc.Server
	http      *http.Server
	served    chan error
	url       string
	contract  types.Address
	transport *http.Transport
	client    *http.Client
	timed     *timedHandler
}

// fixtureConfig describes the node behind a fixture. A store-backed
// node keeps serethnode's durability policy: appends reach the store at
// every block and Close syncs, with no per-block fsync.
type fixtureConfig struct {
	seed     int64
	registry *sereth.Registry
	store    store.Store // nil = in-memory chain
}

func nodeConfig(fc fixtureConfig, contract types.Address, genesis *sereth.StateDB) node.Config {
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = fc.registry
	cfg := node.Config{
		ID:       1,
		Mode:     node.ModeSereth,
		Miner:    node.MinerSemantic,
		Contract: contract,
		Chain:    chainCfg,
		Genesis:  genesis,
		Network:  sereth.NewNetwork(sereth.NetworkConfig{}),
		Seed:     fc.seed,
	}
	if fc.store != nil {
		cfg.Store = fc.store
	}
	return cfg
}

// startFixture boots the node and its server and waits until the first
// request is answered.
func startFixture(fc fixtureConfig) (*rpcFixture, error) {
	genesis, contract := sereth.NewGenesisWithContract()
	n, err := node.New(nodeConfig(fc, contract, genesis))
	if err != nil {
		return nil, err
	}
	f := &rpcFixture{node: n, contract: contract, served: make(chan error, 1)}
	f.server = rpc.NewServer(n, contract, rpc.WithMaxInFlight(64))
	f.timed = &timedHandler{next: f.server}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = n.Close()
		return nil, err
	}
	f.url = "http://" + ln.Addr().String() + "/"
	f.http = &http.Server{Handler: f.timed, ReadHeaderTimeout: 5 * time.Second}
	go func() { f.served <- f.http.Serve(ln) }()
	f.transport = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	f.client = &http.Client{Transport: f.transport, Timeout: 10 * time.Second}
	c := f.conn(nil)
	if _, err := c.call("eth_blockNumber", ""); err != nil {
		_ = f.stop()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return f, nil
}

// stop shuts the HTTP server down, then drains rpc.Server, which flushes
// and closes the node's store.
func (f *rpcFixture) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.http.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.transport.CloseIdleConnections()
	if serr := f.server.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// timedHandler records a server-side span per request while a tracer is
// installed; the request id and method come from the generator's
// headers, so the JSON body is parsed only by rpc.Server.
type timedHandler struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

const (
	hdrOp     = "X-Perfbench-Op"
	hdrMethod = "X-Perfbench-Method"
)

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	id, _ := strconv.ParseUint(r.Header.Get(hdrOp), 10, 64)
	tr.record("rpc.server."+r.Header.Get(hdrMethod), id, 0, t0, time.Now())
}

// loadConn is one closed-loop client connection of the load generator.
type loadConn struct {
	client *http.Client
	url    string
	tr     *tracer
	body   []byte
	resp   bytes.Buffer
	shed   int
	parent uint64 // operation id of the spans recorded next
}

func (f *rpcFixture) conn(tr *tracer) *loadConn {
	return &loadConn{client: f.client, url: f.url, tr: tr}
}

var errShed = errors.New("request shed with 503")

// call sends one JSON-RPC request; params is the rendered JSON of the
// parameter list's elements. It returns the raw result.
func (c *loadConn) call(method, params string) (json.RawMessage, error) {
	id := c.tr.newID()
	c.body = append(c.body[:0], `{"jsonrpc":"2.0","id":`...)
	c.body = strconv.AppendUint(c.body, id, 10)
	c.body = append(c.body, `,"method":"`...)
	c.body = append(c.body, method...)
	c.body = append(c.body, `","params":[`...)
	c.body = append(c.body, params...)
	c.body = append(c.body, "]}"...)
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hdrOp, strconv.FormatUint(id, 10))
	req.Header.Set(hdrMethod, method)
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	c.tr.record("rpc.client."+method, id, c.parent, t0, time.Now())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		c.shed++
		return nil, errShed
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var env struct {
		Result json.RawMessage `json:"result"`
		Error  *struct {
			Code    int    `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(c.resp.Bytes(), &env); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if env.Error != nil {
		return nil, fmt.Errorf("rpc error %d: %s", env.Error.Code, env.Error.Message)
	}
	return env.Result, nil
}

func quoted(s string) string { return `"` + s + `"` }

func hexData(b []byte) string { return "0x" + hex.EncodeToString(b) }

// signCall signs a set or buy call of the Sereth contract.
func signCall(key *sereth.Key, nonce uint64, contract types.Address, sel types.Selector, flag, mark, value types.Word) *types.Transaction {
	return key.SignTx(&types.Transaction{
		Nonce:    nonce,
		To:       contract,
		GasPrice: 10,
		GasLimit: 300_000,
		Data:     sereth.EncodeCall(sel, flag, mark, value),
	})
}

// includedTxs counts every transaction hash in the node's canonical
// chain and returns the receipts by hash.
func includedTxs(c *chain.Chain) (map[types.Hash]int, map[types.Hash]*types.Receipt) {
	counts := make(map[types.Hash]int)
	receipts := make(map[types.Hash]*types.Receipt)
	for i := uint64(1); i <= c.Height(); i++ {
		b := c.BlockByNumber(i)
		for _, tx := range b.Txs {
			counts[tx.Hash()]++
		}
		for _, r := range c.Receipts(b.Hash()) {
			receipts[r.TxHash] = r
		}
	}
	return counts, receipts
}

// latencies collects per-method round trips of one phase.
type latencies map[string][]float64

func (l latencies) merge(o latencies) {
	for k, v := range o {
		l[k] = append(l[k], v...)
	}
}
