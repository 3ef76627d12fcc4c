package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/rpc"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

func TestHTTPTimeoutsAllSet(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": s.ReadHeaderTimeout,
		"ReadTimeout":       s.ReadTimeout,
		"WriteTimeout":      s.WriteTimeout,
		"IdleTimeout":       s.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s unset", name)
		}
	}
}

// TestSlowHeaderClientCutOff opens a connection that sends a partial
// request header and then stalls. The server must close it once the
// header timeout passes (shortened here to keep the test fast), while
// /health keeps answering other clients.
func TestSlowHeaderClientCutOff(t *testing.T) {
	contract := types.Address{19: 0xcc}
	genesis := statedb.New()
	genesis.SetCode(contract, asm.SerethContract())
	n, err := node.New(node.Config{
		ID: 1, Mode: node.ModeSereth, Miner: node.MinerNone,
		Contract: contract, Chain: chain.DefaultConfig(), Genesis: genesis,
		Network: p2p.NewNetwork(p2p.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", rpc.NewServer(n, contract))
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = slow.Close() }()
	if _, err := io.WriteString(slow, "POST / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/health")
	if err != nil {
		t.Fatalf("health while a client stalls: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status %d", resp.StatusCode)
	}

	// The stalled client gets at most an error response, then EOF; a
	// read that is still blocked at the deadline means it was not cut off.
	if err := slow.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.Copy(io.Discard, slow)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("stalled-header connection still open after 5 s")
	}
	t.Logf("stalled client cut off after %v", time.Since(start).Round(time.Millisecond))
}
