package types

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// TestBlockHashNeverStale pins the memo's safety property: after any
// in-place change to the header, or a swap of the header pointer, the
// block hash is derived from the live header, never served from the
// memo of an earlier one.
func TestBlockHashNeverStale(t *testing.T) {
	mutations := []struct {
		field  string
		mutate func(*Header)
	}{
		{"ParentHash", func(h *Header) { h.ParentHash[0] ^= 1 }},
		{"Number", func(h *Header) { h.Number++ }},
		{"StateRoot", func(h *Header) { h.StateRoot[31] ^= 1 }},
		{"TxRoot", func(h *Header) { h.TxRoot[7] ^= 1 }},
		{"ReceiptRoot", func(h *Header) { h.ReceiptRoot[0] ^= 0x80 }},
		{"Coinbase", func(h *Header) { h.Coinbase[19] ^= 1 }},
		{"Difficulty", func(h *Header) { h.Difficulty++ }},
		{"GasLimit", func(h *Header) { h.GasLimit-- }},
		{"GasUsed", func(h *Header) { h.GasUsed++ }},
		{"Time", func(h *Header) { h.Time++ }},
		{"PowNonce", func(h *Header) { h.PowNonce++ }},
	}
	if n := reflect.TypeOf(Header{}).NumField(); n != len(mutations) {
		t.Fatalf("Header has %d fields, table mutates %d", n, len(mutations))
	}
	want := func(b *Block) Hash { return Keccak(b.Header.EncodeRLP()) }

	b := sampleBlock()
	seen := map[Hash]bool{b.Hash(): true}
	for _, m := range mutations {
		m.mutate(b.Header)
		got := b.Hash()
		if got != want(b) {
			t.Fatalf("after mutating %s: Hash %s, header digest %s", m.field, got.Hex(), want(b).Hex())
		}
		if seen[got] {
			t.Fatalf("after mutating %s: hash repeats an earlier header's", m.field)
		}
		seen[got] = true
		if b.Hash() != got {
			t.Fatalf("after mutating %s: memoized hash unstable", m.field)
		}
	}

	// Swapping the pointer for an equal header keeps the hash; swapping
	// it for a different one re-derives.
	before := b.Hash()
	cp := *b.Header
	b.Header = &cp
	if b.Hash() != before {
		t.Fatal("equal replacement header changed the hash")
	}
	b.Header = sampleBlock().Header
	if got := b.Hash(); got != want(b) || got == before {
		t.Fatalf("swapped header served %s, want %s", got.Hex(), want(b).Hex())
	}
}

func TestBlockHashConcurrent(t *testing.T) {
	b := sampleBlock()
	want := b.Header.Hash()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if b.Hash() != want {
					t.Error("concurrent Hash diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecodeBlock fuzzes the decoder every gossiped, synced and stored
// block goes through: it must never panic, any block it accepts must
// re-encode byte-identically (the encoding is canonical), and the
// decoded block's hash must be the digest of its header encoding. The
// seed corpus in testdata holds a mined block, an empty-body block and a
// mined block with its tail cut off.
func FuzzDecodeBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return
		}
		if enc := b.EncodeRLP(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted input re-encodes differently:\n in %x\nout %x", data, enc)
		}
		if b.Hash() != Keccak(b.Header.EncodeRLP()) {
			t.Fatal("decoded block hash is not the header digest")
		}
	})
}
