package evm

import (
	"bytes"
	"sync/atomic"

	"sereth/internal/types"
)

// Hash elision: the interpreter's SHA3 handler consults admission-time
// derived data before running a sponge. Two layers, both content-keyed
// and therefore self-validating — an entry is only served when the
// hashed region is byte-equal to the input the cached digest was
// derived from, so a stale or misdirected hint can cost a memcmp but
// never change a result:
//
//  1. TxHint — the executing transaction's memoized HMS mark plus the
//     exact 64-byte prevMark‖value calldata region it was derived from
//     (types.Memoize fused that digest out of the same bytes at pool
//     admission). The Sereth contract's mark derivation re-hashes
//     precisely those bytes, so the dominant semantic SHA3 of every
//     set/buy becomes a 64-byte compare.
//  2. sha3Memo — a tiny direct-mapped memo over recent small SHA3
//     inputs, catching the contract's repeated equal-content digests
//     within a block (the mark check hashes the same 32 bytes twice on
//     the success path).
//
// Only the jump-table path (Call) elides. CallGeneric stays on the raw
// sponge: it is the bit-identity reference the differential fuzz pins
// the elided path against.

// TxHint carries the executing transaction's admission-derived digests
// as content→digest pairs: Mark is Keccak-256 over exactly the bytes
// of MarkInput (the 64-byte prevMark‖value region) and PrevDigest over
// exactly PrevInput (the 32-byte prevMark region). The chain's
// applyTransaction sets it from Transaction.MarkHint/PrevHint before
// every call, the zero TxHint included, so a hint can never outlive its
// transaction on the machine the processor reuses across a body.
type TxHint struct {
	MarkInput  []byte
	Mark       types.Word
	PrevInput  []byte
	PrevDigest types.Word
}

// elisionOff is the test/bench kill switch: counter-pinned tests
// measure the pre-elision hash count of a workload by flipping it.
// Atomic so flipping it between runs stays race-clean next to pooled
// worker goroutines; the uncontended load is noise next to a sponge.
var elisionOff atomic.Bool

// SetElisionDisabled disables (true) or re-enables (false) the SHA3
// elision layer process-wide. A test/bench hook — production leaves
// elision on; results are bit-identical either way.
func SetElisionDisabled(v bool) { elisionOff.Store(v) }

// sha3Memo geometry: 8 direct-mapped slots over inputs up to 64 bytes
// covers the contract set's working set (32-byte mark checks, 64-byte
// mark derivations) without the lookup itself costing a hash.
const (
	sha3MemoSlots   = 8
	sha3MemoMaxSize = 64
)

type sha3MemoEntry struct {
	used bool
	size int
	in   [sha3MemoMaxSize]byte
	out  types.Word
}

// sha3Memo is a direct-mapped content-keyed digest memo. It embeds by
// value in the EVM (~1 KB, zero allocations) and is deliberately NOT
// cleared on Reset: Keccak is a pure function and every hit is
// verified by bytes.Equal, so entries stay valid across transactions,
// views and state rebinds — which is exactly what lets the second
// equal-content mark check of a transaction hit the first's digest.
type sha3Memo struct {
	entries [sha3MemoSlots]sha3MemoEntry
}

// slot picks the direct-mapped bucket: length plus boundary bytes is
// enough to keep the contract's distinct inputs from thrashing one
// slot, and a collision only costs a recompute.
func (m *sha3Memo) slot(data []byte) *sha3MemoEntry {
	h := uint(len(data))
	if len(data) > 0 {
		h = h*131 + uint(data[0])
		h = h*131 + uint(data[len(data)-1])
	}
	return &m.entries[h%sha3MemoSlots]
}

func (m *sha3Memo) lookup(data []byte) (types.Word, bool) {
	if len(data) > sha3MemoMaxSize {
		return types.Word{}, false
	}
	e := m.slot(data)
	if e.used && e.size == len(data) && bytes.Equal(e.in[:e.size], data) {
		return e.out, true
	}
	return types.Word{}, false
}

func (m *sha3Memo) store(data []byte, out types.Word) {
	if len(data) > sha3MemoMaxSize {
		return
	}
	e := m.slot(data)
	e.used = true
	e.size = len(data)
	copy(e.in[:], data)
	e.out = out
}

// SetTxHint installs the per-transaction hash hint consulted by the
// jump-table SHA3 handler. Pass the zero TxHint to clear it. The chain
// processor sets it immediately before each transaction's call.
func (e *EVM) SetTxHint(h TxHint) { e.hint = h }

// sha3 is the elision-aware Keccak-256 entry point for the jump-table
// SHA3 handler. Gas has already been charged by the caller; this only
// decides whether the sponge has to run.
func (e *EVM) sha3(data []byte) types.Word {
	if elisionOff.Load() {
		return types.Keccak(data).Word()
	}
	// The hint pairs are exact-content matches: hashing precisely the
	// bytes a digest was derived from at admission returns that digest.
	// The non-empty guards keep a cleared hint from matching an empty
	// region (bytes.Equal(nil, []byte{}) is true). On the contract's
	// success path the PrevInput pair also absorbs the equal-content
	// hash of the stored mark.
	if len(e.hint.MarkInput) != 0 && bytes.Equal(e.hint.MarkInput, data) {
		return e.hint.Mark
	}
	if len(e.hint.PrevInput) != 0 && bytes.Equal(e.hint.PrevInput, data) {
		return e.hint.PrevDigest
	}
	if w, ok := e.memo.lookup(data); ok {
		return w
	}
	w := types.Keccak(data).Word()
	e.memo.store(data, w)
	return w
}
