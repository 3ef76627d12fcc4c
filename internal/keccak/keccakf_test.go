package keccak

import (
	"math/rand"
	"testing"
)

// stateFromBytes packs up to 200 bytes into a permutation state,
// zero-filling the remainder (little-endian lanes, matching absorption).
func stateFromBytes(b []byte) [25]uint64 {
	var st [25]uint64
	for i, v := range b {
		if i >= 200 {
			break
		}
		st[i>>3] |= uint64(v) << (8 * (uint(i) & 7))
	}
	return st
}

// TestUnrolledMatchesGeneric pins the unrolled permutation bit-identical
// to the loop form across deterministic pseudo-random states, including
// the all-zero and all-ones corners.
func TestUnrolledMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf1600))
	states := [][25]uint64{{}, {}}
	for i := range states[1] {
		states[1][i] = ^uint64(0)
	}
	for n := 0; n < 2000; n++ {
		var st [25]uint64
		for i := range st {
			st[i] = rng.Uint64()
		}
		states = append(states, st)
	}
	for n, st := range states {
		unrolled, generic := st, st
		keccakF1600(&unrolled)
		keccakF1600Generic(&generic)
		if unrolled != generic {
			t.Fatalf("state %d: unrolled permutation diverges from generic", n)
		}
	}
}

// TestUnrolledMatchesGenericIterated chains many permutations so a
// discrepancy anywhere in the round function cannot cancel out.
func TestUnrolledMatchesGenericIterated(t *testing.T) {
	var unrolled, generic [25]uint64
	unrolled[0], generic[0] = 1, 1
	for i := 0; i < 1000; i++ {
		keccakF1600(&unrolled)
		keccakF1600Generic(&generic)
		if unrolled != generic {
			t.Fatalf("iteration %d: permutations diverged", i)
		}
	}
}

// FuzzF1600 fuzzes the unrolled permutation against the generic loop
// form over arbitrary 200-byte states.
func FuzzF1600(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(make([]byte, 200))
	seed := make([]byte, 200)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		st := stateFromBytes(raw)
		unrolled, generic := st, st
		keccakF1600(&unrolled)
		keccakF1600Generic(&generic)
		if unrolled != generic {
			t.Fatalf("unrolled permutation diverges from generic for state %x", raw)
		}
	})
}

// FuzzSum256 fuzzes the one-shot stack sponge against the buffered
// Hasher path: arbitrary input, arbitrary two-point split into Write
// calls, plus the multi-slice one-shot form. All four finalization
// variants must agree.
func FuzzSum256(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte("abc"), uint16(1), uint16(2))
	f.Add(make([]byte, 136), uint16(135), uint16(136))
	f.Add(make([]byte, 300), uint16(136), uint16(137))
	f.Fuzz(func(t *testing.T, data []byte, rawI, rawJ uint16) {
		i, j := int(rawI), int(rawJ)
		if i > len(data) {
			i = len(data)
		}
		if j < i {
			j = i
		}
		if j > len(data) {
			j = len(data)
		}
		oneShot := Sum256(data)
		if multi := Sum256(data[:i], data[i:j], data[j:]); multi != oneShot {
			t.Fatalf("multi-slice one-shot differs at split (%d,%d)", i, j)
		}
		h := New()
		_, _ = h.Write(data[:i])
		_, _ = h.Write(data[i:j])
		_, _ = h.Write(data[j:])
		if buffered := h.Sum256(); buffered != oneShot {
			t.Fatalf("buffered Write path differs at split (%d,%d)", i, j)
		}
	})
}

func BenchmarkF1600(b *testing.B) {
	var st [25]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccakF1600(&st)
	}
}

func BenchmarkF1600Generic(b *testing.B) {
	var st [25]uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keccakF1600Generic(&st)
	}
}
