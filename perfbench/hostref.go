package main

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"time"
)

// hostRef is a fixed reference computation owned by the benchmark. On a
// shared host the speed a vCPU delivers drifts by ±20% over seconds; the
// reference, sampled between stretches of load, measures that drift so
// the time metrics can be reported at a nominal host speed. It touches
// only the standard library and allocates nothing once built, so no
// change to the program can move it.
type hostRef struct {
	keys   [][32]byte
	index  map[[32]byte]int
	perm   []int
	vals   []uint64
	sorted []uint64
	sink   int
}

// refNominal is the reference's median CPU time on the 2-core Intel Xeon
// host the bounds in BENCHMARK.json were set on.
const refNominal = 1300 * time.Microsecond

const refSize = 4096

func newHostRef() *hostRef {
	h := &hostRef{index: make(map[[32]byte]int, refSize), perm: make([]int, refSize),
		vals: make([]uint64, refSize), sorted: make([]uint64, refSize)}
	var buf [8]byte
	for i := 0; i < refSize; i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		k := sha256.Sum256(buf[:])
		h.keys = append(h.keys, k)
		h.index[k] = i
		h.perm[i] = int(binary.LittleEndian.Uint64(k[:8]) % refSize)
		h.vals[i] = binary.LittleEndian.Uint64(k[8:16])
	}
	return h
}

// run performs the reference computation once: hashing, map lookups in
// scattered order, and a sort.
func (h *hostRef) run() {
	for i, k := range h.keys {
		d := sha256.Sum256(k[:])
		h.sink += int(d[0]) + h.index[h.keys[h.perm[i]]]
	}
	copy(h.sorted, h.vals)
	slices.Sort(h.sorted)
	h.sink += int(h.sorted[refSize/2] & 1)
}

// refSamples are the reference timings taken during one phase.
type refSamples struct{ cpu, wall []time.Duration }

// sample times one reference run on the calling goroutine, which holds
// its OS thread (runtime.LockOSThread) so the CPU clock is its own.
func (h *hostRef) sample(s *refSamples) {
	w0, c0 := time.Now(), threadCPU()
	h.run()
	s.cpu = append(s.cpu, threadCPU()-c0)
	s.wall = append(s.wall, time.Since(w0))
}

// cpuScale is the factor that brings a CPU time measured during the
// phase to the nominal host speed; wallScale does the same for wall time.
func (s *refSamples) cpuScale() float64  { return scaleOf(s.cpu) }
func (s *refSamples) wallScale() float64 { return scaleOf(s.wall) }

func scaleOf(ds []time.Duration) float64 {
	m := make([]float64, len(ds))
	for i, d := range ds {
		m[i] = float64(d)
	}
	if len(m) == 0 {
		return 1
	}
	return float64(refNominal) / median(m)
}
