package keccak

import "sync/atomic"

// invocations counts digest finalizations — one per Keccak-256 digest
// produced, whatever the entry point (Sum256, Sum256Into and the
// incremental Hasher's Sum256 all funnel through finalize). The counter exists so the hash-elision layer can be
// asserted by *count* rather than timing: a test records the counter
// around a replay or an admission and pins exactly how many sponges
// actually ran. One relaxed atomic add per digest (sub-nanosecond next
// to the ≥1 permutation every digest pays) keeps the hook cheap enough
// to leave on unconditionally.
var invocations atomic.Uint64

// Invocations returns the process-wide number of Keccak-256 digests
// computed so far. Deltas of this value bracket a code region's true
// hash count; concurrent hashing elsewhere in the process will inflate
// a delta, so count-pinned tests must not run in parallel with other
// hashing work.
func Invocations() uint64 { return invocations.Load() }
