package scenarios

import (
	"testing"

	"sereth/internal/chain"
	"sereth/internal/evm"
	"sereth/internal/keccak"
	"sereth/internal/wallet"
)

// replayCount inserts the fixture block on a fresh chain and returns
// the keccak invocation count the insertion cost plus the receipts, so
// callers can pin both the hash budget and bit-identity of the outcome.
func replayCount(t *testing.T, f *ReplayFixture, c *chain.Chain) (uint64, []byte) {
	t.Helper()
	before := keccak.Invocations()
	receipts, err := c.InsertBlock(f.Block)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	n := keccak.Invocations() - before
	var enc []byte
	for _, r := range receipts {
		enc = r.AppendRLP(enc)
	}
	return n, enc
}

// TestReplayKeccakCountDrop is the tentpole acceptance assertion: the
// hash-elision layer must cut the keccak invocation count of a full
// 100-tx block replay by at least 40% against the pre-elision baseline
// (elision disabled, cold signature registry — exactly what every
// importer used to pay), with bit-identical receipts.
func TestReplayKeccakCountDrop(t *testing.T) {
	f := NewReplayFixture(100)

	// Baseline: no interpreter elision, and a cold registry so every
	// signature verification recomputes its keyed keccak.
	coldReg := wallet.NewRegistry()
	coldReg.Register(f.Owner)
	evm.SetElisionDisabled(true)
	base, baseReceipts := replayCount(t, f, f.NewChainWithRegistry(coldReg))
	evm.SetElisionDisabled(false)

	// Warm-up: restore the fixture registry's verified flags (the
	// baseline run above re-tagged the shared instances with coldReg),
	// putting the instances in the state a gossiped, pool-admitted
	// transaction reaches every real importer in.
	if _, err := f.NewChain(nil).InsertBlock(f.Block); err != nil {
		t.Fatalf("warm-up insert: %v", err)
	}

	elided, elidedReceipts := replayCount(t, f, f.NewChain(nil))

	if string(baseReceipts) != string(elidedReceipts) {
		t.Fatal("elided replay produced different receipts than the raw baseline")
	}
	t.Logf("keccak/100-tx replay: baseline %d, elided %d (%.1f%% drop)",
		base, elided, 100*float64(base-elided)/float64(base))
	if base == 0 || float64(elided) > 0.6*float64(base) {
		t.Fatalf("elision drop below 40%%: baseline %d, elided %d", base, elided)
	}
}
