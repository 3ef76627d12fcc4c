package txpool

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sereth/internal/types"
)

// modelPool is a slice-based reference for Pool: the live transactions
// in arrival order, scanned linearly for every decision.
type modelPool struct {
	capacity    int
	evictLowest bool
	live        []*types.Transaction
	evicted     uint64
	gen         uint64
	changes     []modelChange
}

type modelChange struct {
	kind ChangeKind
	hash types.Hash
	gen  uint64
}

func (m *modelPool) index(h types.Hash) int {
	return slices.IndexFunc(m.live, func(x *types.Transaction) bool { return x.Hash() == h })
}

func (m *modelPool) emit(kind ChangeKind, x *types.Transaction) {
	m.gen++
	m.changes = append(m.changes, modelChange{kind, x.Hash(), m.gen})
}

func (m *modelPool) removeAt(i int) {
	x := m.live[i]
	m.live = slices.Delete(m.live, i, i+1)
	m.emit(TxRemoved, x)
}

func (m *modelPool) add(x *types.Transaction) error {
	if m.index(x.Hash()) >= 0 {
		return ErrAlreadyKnown
	}
	if i := slices.IndexFunc(m.live, func(y *types.Transaction) bool {
		return y.From == x.From && y.Nonce == x.Nonce
	}); i >= 0 {
		if x.GasPrice <= m.live[i].GasPrice {
			return ErrUnderpriced
		}
		m.removeAt(i)
	} else if len(m.live) >= m.capacity {
		victim, lowest := -1, x.GasPrice
		for i, y := range m.live {
			if y.GasPrice < lowest {
				victim, lowest = i, y.GasPrice
			}
		}
		if !m.evictLowest || victim < 0 {
			return ErrPoolFull
		}
		m.evicted++
		m.removeAt(victim)
	}
	m.live = append(m.live, x)
	m.emit(TxAdded, x)
	return nil
}

func (m *modelPool) remove(hashes []types.Hash) {
	for _, h := range hashes {
		if i := m.index(h); i >= 0 {
			m.removeAt(i)
		}
	}
}

func (m *modelPool) removeStale(nonceOf func(types.Address) uint64) {
	for i := 0; i < len(m.live); {
		if x := m.live[i]; x.Nonce < nonceOf(x.From) {
			m.removeAt(i)
		} else {
			i++
		}
	}
}

func (m *modelPool) clear() {
	for len(m.live) > 0 {
		m.removeAt(0)
	}
}

// TestPoolMatchesModel drives seeded random operation sequences through
// the pool and the reference model and compares every observable after
// each step: Snapshot and Pending order, Len, Has/Get, Evicted, the
// admission errors and the recorded change feed. Long add/remove runs
// over a small live set push dead arrival entries past the compaction
// threshold, which the test asserts is crossed.
func TestPoolMatchesModel(t *testing.T) {
	configs := []struct {
		name        string
		capacity    int
		evictLowest bool
	}{
		{"unbounded", 65536, false},
		{"reject-overflow", 8, false},
		{"evict-lowest", 8, true},
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				opts := []Option{WithCapacity(cfg.capacity)}
				if cfg.evictLowest {
					opts = append(opts, WithEvictLowest())
				}
				runModel(t, rand.New(rand.NewSource(seed)), New(opts...),
					&modelPool{capacity: cfg.capacity, evictLowest: cfg.evictLowest})
			})
		}
	}
}

func runModel(t *testing.T, rng *rand.Rand, p *Pool, m *modelPool) {
	var got []modelChange
	p.Watch(func(c Change) { got = append(got, modelChange{c.Kind, c.Tx.Hash(), c.Gen}) })

	// seen holds every distinct tx ever offered, for re-admission and
	// Has/Get checks.
	var seen []*types.Transaction
	known := make(map[types.Hash]bool)
	see := func(x *types.Transaction) {
		if !known[x.Hash()] {
			known[x.Hash()] = true
			seen = append(seen, x)
		}
	}
	// Offered txs are frozen so the model's hash lookups are cached
	// reads; half the admissions hand the pool a mutable copy instead,
	// which takes the copy-and-hash path.
	offer := func(x *types.Transaction) {
		want := m.add(x)
		in := x
		if rng.Intn(2) == 0 {
			in = x.Copy()
		}
		_, err := p.Admit(in)
		if !errors.Is(err, want) || (err == nil) != (want == nil) {
			t.Fatalf("admit %s: pool %v, model %v", x.Hash().Hex(), err, want)
		}
		see(x)
	}
	pick := func() *types.Transaction { return seen[rng.Intn(len(seen))] }
	fresh := func() *types.Transaction {
		return tx(byte(rng.Intn(6)+1), uint64(rng.Intn(4)), uint64(rng.Intn(8)+1)).Memoize()
	}

	compactions := 0
	for step := 0; step < 2500; step++ {
		arrivalBefore, cleared := len(p.arrival), false
		switch op := rng.Intn(1000); {
		case op < 400 || len(seen) == 0: // fresh tx, often colliding on (sender, nonce)
			offer(fresh())
		case op < 450: // duplicate or re-admission of a removed tx
			offer(pick())
		case op < 500: // priced replacement of a live tx
			if len(m.live) > 0 {
				cur := m.live[rng.Intn(len(m.live))]
				offer(tx(cur.From[19], cur.Nonce, cur.GasPrice+uint64(rng.Intn(2))).Memoize())
			}
		case op < 550: // batch admission
			batch := []*types.Transaction{pick(), fresh(), pick()}
			wants := make([]error, len(batch))
			for i, x := range batch {
				wants[i] = m.add(x)
			}
			_, errs := p.AdmitBatch([]*types.Transaction{batch[0], batch[1], batch[2].Copy()})
			for i := range batch {
				if !errors.Is(errs[i], wants[i]) || (errs[i] == nil) != (wants[i] == nil) {
					t.Fatalf("step %d batch[%d]: pool %v, model %v", step, i, errs[i], wants[i])
				}
			}
			see(batch[1])
		case op < 940: // removal of live and unknown hashes
			var hashes []types.Hash
			for n := rng.Intn(3) + 1; n > 0; n-- {
				hashes = append(hashes, pick().Hash())
			}
			hashes = append(hashes, types.Hash{byte(step)})
			m.remove(hashes)
			p.Remove(hashes)
		case op < 998:
			floors := make(map[types.Address]uint64)
			for s := byte(1); s <= 6; s++ {
				floors[addr(s)] = uint64(rng.Intn(3))
			}
			nonceOf := func(a types.Address) uint64 { return floors[a] }
			m.removeStale(nonceOf)
			p.RemoveStale(nonceOf)
		default: // rare, so dead entries can pile up between clears
			m.clear()
			p.Clear()
			cleared = true
		}
		if len(p.arrival) < arrivalBefore && !cleared {
			compactions++
		}
		if len(p.arrival) > 4*len(p.all)+64 {
			t.Fatalf("step %d: arrival %d entries over %d live, not compacted", step, len(p.arrival), len(p.all))
		}
		compareModel(t, step, p, m, got, seen)
		got, m.changes = got[:0], m.changes[:0]
	}
	if compactions == 0 {
		t.Fatal("the run never crossed the compaction threshold")
	}
}

func compareModel(t *testing.T, step int, p *Pool, m *modelPool, got []modelChange, seen []*types.Transaction) {
	t.Helper()
	want := make([]types.Hash, len(m.live))
	for i, x := range m.live {
		want[i] = x.Hash()
	}
	hashesOf := func(txs []*types.Transaction) []types.Hash {
		out := make([]types.Hash, len(txs))
		for i, x := range txs {
			out[i] = x.Hash()
		}
		return out
	}
	snap, gen := p.Snapshot()
	if !slices.Equal(hashesOf(snap), want) {
		t.Fatalf("step %d: Snapshot diverges from the model", step)
	}
	// Pending and Get return unmemoized copies; compare them by the
	// fields tx() derives a test transaction from rather than re-hashing.
	if !slices.EqualFunc(p.Pending(), m.live, sameTx) {
		t.Fatalf("step %d: Pending diverges from the model", step)
	}
	if p.Len() != len(m.live) || gen != m.gen || p.Evicted() != m.evicted {
		t.Fatalf("step %d: len/gen/evicted %d/%d/%d, model %d/%d/%d",
			step, p.Len(), gen, p.Evicted(), len(m.live), m.gen, m.evicted)
	}
	if !slices.Equal(got, m.changes) {
		t.Fatalf("step %d: change feed diverges from the model", step)
	}
	for _, x := range seen {
		live := m.index(x.Hash()) >= 0
		g := p.Get(x.Hash())
		if p.Has(x.Hash()) != live || (g != nil) != live || (g != nil && !sameTx(g, x)) {
			t.Fatalf("step %d: Has/Get for %s disagree with the model (live %v)", step, x.Hash().Hex(), live)
		}
	}
}

func sameTx(a, b *types.Transaction) bool {
	return a.From == b.From && a.Nonce == b.Nonce && a.GasPrice == b.GasPrice
}
