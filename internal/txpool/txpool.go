// Package txpool implements the pending transaction pool (the paper's
// TxPool): the shared, unordered set of transactions waiting to be mined.
// The pool preserves real-time arrival order (the concurrent history of
// §II-B), enforces per-sender nonce uniqueness with price-bump
// replacement, and notifies subscribers as transactions arrive — the
// communication channel Hash-Mark-Set is built on (§III-C).
package txpool

import (
	"errors"
	"fmt"
	"sync"

	"sereth/internal/types"
)

// Pool errors.
var (
	ErrAlreadyKnown = errors.New("txpool: transaction already known")
	ErrUnderpriced  = errors.New("txpool: replacement transaction underpriced")
	ErrPoolFull     = errors.New("txpool: pool is full")
	ErrRejected     = errors.New("txpool: transaction rejected by validator")
)

// Validator pre-screens incoming transactions (signature checks etc.).
type Validator func(*types.Transaction) error

// Option configures a Pool.
type Option func(*Pool)

// WithValidator installs a transaction validator.
func WithValidator(v Validator) Option {
	return func(p *Pool) { p.validate = v }
}

// WithCapacity bounds the number of pending transactions.
func WithCapacity(n int) Option {
	return func(p *Pool) { p.capacity = n }
}

// WithEvictLowest switches the overflow policy from rejection to
// eviction: a transaction arriving at a full pool displaces the
// oldest lowest-priced resident, provided the newcomer pays a strictly
// higher gas price (otherwise it is still rejected). This is the
// sustained-overload behavior real mempools exhibit; the paper's
// orphaning analysis (§V-C) extends to evicted HMS parents.
func WithEvictLowest() Option {
	return func(p *Pool) { p.evictLowest = true }
}

// ChangeKind discriminates pool change events.
type ChangeKind uint8

// Change kinds.
const (
	// TxAdded reports a newly admitted transaction.
	TxAdded ChangeKind = iota + 1
	// TxRemoved reports a transaction leaving the pool (inclusion,
	// replacement, staleness or Clear).
	TxRemoved
)

// Change is one pool mutation, delivered to watchers in the exact order
// it was applied.
type Change struct {
	Kind ChangeKind
	// Tx is the pool's internal memoized instance; watchers must treat
	// it as read-only.
	Tx *types.Transaction
	// Gen is the pool generation after this change was applied.
	Gen uint64
}

// entry is one admission of a transaction. Removal marks it dead
// instead of splicing it out of the arrival log; a transaction removed
// and re-admitted gets a fresh entry at the tail, so the dead one can
// never resurface at its old position.
type entry struct {
	tx   *types.Transaction
	dead bool
}

// slot is the (sender, nonce) pair at most one pending transaction holds.
type slot struct {
	from  types.Address
	nonce uint64
}

// Pool is a concurrency-safe pending transaction pool.
type Pool struct {
	mu  sync.RWMutex
	all map[types.Hash]*entry
	// arrival is the real-time order of admission. Dead entries are
	// skipped and dropped by compactLocked once they dominate the slice.
	arrival  []*entry
	slots    map[slot]*entry
	validate Validator
	capacity int
	// evictLowest selects the overflow policy: evict the oldest
	// lowest-priced resident instead of rejecting the newcomer.
	evictLowest bool
	evicted     uint64
	subs        []func(*types.Transaction)

	// gen counts pool mutations; consumers compare generations to detect
	// staleness without copying the pending set.
	gen      uint64
	watchers []func(Change)

	// snap caches the shared arrival-order snapshot for the current
	// generation so repeated Snapshot calls are allocation-free.
	snap    []*types.Transaction
	snapGen uint64
}

// New returns an empty pool.
func New(opts ...Option) *Pool {
	p := &Pool{
		all:      make(map[types.Hash]*entry),
		slots:    make(map[slot]*entry),
		capacity: 65536,
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Subscribe registers fn to be called (outside the pool lock) for every
// newly admitted transaction. Subscribers must be registered before
// concurrent Adds begin.
func (p *Pool) Subscribe(fn func(*types.Transaction)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.subs = append(p.subs, fn)
}

// Watch registers fn to be called synchronously, under the pool lock,
// for every add and remove, in mutation order. It returns a consistent
// snapshot of the current pending set (arrival order, shared pointers)
// and the pool generation it corresponds to, so watchers can initialize
// their state without missing or double-counting events. Watch must be
// called before concurrent pool mutation begins. Handlers must be fast
// and must not call back into the pool.
func (p *Pool) Watch(fn func(Change)) ([]*types.Transaction, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.watchers = append(p.watchers, fn)
	return p.snapshotLocked(), p.gen
}

// Generation returns the pool's mutation counter. Two equal generations
// bracket an unchanged pending set.
func (p *Pool) Generation() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.gen
}

// Snapshot returns the pending transactions in arrival order without
// copying, plus the generation the snapshot corresponds to. The returned
// slice and transactions are shared: callers must not mutate them.
// Repeated calls at an unchanged generation return the same slice; the
// warm path takes only the read lock so concurrent readers don't
// serialize.
func (p *Pool) Snapshot() ([]*types.Transaction, uint64) {
	p.mu.RLock()
	if p.snap != nil && p.snapGen == p.gen {
		snap, gen := p.snap, p.gen
		p.mu.RUnlock()
		return snap, gen
	}
	p.mu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked(), p.gen
}

func (p *Pool) snapshotLocked() []*types.Transaction {
	if p.snap != nil && p.snapGen == p.gen {
		return p.snap
	}
	out := make([]*types.Transaction, 0, len(p.all))
	for _, e := range p.arrival {
		if !e.dead {
			out = append(out, e.tx)
		}
	}
	p.snap, p.snapGen = out, p.gen
	return out
}

// changedLocked records a mutation and fans it out to watchers while
// still holding the pool lock, preserving mutation order.
func (p *Pool) changedLocked(kind ChangeKind, tx *types.Transaction) {
	p.gen++
	p.snap = nil // drop the stale cache so it cannot pin evicted txs
	if len(p.watchers) == 0 {
		return
	}
	c := Change{Kind: kind, Tx: tx, Gen: p.gen}
	for _, fn := range p.watchers {
		fn(c)
	}
}

// Add admits a transaction. Same-sender same-nonce transactions replace
// the resident one only at a strictly higher gas price.
func (p *Pool) Add(tx *types.Transaction) error {
	_, err := p.Admit(tx)
	return err
}

// Admit is Add returning the pool's memoized instance on success, so
// callers that immediately gossip the transaction can share the frozen
// copy instead of re-copying it per recipient.
func (p *Pool) Admit(tx *types.Transaction) (*types.Transaction, error) {
	if p.validate != nil {
		if err := p.validate(tx); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRejected, err)
		}
	}
	// The pool's instance is immutable once admitted. An already-frozen
	// (memoized) transaction — a gossiped pool instance from another
	// peer — is adopted as-is: it carries its derived data (identity
	// hash, sig digest, mark, verified-signature flag), so admission is
	// a cache hit with no copy and no re-derivation, and every pool in
	// the process shares one frozen instance. A mutable caller-owned
	// transaction is copied first; only its identity hash is computed up
	// front (the duplicate check needs it) and the rest is memoized on
	// the admit path below, so rejected adds don't pay for it.
	if !tx.Memoized() {
		tx = tx.Copy()
	}
	hash := tx.Hash()

	p.mu.Lock()
	if err := p.admitLocked(tx, hash); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	subs := p.subs
	p.mu.Unlock()

	for _, fn := range subs {
		fn(tx.Copy())
	}
	return tx, nil
}

// AdmitBatch admits a batch of transactions under ONE lock acquisition:
// validation, copying and identity hashing happen outside the lock, the
// per-transaction admission decisions (duplicate, replacement, capacity)
// run back-to-back inside it, and subscriber fan-out happens once after
// release. Results align with txs: admitted[i] is the pool's memoized
// instance when errs[i] is nil, and nil otherwise. Admission order —
// and therefore the change feed watchers observe — is exactly the order
// of txs, identical to a sequence of individual Admit calls.
func (p *Pool) AdmitBatch(txs []*types.Transaction) (admitted []*types.Transaction, errs []error) {
	admitted = make([]*types.Transaction, len(txs))
	errs = make([]error, len(txs))
	hashes := make([]types.Hash, len(txs))
	for i, tx := range txs {
		if p.validate != nil {
			if err := p.validate(tx); err != nil {
				errs[i] = fmt.Errorf("%w: %v", ErrRejected, err)
				continue
			}
		}
		// Frozen instances are adopted without a copy, exactly as in
		// Admit — for a gossiped batch the hash below is a cached read.
		cp := tx
		if !cp.Memoized() {
			cp = tx.Copy()
		}
		hashes[i] = cp.Hash()
		admitted[i] = cp
	}

	p.mu.Lock()
	for i, tx := range admitted {
		if tx == nil {
			continue // failed validation above
		}
		if err := p.admitLocked(tx, hashes[i]); err != nil {
			admitted[i], errs[i] = nil, err
		}
	}
	subs := p.subs
	p.mu.Unlock()

	if len(subs) > 0 {
		for _, tx := range admitted {
			if tx == nil {
				continue
			}
			for _, fn := range subs {
				fn(tx.Copy())
			}
		}
	}
	return admitted, errs
}

// admitLocked runs the admission decision for a private, hashed copy:
// duplicate and replacement checks, capacity policy, memoization and
// index insertion, plus the synchronous change feed. Callers hold p.mu.
func (p *Pool) admitLocked(tx *types.Transaction, hash types.Hash) error {
	if _, known := p.all[hash]; known {
		return ErrAlreadyKnown
	}
	key := slot{tx.From, tx.Nonce}
	if prev, replacing := p.slots[key]; replacing {
		// A price bump swaps a resident tx, so it is admissible even at
		// capacity.
		if tx.GasPrice <= prev.tx.GasPrice {
			return ErrUnderpriced
		}
		p.removeLocked(prev)
	} else if len(p.all) >= p.capacity {
		if !p.evictLowest || !p.evictLowestLocked(tx.GasPrice) {
			return ErrPoolFull
		}
	}
	// Admitted: freeze the instance so every later Hash/Selector/FPV/Mark
	// access (views, mining, gossip) is a cached lookup.
	tx.MemoizeWithHash(hash)
	e := &entry{tx: tx}
	p.all[hash] = e
	p.slots[key] = e
	p.arrival = append(p.arrival, e)
	p.changedLocked(TxAdded, tx)
	p.compactLocked()
	return nil
}

// evictLowestLocked frees one slot for a newcomer paying price by
// evicting the oldest resident with the lowest gas price, scanning the
// canonical arrival order so the choice is deterministic. It reports
// whether a slot was freed (false when no resident is priced strictly
// below the newcomer).
func (p *Pool) evictLowestLocked(price uint64) bool {
	var victim *entry
	lowest := price
	for _, e := range p.arrival {
		if !e.dead && e.tx.GasPrice < lowest {
			lowest, victim = e.tx.GasPrice, e
		}
	}
	if victim == nil {
		return false
	}
	p.evicted++
	p.removeLocked(victim)
	return true
}

// Evicted returns the number of transactions displaced by the
// evict-lowest overflow policy.
func (p *Pool) Evicted() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.evicted
}

// Get returns the transaction with the given hash, or nil.
func (p *Pool) Get(hash types.Hash) *types.Transaction {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if e, ok := p.all[hash]; ok {
		return e.tx.Copy()
	}
	return nil
}

// Has reports whether the pool contains the hash.
func (p *Pool) Has(hash types.Hash) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.all[hash]
	return ok
}

// Len returns the number of pending transactions.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.all)
}

// Pending returns the pending transactions in real-time arrival order.
func (p *Pool) Pending() []*types.Transaction {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*types.Transaction, 0, len(p.all))
	for _, e := range p.arrival {
		if !e.dead {
			out = append(out, e.tx.Copy())
		}
	}
	return out
}

// Remove deletes the given transactions (e.g. after block inclusion).
func (p *Pool) Remove(hashes []types.Hash) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range hashes {
		if e, ok := p.all[h]; ok {
			p.removeLocked(e)
		}
	}
	p.compactLocked()
}

// RemoveStale drops every transaction whose nonce is below the sender's
// current account nonce (it can never be included). Watchers see the
// removals in arrival order.
func (p *Pool) RemoveStale(nonceOf func(types.Address) uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.arrival {
		if !e.dead && e.tx.Nonce < nonceOf(e.tx.From) {
			p.removeLocked(e)
		}
	}
	p.compactLocked()
}

// Clear empties the pool, notifying watchers of every eviction in
// arrival order.
func (p *Pool) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.arrival {
		if !e.dead {
			p.removeLocked(e)
		}
	}
	p.arrival = nil
}

// removeLocked retires a live entry. It leaves arrival untouched, so
// callers may remove while walking it; each mutator calls compactLocked
// once it is done.
func (p *Pool) removeLocked(e *entry) {
	e.dead = true
	delete(p.all, e.tx.Hash())
	delete(p.slots, slot{e.tx.From, e.tx.Nonce})
	p.changedLocked(TxRemoved, e.tx)
}

// compactLocked drops dead entries from arrival once the slice has grown
// far past the live set.
func (p *Pool) compactLocked() {
	if len(p.arrival) <= 4*len(p.all)+64 {
		return
	}
	live := p.arrival[:0]
	for _, e := range p.arrival {
		if !e.dead {
			live = append(live, e)
		}
	}
	clear(p.arrival[len(live):]) // release the dead transactions
	p.arrival = live
}
