// Package chain implements the blockchain: block storage, the state
// transition function, and validation by transaction replay (paper
// §II-D). Failed transactions stay in their block and consume gas but
// leave no state effects — they count toward raw throughput and against
// state throughput.
package chain

import (
	"errors"
	"fmt"
	"sync"

	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// Chain errors.
var (
	ErrUnknownParent   = errors.New("chain: unknown parent block")
	ErrBadNumber       = errors.New("chain: non-sequential block number")
	ErrBadStateRoot    = errors.New("chain: state root mismatch after replay")
	ErrBadTxRoot       = errors.New("chain: transaction root mismatch")
	ErrBadReceiptRoot  = errors.New("chain: receipt root mismatch")
	ErrBadGasUsed      = errors.New("chain: gas-used mismatch")
	ErrBadSeal         = errors.New("chain: invalid proof-of-work seal")
	ErrBadSignature    = errors.New("chain: invalid transaction signature")
	ErrBadNonce        = errors.New("chain: invalid transaction nonce")
	ErrGasLimitReached = errors.New("chain: block gas limit exceeded")
	ErrForkTooShort    = errors.New("chain: competing chain does not exceed current head")
)

// Config parameterizes a chain instance.
type Config struct {
	// GasLimit is the per-block gas limit.
	GasLimit uint64
	// Difficulty gates the PoW seal; zero disables seal checking (the
	// experiments elect a sealer instead of racing, see DESIGN.md §5).
	Difficulty uint64
	// Registry verifies transaction signatures; nil skips verification.
	Registry *wallet.Registry
	// ExecCache, when set, shares validated block executions across every
	// chain wired to the same instance (the in-process peers of a
	// simulation): each block body is replayed once and subsequent
	// importers verify the header against the memoized roots.
	ExecCache *ExecCache
	// LazyValidation adopts cached executions without independent root
	// comparison — the scale-sweep client mode. Blocks missing from the
	// cache still get the full replay; without an ExecCache the flag has
	// no effect.
	LazyValidation bool
	// Store, when set, persists the chain: every adopted block flushes
	// its dirty state-trie paths, body and head pointer into the store,
	// and Open recovers head state from it without replaying the chain.
	// nil keeps the chain fully in-memory (the default; η results are
	// bit-identical either way — persistence only mirrors what the
	// in-memory tries already committed to).
	Store store.Store
	// SyncEvery, with a Store attached, forces the store to stable
	// storage (Sync) after every Nth adopted block, bounding how much a
	// crash can lose to an unsynced tail. 0 never syncs explicitly
	// (Close still flushes).
	SyncEvery int
}

// DefaultConfig mirrors the paper's private-net parameterization: blocks
// large enough for O(10^1..10^2) transactions.
func DefaultConfig() Config {
	return Config{GasLimit: 10_000_000}
}

// Chain is an append-only blockchain with replay validation. Safe for
// concurrent use.
type Chain struct {
	cfg  Config
	proc *Processor

	mu sync.RWMutex
	// blocks is the canonical chain as a dense slice: blocks[i] has
	// number base+i. base is 0 for chains grown from genesis and the
	// snapshot head's number for snapshot-bootstrapped chains, which
	// have no history below their snapshot point.
	base     uint64
	blocks   []*types.Block
	byHash   map[types.Hash]*types.Block
	receipts map[types.Hash][]*types.Receipt // block hash -> receipts
	state    *statedb.StateDB                // post-head state
	// posts retains every adopted block's post state by block hash, so a
	// longest-chain reorg (ImportFork) can re-validate a competing branch
	// from its attachment point. Post states are immutable once flushed
	// and structurally share unchanged trie nodes, so retention is cheap
	// at simulation scale.
	posts    map[types.Hash]*statedb.StateDB
	orphaned uint64 // canonical blocks displaced by reorgs
}

// New creates a chain whose genesis commits the given pre-state.
func New(cfg Config, genesisState *statedb.StateDB) *Chain {
	if genesisState == nil {
		genesisState = statedb.New()
	}
	state := genesisState.Copy()
	genesis := &types.Block{Header: &types.Header{
		Number:    0,
		StateRoot: state.Root(),
		GasLimit:  cfg.GasLimit,
	}}
	c := &Chain{
		cfg:      cfg,
		proc:     NewProcessor(cfg),
		blocks:   []*types.Block{genesis},
		byHash:   map[types.Hash]*types.Block{genesis.Hash(): genesis},
		receipts: map[types.Hash][]*types.Receipt{},
		state:    state,
		posts:    map[types.Hash]*statedb.StateDB{genesis.Hash(): state},
	}
	if cfg.Store != nil {
		// Persist genesis so a datadir created now recovers later even if
		// no block is ever adopted. Persist errors at construction are
		// deliberately fatal-by-panic: a node that silently starts without
		// its datadir would lose every block it adopts.
		if err := c.persistLocked(genesis, state); err != nil {
			panic(fmt.Sprintf("chain: persist genesis: %v", err))
		}
	}
	return c
}

// Processor returns the chain's block-execution pipeline.
func (c *Chain) Processor() *Processor { return c.proc }

// Config returns the chain configuration.
func (c *Chain) Config() Config { return c.cfg }

// Head returns the current head block.
func (c *Chain) Head() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1]
}

// Height returns the head block number.
func (c *Chain) Height() uint64 { return c.Head().Number() }

// BlockByNumber returns the block at the given height, or nil. On a
// snapshot-bootstrapped chain, heights below the snapshot point have no
// stored block.
func (c *Chain) BlockByNumber(n uint64) *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n < c.base || n-c.base >= uint64(len(c.blocks)) {
		return nil
	}
	return c.blocks[n-c.base]
}

// Base returns the lowest block number the chain holds: 0 for chains
// grown from genesis, the snapshot head for bootstrapped chains.
func (c *Chain) Base() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base
}

// BlockByHash returns the block with the given hash, or nil.
func (c *Chain) BlockByHash(h types.Hash) *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byHash[h]
}

// Receipts returns the receipts of a block by hash.
func (c *Chain) Receipts(blockHash types.Hash) []*types.Receipt {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.receipts[blockHash]
}

// State returns a copy of the post-head world state.
func (c *Chain) State() *statedb.StateDB {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state.Copy()
}

// ReadState runs fn against the live head state under the chain lock;
// fn must not mutate the state. Cheaper than State() for point reads.
func (c *Chain) ReadState(fn func(*statedb.StateDB)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.state)
}

// ReadHeadState runs fn against the head block AND the live head state
// under one lock acquisition, so callers observe a consistent
// (header, state) pair — reading Head() and then locking separately
// can tear across a concurrent import. fn must not mutate the state.
func (c *Chain) ReadHeadState(fn func(head *types.Block, st *statedb.StateDB)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.blocks[len(c.blocks)-1], c.state)
}

// Process replays a block body against a parent state copy through the
// chain's processor, returning the full validated transition — receipts
// from one arena slab plus the memoized state and receipt roots. Miners
// build headers from it; InsertBlock verifies against it; the two never
// re-derive a root the processor already produced.
func (c *Chain) Process(parentState *statedb.StateDB, header *types.Header, txs []*types.Transaction) (*ExecResult, error) {
	return c.proc.Process(parentState, header, txs)
}

// InsertBlock validates a block and appends it to the chain. Without an
// ExecCache every peer re-executes the body and checks the roots (§II-D,
// validation by full replay). With a shared cache the first importer
// replays and memoizes; later importers verify the header against the
// memoized roots (or, in lazy-validation mode, adopt them outright) and
// share the flushed post state instead of recomputing it.
func (c *Chain) InsertBlock(block *types.Block) ([]*types.Receipt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	head := c.blocks[len(c.blocks)-1]
	if block.Header.ParentHash != head.Hash() {
		return nil, fmt.Errorf("%w: %s", ErrUnknownParent, block.Header.ParentHash.Hex())
	}
	if block.Header.Number != head.Number()+1 {
		return nil, fmt.Errorf("%w: got %d want %d", ErrBadNumber, block.Header.Number, head.Number()+1)
	}
	if err := c.verifySeal(block.Header); err != nil {
		return nil, err
	}

	receipts, post, err := c.verifyBlockLocked(head.Header.StateRoot, c.state, block)
	if err != nil {
		return nil, err
	}
	if err := c.adopt(block, receipts, post); err != nil {
		return nil, err
	}
	return receipts, nil
}

// verifyBlockLocked validates a block body against its parent state
// (cache-aware) and returns the resulting receipts and post state. It
// does not check parent linkage, number, or seal — callers do — and does
// not mutate the chain.
func (c *Chain) verifyBlockLocked(parentRoot types.Hash, parentState *statedb.StateDB, block *types.Block) ([]*types.Receipt, *statedb.StateDB, error) {
	key := ExecKey{ParentRoot: parentRoot, BlockHash: block.Hash()}
	if c.cfg.ExecCache != nil {
		if entry, ok := c.cfg.ExecCache.Get(key); ok {
			if !c.cfg.LazyValidation {
				// Independent verification by root comparison: the body is
				// authenticated against the header (whose hash keyed the
				// entry), and the memoized execution must land exactly on
				// the header's claims.
				// block.TxRoot() is memoized on the shared block instance:
				// derived once (by the miner at build time or the first
				// importer), reused by every later peer. This authenticates
				// REBUILT bodies — a block reconstructed with a different
				// Txs list is a new instance with a cold cache, so swapped
				// transactions still die here on cache hits. What it does
				// NOT re-detect is in-place mutation of the shared frozen
				// instance after its root was derived; like the pool's
				// frozen transactions and the cache's shared post states,
				// an admitted block's body is immutable by contract.
				if got := block.TxRoot(); got != block.Header.TxRoot {
					return nil, nil, ErrBadTxRoot
				}
				if entry.GasUsed != block.Header.GasUsed {
					return nil, nil, fmt.Errorf("%w: replay %d, header %d", ErrBadGasUsed, entry.GasUsed, block.Header.GasUsed)
				}
				if entry.ReceiptRoot != block.Header.ReceiptRoot {
					return nil, nil, ErrBadReceiptRoot
				}
				if entry.StateRoot != block.Header.StateRoot {
					return nil, nil, fmt.Errorf("%w: replay %s, header %s", ErrBadStateRoot, entry.StateRoot.Hex(), block.Header.StateRoot.Hex())
				}
			}
			return entry.Receipts, entry.Post, nil
		}
	}

	if got := block.TxRoot(); got != block.Header.TxRoot {
		return nil, nil, ErrBadTxRoot
	}
	// One Process call yields the receipts AND the memoized roots; the
	// header checks below compare against them instead of re-deriving,
	// and a cache Put shares the very same ExecResult with every later
	// importer.
	res, err := c.proc.Process(parentState, block.Header, block.Txs)
	if err != nil {
		return nil, nil, err
	}
	if res.GasUsed != block.Header.GasUsed {
		return nil, nil, fmt.Errorf("%w: replay %d, header %d", ErrBadGasUsed, res.GasUsed, block.Header.GasUsed)
	}
	if res.ReceiptRoot != block.Header.ReceiptRoot {
		return nil, nil, ErrBadReceiptRoot
	}
	if res.StateRoot != block.Header.StateRoot {
		return nil, nil, fmt.Errorf("%w: replay %s, header %s", ErrBadStateRoot, res.StateRoot.Hex(), block.Header.StateRoot.Hex())
	}
	if c.cfg.ExecCache != nil {
		c.cfg.ExecCache.Put(key, res)
	}
	return res.Receipts, res.Post, nil
}

// ImportFork adopts a competing branch under the longest-chain rule.
// blocks must be a parent-linked ascending run whose first block attaches
// to a canonical block and whose tip is strictly higher than the current
// head; already-canonical prefix blocks are skipped. Every non-canonical
// block is fully validated (seal, tx root, replay against the stored
// parent post state) before ANY chain state changes — a branch that fails
// validation leaves the chain untouched. Returns the number of canonical
// blocks orphaned by the switch.
func (c *Chain) ImportFork(blocks []*types.Block) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(blocks) == 0 {
		return 0, fmt.Errorf("%w: empty fork", ErrForkTooShort)
	}
	// Skip the prefix we already have.
	i := 0
	for ; i < len(blocks); i++ {
		num := blocks[i].Number()
		if num >= c.base && num-c.base < uint64(len(c.blocks)) && c.blocks[num-c.base].Hash() == blocks[i].Hash() {
			continue
		}
		break
	}
	fork := blocks[i:]
	if len(fork) == 0 {
		return 0, nil // entirely canonical already
	}
	first := fork[0]
	attach := first.Number()
	if attach <= c.base {
		// Below base there is no stored parent state to validate against
		// (genesis for ordinary chains, the snapshot head for
		// bootstrapped ones).
		return 0, fmt.Errorf("%w: fork attaches at or below base block %d", ErrUnknownParent, c.base)
	}
	if attach-c.base >= uint64(len(c.blocks)) {
		return 0, fmt.Errorf("%w: fork attaches above head", ErrUnknownParent)
	}
	parent := c.blocks[attach-1-c.base]
	if first.Header.ParentHash != parent.Hash() {
		return 0, fmt.Errorf("%w: %s", ErrUnknownParent, first.Header.ParentHash.Hex())
	}
	tip := fork[len(fork)-1].Number()
	if head := c.blocks[len(c.blocks)-1].Number(); tip <= head {
		return 0, fmt.Errorf("%w: fork tip %d, head %d", ErrForkTooShort, tip, head)
	}

	// Validate the whole branch before touching canonical state.
	parentState, ok := c.posts[parent.Hash()]
	if !ok {
		return 0, fmt.Errorf("%w: no stored state for %s", ErrUnknownParent, parent.Hash().Hex())
	}
	type validated struct {
		receipts []*types.Receipt
		post     *statedb.StateDB
	}
	results := make([]validated, len(fork))
	prev := parent
	prevState := parentState
	for j, b := range fork {
		if b.Header.ParentHash != prev.Hash() {
			return 0, fmt.Errorf("%w: fork not parent-linked at %d", ErrUnknownParent, b.Number())
		}
		if b.Header.Number != prev.Number()+1 {
			return 0, fmt.Errorf("%w: got %d want %d", ErrBadNumber, b.Header.Number, prev.Number()+1)
		}
		if err := c.verifySeal(b.Header); err != nil {
			return 0, err
		}
		receipts, post, err := c.verifyBlockLocked(prev.Header.StateRoot, prevState, b)
		if err != nil {
			return 0, err
		}
		results[j] = validated{receipts: receipts, post: post}
		prev, prevState = b, post
	}

	// Commit: truncate the losing suffix and splice in the winner. Orphaned
	// blocks stay reachable in byHash/receipts as side-chain data; their
	// transactions are NOT re-injected into pools (measured as orphan loss
	// by the simulator, where a production node would re-broadcast them).
	orphaned := len(c.blocks) - int(attach-c.base)
	c.blocks = c.blocks[:attach-c.base]
	for j, b := range fork {
		hash := b.Hash()
		c.blocks = append(c.blocks, b)
		c.byHash[hash] = b
		c.receipts[hash] = results[j].receipts
		c.posts[hash] = results[j].post
	}
	c.state = results[len(results)-1].post
	c.orphaned += uint64(orphaned)
	if c.cfg.Store != nil {
		// Rewrite the reorged numbers (the log's last-write-wins replay
		// makes the new branch canonical on recovery) and move the head.
		// The branch is already fully validated and adopted in memory, so
		// persist errors only degrade restart fidelity.
		for j, b := range fork {
			var post *statedb.StateDB
			if j == len(fork)-1 {
				post = results[j].post
			}
			if err := c.persistLocked(b, post); err != nil {
				return orphaned, fmt.Errorf("chain: persist fork block %d: %w", b.Number(), err)
			}
		}
	}
	return orphaned, nil
}

// Orphaned returns the total number of canonical blocks displaced by
// reorgs over the chain's lifetime.
func (c *Chain) Orphaned() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.orphaned
}

// adopt appends a validated block. post must be flushed (Root called);
// it may be shared with other chains and is never mutated in place —
// every execution copies it first (Process) and reads go through
// ReadState/State. With a store configured, the block is persisted
// BEFORE the in-memory adoption so a persist failure leaves memory and
// disk agreeing on the old head.
func (c *Chain) adopt(block *types.Block, receipts []*types.Receipt, post *statedb.StateDB) error {
	if c.cfg.Store != nil {
		if err := c.persistLocked(block, post); err != nil {
			return fmt.Errorf("chain: persist block %d: %w", block.Number(), err)
		}
	}
	hash := block.Hash()
	c.blocks = append(c.blocks, block)
	c.byHash[hash] = block
	c.receipts[hash] = receipts
	c.posts[hash] = post
	c.state = post
	return nil
}

// verifySeal checks the PoW target when difficulty is enabled.
func (c *Chain) verifySeal(h *types.Header) error {
	if c.cfg.Difficulty == 0 {
		return nil
	}
	if !SealValid(h, c.cfg.Difficulty) {
		return ErrBadSeal
	}
	return nil
}

// SealValid reports whether the header's PoW nonce satisfies the
// difficulty target: the first 8 bytes of Keccak(sealHash ‖ nonce),
// interpreted big-endian, must be below 2^64 / difficulty.
func SealValid(h *types.Header, difficulty uint64) bool {
	if difficulty <= 1 {
		return true
	}
	digest := sealDigest(h)
	target := ^uint64(0) / difficulty
	return digest <= target
}

func sealDigest(h *types.Header) uint64 {
	seal := h.SealHash()
	var nonceBytes [8]byte
	for i := 0; i < 8; i++ {
		nonceBytes[7-i] = byte(h.PowNonce >> (8 * i))
	}
	digest := types.Keccak(seal[:], nonceBytes[:])
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(digest[i])
	}
	return v
}

// Seal searches nonces until the header satisfies the difficulty, up to
// maxIter attempts. It reports whether a valid nonce was found; on
// failure the header's nonce is left exactly as it was (an exhausted
// search must not leak maxIter-1 into a header that callers may retry
// or discard).
func Seal(h *types.Header, difficulty, maxIter uint64) bool {
	if difficulty <= 1 {
		return true
	}
	orig := h.PowNonce
	for i := uint64(0); i < maxIter; i++ {
		h.PowNonce = i
		if SealValid(h, difficulty) {
			return true
		}
	}
	h.PowNonce = orig
	return false
}
