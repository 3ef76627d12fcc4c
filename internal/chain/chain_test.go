package chain

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/statedb"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

var contractAddr = types.Address{19: 0xcc}

func genesisWithContract() *statedb.StateDB {
	st := statedb.New()
	st.SetCode(contractAddr, asm.SerethContract())
	return st
}

func setTxFor(key *wallet.Key, nonce uint64, prev types.Word, value uint64, flag types.Word) *types.Transaction {
	tx := &types.Transaction{
		Nonce:    nonce,
		To:       contractAddr,
		GasPrice: 10,
		GasLimit: 300_000,
		Data:     types.EncodeCall(asm.SelSet, flag, prev, types.WordFromUint64(value)),
	}
	return key.SignTx(tx)
}

// buildBlock assembles a valid next block for the chain from raw txs.
func buildBlock(t testing.TB, c *Chain, txs []*types.Transaction) *types.Block {
	t.Helper()
	head := c.Head()
	header := &types.Header{
		ParentHash: head.Hash(),
		Number:     head.Number() + 1,
		GasLimit:   c.Config().GasLimit,
		Time:       head.Header.Time + 15,
	}
	res, err := c.Process(c.State(), header, txs)
	if err != nil {
		t.Fatalf("execute block: %v", err)
	}
	header.TxRoot = types.DeriveTxRoot(txs)
	header.ReceiptRoot = types.DeriveReceiptRoot(res.Receipts)
	header.StateRoot = res.Post.Root()
	header.GasUsed = res.GasUsed
	if !Seal(header, c.Config().Difficulty, 1<<20) {
		t.Fatal("seal search failed")
	}
	return &types.Block{Header: header, Txs: txs}
}

func newTestChain(t *testing.T, reg *wallet.Registry) *Chain {
	cfg := DefaultConfig()
	cfg.Registry = reg
	return New(cfg, genesisWithContract())
}

func TestGenesis(t *testing.T) {
	c := newTestChain(t, nil)
	if c.Height() != 0 {
		t.Error("genesis height != 0")
	}
	if c.BlockByNumber(0) != c.Head() {
		t.Error("genesis lookup failed")
	}
	if c.BlockByNumber(5) != nil {
		t.Error("phantom block")
	}
	var code []byte
	c.ReadState(func(st *statedb.StateDB) { code = st.GetCode(contractAddr) })
	if len(code) == 0 {
		t.Error("genesis state missing contract")
	}
}

func TestInsertValidBlock(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	block := buildBlock(t, c, []*types.Transaction{tx})
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if len(receipts) != 1 || receipts[0].Status != types.StatusSucceeded {
		t.Fatalf("receipt: %+v", receipts[0])
	}
	if c.Height() != 1 {
		t.Error("height not advanced")
	}
	// Contract state committed.
	var price types.Word
	c.ReadState(func(st *statedb.StateDB) {
		price = st.GetState(contractAddr, types.WordFromUint64(asm.SlotValue))
	})
	if v, _ := price.Uint64(); v != 5 {
		t.Errorf("price = %d", v)
	}
	if got := c.Receipts(block.Hash()); len(got) != 1 {
		t.Error("receipts not stored")
	}
	if c.BlockByHash(block.Hash()) == nil {
		t.Error("hash index missing")
	}
}

func TestFailedTxIncludedButRolledBack(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	// Stale mark: the contract rejects; the tx is included but Failed.
	tx := setTxFor(alice, 0, types.WordFromUint64(123), 5, types.FlagHead)
	block := buildBlock(t, c, []*types.Transaction{tx})
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusFailed {
		t.Error("stale set should fail")
	}
	if receipts[0].GasUsed == 0 {
		t.Error("failed tx must still consume gas")
	}
	var price types.Word
	c.ReadState(func(st *statedb.StateDB) {
		price = st.GetState(contractAddr, types.WordFromUint64(asm.SlotValue))
		// Nonce still advances for included txs.
		if st.GetNonce(alice.Address()) != 1 {
			t.Error("nonce not advanced for failed tx")
		}
	})
	if !price.IsZero() {
		t.Error("failed tx mutated contract state")
	}
}

func TestInsertRejectsTamperedBlock(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)

	tests := []struct {
		name   string
		mutate func(*types.Block)
		want   error
	}{
		{"wrong-parent", func(b *types.Block) { b.Header.ParentHash = types.Hash{1} }, ErrUnknownParent},
		{"wrong-number", func(b *types.Block) { b.Header.Number = 9 }, ErrUnknownParent}, // parent hash checked first? number via parent
		{"state-root", func(b *types.Block) { b.Header.StateRoot = types.Hash{2} }, ErrBadStateRoot},
		{"tx-root", func(b *types.Block) { b.Header.TxRoot = types.Hash{3} }, ErrBadTxRoot},
		{"receipt-root", func(b *types.Block) { b.Header.ReceiptRoot = types.Hash{4} }, ErrBadReceiptRoot},
		{"gas-used", func(b *types.Block) { b.Header.GasUsed++ }, ErrBadGasUsed},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := newTestChain(t, reg)
			block := buildBlock(t, c, []*types.Transaction{setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)})
			tt.mutate(block)
			if _, err := c.InsertBlock(block); err == nil {
				t.Fatal("tampered block accepted")
			} else if tt.want != nil && !errors.Is(err, tt.want) && tt.name != "wrong-number" {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
			if c.Height() != 0 {
				t.Error("tampered block advanced the chain")
			}
		})
	}
}

func TestInsertRejectsTamperedCalldata(t *testing.T) {
	// The RAA limitation demo (paper §III-D): a malicious client rewrites
	// the signed calldata of a transaction; validation by replay rejects
	// the block because the signature no longer matches.
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	tampered := tx.Copy()
	// Double the "price" in the calldata without re-signing.
	tampered.Data[len(tampered.Data)-1] = 10

	head := c.Head()
	header := &types.Header{
		ParentHash: head.Hash(),
		Number:     1,
		GasLimit:   c.Config().GasLimit,
	}
	txs := []*types.Transaction{tampered}
	if _, err := c.Process(c.State(), header, txs); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered calldata: %v", err)
	}
}

func TestNonceEnforcement(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	// Nonce 1 before nonce 0: rejected at execution time.
	tx := setTxFor(alice, 1, types.ZeroWord, 5, types.FlagHead)
	header := &types.Header{ParentHash: c.Head().Hash(), Number: 1, GasLimit: c.Config().GasLimit}
	if _, err := c.Process(c.State(), header, []*types.Transaction{tx}); !errors.Is(err, ErrBadNonce) {
		t.Errorf("bad nonce: %v", err)
	}
}

func TestBlockGasLimit(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	cfg := Config{GasLimit: 100_000, Registry: reg}
	c := New(cfg, genesisWithContract())

	// One 300k-gas-limit tx exceeds the 100k block limit.
	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	header := &types.Header{ParentHash: c.Head().Hash(), Number: 1, GasLimit: cfg.GasLimit}
	if _, err := c.Process(c.State(), header, []*types.Transaction{tx}); !errors.Is(err, ErrGasLimitReached) {
		t.Errorf("gas limit: %v", err)
	}
}

func TestChainedBlocks(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	prevMark := types.ZeroWord
	flag := types.FlagHead
	for i := 0; i < 5; i++ {
		tx := setTxFor(alice, uint64(i), prevMark, uint64(10+i), flag)
		block := buildBlock(t, c, []*types.Transaction{tx})
		receipts, err := c.InsertBlock(block)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if receipts[0].Status != types.StatusSucceeded {
			t.Fatalf("block %d tx failed", i)
		}
		prevMark = types.NextMark(prevMark, types.WordFromUint64(uint64(10+i)))
		flag = types.FlagHead // each block starts fresh from committed state
	}
	if c.Height() != 5 {
		t.Errorf("height = %d", c.Height())
	}
	var mark types.Word
	c.ReadState(func(st *statedb.StateDB) {
		mark = st.GetState(contractAddr, types.WordFromUint64(asm.SlotMark))
	})
	if mark != prevMark {
		t.Error("committed mark chain broken")
	}
}

func TestTwoChainsConverge(t *testing.T) {
	// Validation by replay: an independently-validating peer reaches the
	// same state root (the paper's interoperability property).
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	producer := newTestChain(t, reg)
	validator := newTestChain(t, reg)

	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	block := buildBlock(t, producer, []*types.Transaction{tx})
	if _, err := producer.InsertBlock(block); err != nil {
		t.Fatal(err)
	}
	if _, err := validator.InsertBlock(block); err != nil {
		t.Fatalf("validator rejected honest block: %v", err)
	}
	if producer.State().Root() != validator.State().Root() {
		t.Error("peers diverged after replay")
	}
}

func TestValueTransfer(t *testing.T) {
	alice, bob := wallet.NewKey("alice"), wallet.NewKey("bob")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	reg.Register(bob)
	st := statedb.New()
	st.AddBalance(alice.Address(), 1000)
	cfg := DefaultConfig()
	cfg.Registry = reg
	c := New(cfg, st)

	tx := alice.SignTx(&types.Transaction{
		Nonce: 0, To: bob.Address(), Value: 400, GasPrice: 1, GasLimit: 21000,
	})
	block := buildBlock(t, c, []*types.Transaction{tx})
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusSucceeded {
		t.Error("transfer failed")
	}
	c.ReadState(func(s *statedb.StateDB) {
		if s.GetBalance(bob.Address()) != 400 || s.GetBalance(alice.Address()) != 600 {
			t.Errorf("balances: %d/%d", s.GetBalance(alice.Address()), s.GetBalance(bob.Address()))
		}
	})

	// Overdraft: included but failed.
	tx2 := alice.SignTx(&types.Transaction{
		Nonce: 1, To: bob.Address(), Value: 10_000, GasPrice: 1, GasLimit: 21000,
	})
	block2 := buildBlock(t, c, []*types.Transaction{tx2})
	receipts, err = c.InsertBlock(block2)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusFailed {
		t.Error("overdraft succeeded")
	}
}

func TestContractNoopWithValueFails(t *testing.T) {
	// Regression: a contract-rejected no-op carrying value used to be
	// classified Succeeded — the transfer's own journal entries defeated
	// the "no state effect" check — which skewed η's failed-tx
	// accounting. It must fail AND return the value.
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	genesis := genesisWithContract()
	genesis.AddBalance(alice.Address(), 1000)
	cfg := DefaultConfig()
	cfg.Registry = reg
	c := New(cfg, genesis)

	// Stale mark => the contract rejects the set; the tx carries value.
	tx := alice.SignTx(&types.Transaction{
		Nonce:    0,
		To:       contractAddr,
		Value:    400,
		GasPrice: 10,
		GasLimit: 300_000,
		Data:     types.EncodeCall(asm.SelSet, types.FlagHead, types.WordFromUint64(123), types.WordFromUint64(5)),
	})
	block := buildBlock(t, c, []*types.Transaction{tx})
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusFailed {
		t.Error("contract-rejected no-op with value classified as succeeded")
	}
	c.ReadState(func(st *statedb.StateDB) {
		if got := st.GetBalance(alice.Address()); got != 1000 {
			t.Errorf("value not returned on failure: balance %d", got)
		}
		if got := st.GetBalance(contractAddr); got != 0 {
			t.Errorf("contract kept value of failed tx: %d", got)
		}
		if st.GetNonce(alice.Address()) != 1 {
			t.Error("nonce not advanced for included failed tx")
		}
	})
	// A successful contract call carrying value keeps the transfer.
	tx2 := alice.SignTx(&types.Transaction{
		Nonce:    1,
		To:       contractAddr,
		Value:    100,
		GasPrice: 10,
		GasLimit: 300_000,
		Data:     types.EncodeCall(asm.SelSet, types.FlagHead, types.ZeroWord, types.WordFromUint64(5)),
	})
	block2 := buildBlock(t, c, []*types.Transaction{tx2})
	receipts, err = c.InsertBlock(block2)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusSucceeded {
		t.Error("valid set with value failed")
	}
	c.ReadState(func(st *statedb.StateDB) {
		if got := st.GetBalance(contractAddr); got != 100 {
			t.Errorf("successful call lost its value: contract balance %d", got)
		}
	})
}

func TestSealRestoresNonceOnFailure(t *testing.T) {
	// Regression: an exhausted seal search used to leave maxIter-1 in the
	// header. On failure the original nonce must be restored.
	h := &types.Header{Number: 1, ParentHash: types.Hash{1}, PowNonce: 0xabcd}
	if Seal(h, 1<<63, 4) {
		t.Fatal("4-iteration search at extreme difficulty unexpectedly succeeded")
	}
	if h.PowNonce != 0xabcd {
		t.Errorf("failed seal search mutated nonce: %#x", h.PowNonce)
	}
}

func TestSealRoundTrip(t *testing.T) {
	h := &types.Header{Number: 1, ParentHash: types.Hash{1}}
	// Seal a header whose block hash is already memoized: the search
	// must find what it finds on an untouched copy, and the block hash
	// must follow the nonce the search wrote in place.
	fresh := *h
	block := &types.Block{Header: h}
	block.Hash()
	const difficulty = 16
	if !Seal(h, difficulty, 1<<20) || !Seal(&fresh, difficulty, 1<<20) {
		t.Fatal("seal search failed")
	}
	if !SealValid(h, difficulty) {
		t.Error("found seal does not validate")
	}
	if h.PowNonce != fresh.PowNonce {
		t.Errorf("memoized block sealed to nonce %d, fresh header to %d", h.PowNonce, fresh.PowNonce)
	}
	if block.Hash() != fresh.Hash() {
		t.Error("block hash did not follow the sealed nonce")
	}
	// Difficulty <= 1 always valid.
	if !SealValid(&types.Header{}, 0) || !SealValid(&types.Header{}, 1) {
		t.Error("trivial difficulty rejected")
	}
}

func TestSealedChainRejectsUnsealed(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	cfg := Config{GasLimit: 10_000_000, Difficulty: 1 << 12, Registry: reg}
	c := New(cfg, genesisWithContract())

	block := buildBlock(t, c, []*types.Transaction{setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)})
	// buildBlock sealed it; breaking the nonce must fail.
	block.Header.PowNonce = block.Header.PowNonce + 1
	for SealValid(block.Header, cfg.Difficulty) {
		block.Header.PowNonce++
	}
	if _, err := c.InsertBlock(block); !errors.Is(err, ErrBadSeal) {
		t.Errorf("unsealed block: %v", err)
	}
}

// transferBody builds an n-transaction body of plain value transfers,
// one funded registered sender each, all paying the same sink.
func transferBody(n int) (*wallet.Registry, *statedb.StateDB, []*types.Transaction) {
	reg := wallet.NewRegistry()
	genesis := genesisWithContract()
	sink := types.Address{19: 0x5e}
	txs := make([]*types.Transaction, n)
	for i := range txs {
		key := wallet.NewKey(fmt.Sprintf("sender-%d", i))
		reg.Register(key)
		genesis.AddBalance(key.Address(), 100)
		txs[i] = key.SignTx(&types.Transaction{
			Nonce: 0, To: sink, Value: 1, GasPrice: 10, GasLimit: 100_000,
		})
	}
	return reg, genesis, txs
}

func TestMidBodyRejection(t *testing.T) {
	// A body that may not form a block fails as a whole, naming the
	// offending transaction's index, and leaves the parent state alone.
	tests := []struct {
		name     string
		gasLimit uint64
		corrupt  func(reg *wallet.Registry, txs []*types.Transaction)
		want     error
		text     string
	}{
		{
			name: "bad-nonce", gasLimit: 10_000_000,
			corrupt: func(reg *wallet.Registry, txs []*types.Transaction) {
				bad := wallet.NewKey("bad-nonce-sender")
				reg.Register(bad)
				txs[17] = bad.SignTx(&types.Transaction{Nonce: 7, To: contractAddr, GasPrice: 10, GasLimit: 100_000})
			},
			want: ErrBadNonce,
			text: "tx 17: chain: invalid transaction nonce: account 0, tx 7",
		},
		{
			name: "bad-signature", gasLimit: 10_000_000,
			corrupt: func(_ *wallet.Registry, txs []*types.Transaction) {
				txs[23] = wallet.NewKey("never-registered").SignTx(&types.Transaction{
					Nonce: 0, To: contractAddr, GasPrice: 10, GasLimit: 100_000,
				})
			},
			want: ErrBadSignature,
			text: "tx 23: chain: invalid transaction signature: ",
		},
		{
			// Each transfer uses 21k gas under a 100k limit; the
			// sixteenth's limit no longer fits the remaining budget.
			name: "gas-limit", gasLimit: 400_000,
			corrupt: func(*wallet.Registry, []*types.Transaction) {},
			want:    ErrGasLimitReached,
			text:    ErrGasLimitReached.Error(),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			reg, genesis, txs := transferBody(40)
			tt.corrupt(reg, txs)
			c := New(Config{GasLimit: tt.gasLimit, Registry: reg}, genesis)
			parentRoot := c.State().Root()
			header := &types.Header{ParentHash: c.Head().Hash(), Number: 1, GasLimit: tt.gasLimit, Time: 15}
			_, err := c.Process(c.State(), header, txs)
			if !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
			if !strings.HasPrefix(err.Error(), tt.text) {
				t.Errorf("error text %q, want prefix %q", err.Error(), tt.text)
			}
			if got := c.State().Root(); got != parentRoot {
				t.Error("rejected body mutated the parent state")
			}
		})
	}
}

func TestMultiTxBody(t *testing.T) {
	// One body carrying a same-sender nonce chain of chained sets — each
	// reading the mark its predecessor wrote — then transfers from
	// distinct senders: every transaction succeeds, and an independent
	// validator replays the block onto the same root.
	reg, genesis, transfers := transferBody(8)
	owner := wallet.NewKey("chain-owner")
	reg.Register(owner)
	var txs []*types.Transaction
	prev, flag := types.ZeroWord, types.FlagHead
	for i := 0; i < 16; i++ {
		v := uint64(10 + i)
		txs = append(txs, setTxFor(owner, uint64(i), prev, v, flag))
		prev = types.NextMark(prev, types.WordFromUint64(v))
		flag = types.FlagChain
	}
	txs = append(txs, transfers...)
	cfg := DefaultConfig()
	cfg.Registry = reg
	producer, validator := New(cfg, genesis), New(cfg, genesis)

	block := buildBlock(t, producer, txs)
	receipts, err := producer.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range receipts {
		if r.Status != types.StatusSucceeded || r.TxIndex != i {
			t.Errorf("receipt %d: status %v index %d", i, r.Status, r.TxIndex)
		}
	}
	if _, err := validator.InsertBlock(block); err != nil {
		t.Fatalf("validator rejected the body: %v", err)
	}
	validator.ReadState(func(st *statedb.StateDB) {
		if got := st.GetState(contractAddr, types.WordFromUint64(asm.SlotMark)); got != prev {
			t.Error("chained sets did not advance the mark")
		}
		if st.GetNonce(owner.Address()) != 16 {
			t.Errorf("owner nonce = %d, want 16", st.GetNonce(owner.Address()))
		}
		if got := st.GetBalance(types.Address{19: 0x5e}); got != 8 {
			t.Errorf("sink balance = %d, want 8", got)
		}
	})
	if producer.State().Root() != validator.State().Root() {
		t.Error("peers diverged after replay")
	}
}
