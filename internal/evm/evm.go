// Package evm implements a stack-machine interpreter for the Ethereum
// instruction subset used by the Sereth contract, with gas accounting and
// the paper's Runtime Argument Augmentation (RAA) hook: read-only calls
// whose selector is registered with an RAA provider have their argument
// words rewritten by the provider before execution (paper Fig. 1,
// activities E2/R1-R3). State-changing transactions are never augmented —
// their calldata is covered by the sender's signature.
//
// Two interpreters share one semantics: Call dispatches through a
// precomputed jump table of per-opcode handlers (constant gas, stack
// bounds and memory-size fns resolved at table-construction time) over
// pooled frames, while CallGeneric runs the original monolithic switch.
// The switch form is the bit-identity reference: the differential fuzz
// in interp_test.go pins the two paths to identical results, gas and
// state effects over random bytecode.
package evm

import (
	"bytes"
	"errors"
	"sync"

	"sereth/internal/types"
	"sereth/internal/uint256"
)

// State is the world-state access surface the interpreter needs.
// *statedb.StateDB satisfies it.
type State interface {
	GetState(addr types.Address, key types.Word) types.Word
	SetState(addr types.Address, key, value types.Word)
	GetCode(addr types.Address) []byte
	GetBalance(addr types.Address) uint64
}

// RAAProvider supplies Runtime Argument Augmentation data. Augment may
// return rewritten calldata for a read-only call into contract; ok=false
// leaves the call unmodified.
type RAAProvider interface {
	Augment(contract types.Address, input []byte) (augmented []byte, ok bool)
}

// BlockContext exposes block-level environment values to the interpreter.
type BlockContext struct {
	Number uint64
	Time   uint64
}

// CallContext describes one message call.
type CallContext struct {
	Caller   types.Address
	Contract types.Address
	Input    []byte
	Value    uint64
	GasPrice uint64
	Gas      uint64
	// ReadOnly marks a local view/pure call: SSTORE is forbidden and the
	// RAA hook is eligible to rewrite arguments.
	ReadOnly bool
}

// Execution errors.
var (
	ErrOutOfGas        = errors.New("evm: out of gas")
	ErrInvalidJump     = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode   = errors.New("evm: invalid opcode")
	ErrWriteProtection = errors.New("evm: write to state in read-only call")
	ErrExecutionRevert = errors.New("evm: execution reverted")
)

// Result is the outcome of a call.
type Result struct {
	ReturnData []byte
	GasUsed    uint64
	Err        error // nil on normal halt; ErrExecutionRevert on REVERT
}

// Succeeded reports a normal, non-reverted halt.
func (r Result) Succeeded() bool { return r.Err == nil }

// ReturnWord returns the first 32 bytes of the return data as a word.
func (r Result) ReturnWord() types.Word {
	var w types.Word
	copy(w[:], r.ReturnData)
	return w
}

// EVM executes message calls against a State. An instance is cheap to
// construct; per-call scratch (stack, memory, jumpdest analysis) comes
// from a package-level frame pool, so a block processor reusing one EVM
// across a body pays no interpreter allocations in steady state.
type EVM struct {
	state State
	block BlockContext
	raa   RAAProvider

	// Hash-elision layer (see elision.go): the executing transaction's
	// admission-derived digest hint, cleared on Reset, and the
	// block-scoped content-keyed SHA3 memo, which persists across Reset
	// because its entries are content-verified and never stale.
	hint TxHint
	memo sha3Memo
}

// New returns an interpreter bound to the given state and block context.
func New(state State, block BlockContext) *EVM {
	return &EVM{state: state, block: block}
}

// SetRAAProvider installs (or clears, with nil) the RAA data service.
// Only Sereth-mode clients install one; standard clients leave it unset
// and argument words pass through unchanged, which is what makes the two
// client types interoperable.
func (e *EVM) SetRAAProvider(p RAAProvider) { e.raa = p }

// Call runs the code at ctx.Contract with the given input through the
// jump-table interpreter.
func (e *EVM) Call(ctx CallContext) Result {
	code, input, empty := e.prepare(ctx)
	if empty {
		return Result{GasUsed: 0}
	}
	f := framePool.Get().(*frame)
	// Deferred release: a handler panic must not leak the frame, and a
	// pooled frame must not pin the last call's state graph while idle.
	defer putFrame(f)
	in := &f.in
	in.reset(e, ctx, input, code)
	in.dests = f.analyze(code)
	ret, err := in.run()
	return e.finish(ctx, in.gasLeft, ret, err)
}

// putFrame clears the interpreter's references into the caller's world
// (EVM/state, calldata, code) before pooling, so an idle frame retains
// only its own scratch buffers and jumpdest memo.
func putFrame(f *frame) {
	f.in.evm = nil
	f.in.ctx = CallContext{}
	f.in.input = nil
	f.in.code = nil
	framePool.Put(f)
}

// CallGeneric runs the same call through the monolithic-switch reference
// interpreter. It exists for differential testing (interp_test.go pins
// the jump table bit-identical to it); production paths use Call.
func (e *EVM) CallGeneric(ctx CallContext) Result {
	code, input, empty := e.prepare(ctx)
	if empty {
		return Result{GasUsed: 0}
	}
	in := &interpreter{
		evm:      e,
		ctx:      ctx,
		input:    input,
		code:     code,
		gasLeft:  ctx.Gas,
		jumpDest: analyzeJumpDests(code),
	}
	in.stack.data = make([]uint256.Int, 0, 16)
	ret, err := in.runGeneric()
	return e.finish(ctx, in.gasLeft, ret, err)
}

// prepare resolves the code and (possibly RAA-augmented) input shared by
// both interpreter paths. empty reports a code-less target (plain
// transfer: nothing to execute).
func (e *EVM) prepare(ctx CallContext) (code, input []byte, empty bool) {
	code = e.state.GetCode(ctx.Contract)
	if len(code) == 0 {
		return nil, nil, true
	}
	input = ctx.Input
	if ctx.ReadOnly && e.raa != nil {
		if augmented, ok := e.raa.Augment(ctx.Contract, input); ok {
			input = augmented
		}
	}
	return code, input, false
}

// finish converts an interpreter halt into a Result. Hard faults consume
// the entire gas allowance.
func (e *EVM) finish(ctx CallContext, gasLeft uint64, ret []byte, err error) Result {
	gasUsed := ctx.Gas - gasLeft
	if err != nil && !errors.Is(err, ErrExecutionRevert) {
		gasUsed = ctx.Gas
	}
	return Result{ReturnData: ret, GasUsed: gasUsed, Err: err}
}

// interpreter is the per-call execution state shared by the jump-table
// and generic paths. The stack and memory are value fields so a pooled
// frame embeds the whole struct with its scratch buffers.
type interpreter struct {
	evm     *EVM
	ctx     CallContext
	input   []byte
	code    []byte
	stack   stack
	mem     memory
	gasLeft uint64

	// Jump-table path: valid JUMPDEST bitmap, "handler set pc itself"
	// flag, and the loop-precomputed memory range (see operation.memSize).
	dests  bitvec
	pcSet  bool
	memOff uint64
	memLen uint64
	memErr error

	// Generic path: map-based jumpdest set and the taken-jump carrier.
	jumpDest   map[uint64]bool
	pcOverride *uint64
}

// reset rebinds a pooled interpreter to a new call, keeping the scratch
// buffer capacity of previous calls.
func (in *interpreter) reset(e *EVM, ctx CallContext, input, code []byte) {
	in.evm = e
	in.ctx = ctx
	in.input = input
	in.code = code
	in.stack.data = in.stack.data[:0]
	in.mem.data = in.mem.data[:0]
	in.gasLeft = ctx.Gas
	in.dests = nil
	in.pcSet = false
	in.memOff, in.memLen, in.memErr = 0, 0, nil
	in.jumpDest = nil
	in.pcOverride = nil
}

// frame is one pooled interpreter plus its jumpdest-analysis memo: a
// frame that is reused against the same code (the common case — a block
// body calling one contract) skips re-analysis entirely.
type frame struct {
	in    interpreter
	dests bitvec
	// code is a private copy of the last-analyzed bytecode. The memo
	// hit is a content compare, NOT pointer identity: a freed slice can
	// be reallocated at the same address with different bytes, so an
	// address-keyed memo could serve a stale analysis. bytes.Equal is a
	// memcmp — far cheaper than re-analysis.
	code []byte
}

var framePool = sync.Pool{New: func() any {
	f := &frame{}
	f.in.stack.data = make([]uint256.Int, 0, 16)
	return f
}}

// analyze returns the valid-JUMPDEST bitmap for code, reusing the
// frame's previous analysis when the bytecode is unchanged.
func (f *frame) analyze(code []byte) bitvec {
	if bytes.Equal(f.code, code) {
		return f.dests
	}
	f.dests = analyzeJumpDestsBitvec(code, f.dests)
	f.code = append(f.code[:0], code...)
	return f.dests
}

func analyzeJumpDests(code []byte) map[uint64]bool {
	dests := make(map[uint64]bool)
	for pc := 0; pc < len(code); pc++ {
		op := OpCode(code[pc])
		if op == JUMPDEST {
			dests[uint64(pc)] = true
		} else if op.IsPush() {
			pc += op.PushSize()
		}
	}
	return dests
}

func (in *interpreter) useGas(amount uint64) error {
	if in.gasLeft < amount {
		in.gasLeft = 0
		return ErrOutOfGas
	}
	in.gasLeft -= amount
	return nil
}

// chargeMemory expands memory and charges the linear word cost.
func (in *interpreter) chargeMemory(offset, size uint64) error {
	grown := in.mem.expand(offset, size)
	if grown == 0 {
		return nil
	}
	return in.useGas(grown * gasMemoryWord)
}

func wordOf(v uint256.Int) types.Word { return types.Word(v.Bytes32()) }

func intOf(w types.Word) uint256.Int { return uint256.FromBytes32(w) }

// asOffset converts a stack word to a memory offset/size, failing with
// out-of-gas when it cannot fit (the canonical EVM behaviour for absurd
// offsets).
func asOffset(v uint256.Int) (uint64, error) {
	n, ok := v.Uint64()
	if !ok {
		return 0, ErrOutOfGas
	}
	return n, nil
}

// runGeneric is the reference interpreter: the original monolithic
// switch, kept bit-identical to the jump table by the differential fuzz.
func (in *interpreter) runGeneric() ([]byte, error) {
	var pc uint64
	for {
		if pc >= uint64(len(in.code)) {
			return nil, nil // implicit STOP
		}
		op := OpCode(in.code[pc])

		// Fixed-cost charging.
		switch {
		case op.IsPush(), op >= DUP1 && op <= SWAP16:
			if err := in.useGas(gasFastestStep); err != nil {
				return nil, err
			}
		default:
			cost, known := constGas[op]
			if !known && op != SSTORE && op != SHA3 && op != CALLDATACOPY && op != INVALID {
				return nil, ErrInvalidOpcode
			}
			if known {
				if err := in.useGas(cost); err != nil {
					return nil, err
				}
			}
		}

		switch {
		case op == STOP:
			return nil, nil

		case op.IsPush():
			size := uint64(op.PushSize())
			end := pc + 1 + size
			var chunk []byte
			if pc+1 >= uint64(len(in.code)) {
				chunk = nil
			} else if end > uint64(len(in.code)) {
				chunk = in.code[pc+1:]
			} else {
				chunk = in.code[pc+1 : end]
			}
			// Right-pad truncated immediates with zeroes.
			padded := make([]byte, size)
			copy(padded, chunk)
			if err := in.stack.push(uint256.FromBytes(padded)); err != nil {
				return nil, err
			}
			pc = end
			continue

		case op >= DUP1 && op <= DUP16:
			if err := in.stack.dup(int(op-DUP1) + 1); err != nil {
				return nil, err
			}

		case op >= SWAP1 && op <= SWAP16:
			if err := in.stack.swap(int(op-SWAP1) + 1); err != nil {
				return nil, err
			}

		default:
			done, ret, err := in.execute(op, pc)
			if err != nil {
				return ret, err
			}
			if done {
				return ret, nil
			}
			if in.pcOverride != nil {
				pc = *in.pcOverride
				in.pcOverride = nil
				continue
			}
		}
		pc++
	}
}

// execute handles every non-push/dup/swap opcode for the generic
// reference interpreter. It returns done=true on RETURN/STOP-like halts.
func (in *interpreter) execute(op OpCode, pc uint64) (done bool, ret []byte, err error) {
	s := &in.stack
	switch op {
	case ADD:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Add(b))
	case MUL:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Mul(b))
	case SUB:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Sub(b))
	case DIV:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Div(b))
	case MOD:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Mod(b))
	case EXP:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Exp(b))
	case LT:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(boolWord(a.Lt(b)))
	case GT:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(boolWord(a.Gt(b)))
	case EQ:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(boolWord(a.Eq(b)))
	case ISZERO:
		a, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(boolWord(a.IsZero()))
	case AND:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.And(b))
	case OR:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Or(b))
	case XOR:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Xor(b))
	case NOT:
		a, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Not())
	case BYTE:
		n, x, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		idx, ok := n.Uint64()
		if !ok {
			return false, nil, s.push(uint256.Zero)
		}
		return false, nil, s.push(x.Byte(idx))
	case SHL:
		n, x, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		sh, ok := n.Uint64()
		if !ok {
			return false, nil, s.push(uint256.Zero)
		}
		return false, nil, s.push(x.Lsh(uint(sh)))
	case SHR:
		n, x, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		sh, ok := n.Uint64()
		if !ok {
			return false, nil, s.push(uint256.Zero)
		}
		return false, nil, s.push(x.Rsh(uint(sh)))

	case SHA3:
		offV, sizeV, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		size, err := asOffset(sizeV)
		if err != nil {
			return false, nil, err
		}
		words := (size + 31) / 32
		if err := in.useGas(gasSha3 + gasSha3Word*words); err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, size); err != nil {
			return false, nil, err
		}
		h := types.Keccak(in.mem.get(off, size))
		return false, nil, s.push(intOf(h.Word()))

	case ADDRESS:
		return false, nil, s.push(intOf(in.ctx.Contract.Word()))
	case BALANCE:
		a, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		bal := in.evm.state.GetBalance(wordOf(a).Address())
		return false, nil, s.push(uint256.NewFromUint64(bal))
	case CALLER:
		return false, nil, s.push(intOf(in.ctx.Caller.Word()))
	case CALLVALUE:
		return false, nil, s.push(uint256.NewFromUint64(in.ctx.Value))
	case CALLDATALOAD:
		offV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		off, ok := offV.Uint64()
		if !ok {
			return false, nil, s.push(uint256.Zero)
		}
		var word [32]byte
		for i := uint64(0); i < 32; i++ {
			if off+i < uint64(len(in.input)) {
				word[i] = in.input[off+i]
			}
		}
		return false, nil, s.push(uint256.FromBytes32(word))
	case CALLDATASIZE:
		return false, nil, s.push(uint256.NewFromUint64(uint64(len(in.input))))
	case CALLDATACOPY:
		memOffV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		dataOffV, lenV, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		memOff, err := asOffset(memOffV)
		if err != nil {
			return false, nil, err
		}
		size, err := asOffset(lenV)
		if err != nil {
			return false, nil, err
		}
		if err := in.useGas(gasFastestStep + gasCopyWord*((size+31)/32)); err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(memOff, size); err != nil {
			return false, nil, err
		}
		chunk := make([]byte, size)
		if dataOff, ok := dataOffV.Uint64(); ok {
			for i := uint64(0); i < size; i++ {
				if dataOff+i < uint64(len(in.input)) {
					chunk[i] = in.input[dataOff+i]
				}
			}
		}
		in.mem.set(memOff, chunk)
		return false, nil, nil
	case CODESIZE:
		return false, nil, s.push(uint256.NewFromUint64(uint64(len(in.code))))
	case GASPRICE:
		return false, nil, s.push(uint256.NewFromUint64(in.ctx.GasPrice))
	case TIMESTAMP:
		return false, nil, s.push(uint256.NewFromUint64(in.evm.block.Time))
	case NUMBER:
		return false, nil, s.push(uint256.NewFromUint64(in.evm.block.Number))

	case POP:
		_, err := s.pop()
		return false, nil, err
	case MLOAD:
		offV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, 32); err != nil {
			return false, nil, err
		}
		return false, nil, s.push(uint256.FromBytes(in.mem.get(off, 32)))
	case MSTORE:
		offV, valV, err := pop2of(s)
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, 32); err != nil {
			return false, nil, err
		}
		w := valV.Bytes32()
		in.mem.set(off, w[:])
		return false, nil, nil
	case MSTORE8:
		offV, valV, err := pop2of(s)
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, 1); err != nil {
			return false, nil, err
		}
		b, _ := valV.Uint64()
		in.mem.set(off, []byte{byte(b)})
		return false, nil, nil

	case SLOAD:
		keyV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		v := in.evm.state.GetState(in.ctx.Contract, wordOf(keyV))
		return false, nil, s.push(intOf(v))
	case SSTORE:
		if in.ctx.ReadOnly {
			return false, nil, ErrWriteProtection
		}
		keyV, valV, err := pop2of(s)
		if err != nil {
			return false, nil, err
		}
		key, val := wordOf(keyV), wordOf(valV)
		cur := in.evm.state.GetState(in.ctx.Contract, key)
		cost := uint64(gasSStoreReset)
		if cur.IsZero() && !val.IsZero() {
			cost = gasSStoreSet
		}
		if err := in.useGas(cost); err != nil {
			return false, nil, err
		}
		in.evm.state.SetState(in.ctx.Contract, key, val)
		return false, nil, nil

	case JUMP:
		destV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		return false, nil, in.doJump(destV)
	case JUMPI:
		destV, condV, err := pop2of(s)
		if err != nil {
			return false, nil, err
		}
		if condV.IsZero() {
			return false, nil, nil
		}
		return false, nil, in.doJump(destV)
	case PC:
		return false, nil, s.push(uint256.NewFromUint64(pc))
	case MSIZE:
		return false, nil, s.push(uint256.NewFromUint64(in.mem.len()))
	case GAS:
		return false, nil, s.push(uint256.NewFromUint64(in.gasLeft))
	case JUMPDEST:
		return false, nil, nil

	case RETURN, REVERT:
		offV, sizeV, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		size, err := asOffset(sizeV)
		if err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, size); err != nil {
			return false, nil, err
		}
		data := in.mem.get(off, size)
		if op == REVERT {
			return true, data, ErrExecutionRevert
		}
		return true, data, nil

	case INVALID:
		return false, nil, ErrInvalidOpcode
	default:
		return false, nil, ErrInvalidOpcode
	}
}

func (in *interpreter) doJump(destV uint256.Int) error {
	dest, ok := destV.Uint64()
	if !ok || !in.jumpDest[dest] {
		return ErrInvalidJump
	}
	in.pcOverride = &dest
	return nil
}

func pop2of(s *stack) (uint256.Int, uint256.Int, error) { return s.pop2() }

func boolWord(b bool) uint256.Int {
	if b {
		return uint256.One
	}
	return uint256.Zero
}
