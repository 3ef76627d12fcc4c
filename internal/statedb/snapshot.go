// This file implements streamed state snapshots: a deterministic dump
// of every account (with code and storage) that a joining peer can
// import and verify against a state root without replaying history.

package statedb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"sereth/internal/rlp"
	"sereth/internal/types"
)

// ErrPartialState is returned when exporting from a lazily-opened state
// whose account map does not hold the full world state.
var ErrPartialState = fmt.Errorf("statedb: snapshot requires a fully materialized state")

// WriteSnapshot streams every account to w as a sequence of
// uvarint-length-prefixed RLP records
//
//	[addr, nonce, balance, code, [[slot, value], ...]]
//
// in ascending address order (slots ascending too), terminated by a
// zero length. The dump is deterministic: two states with equal
// contents produce identical bytes. States opened lazily from a store
// (OpenAt) cannot be exported — their maps are partial overlays — and
// report ErrPartialState; only fully materialized states (built in
// memory or imported from a snapshot) can serve snapshots.
func (s *StateDB) WriteSnapshot(w io.Writer) error {
	if s.db != nil {
		return ErrPartialState
	}
	s.flush()
	addrs := make([]types.Address, 0, len(s.accounts))
	for addr, acc := range s.accounts {
		if !acc.deleted {
			addrs = append(addrs, addr)
		}
	}
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})

	bw := bufio.NewWriter(w)
	var lenBuf [binary.MaxVarintLen64]byte
	for _, addr := range addrs {
		acc := s.accounts[addr]
		slots := make([]types.Word, 0, len(acc.storage))
		for k := range acc.storage {
			slots = append(slots, k)
		}
		sort.Slice(slots, func(i, j int) bool {
			return bytes.Compare(slots[i][:], slots[j][:]) < 0
		})
		slotItems := make([]rlp.Item, len(slots))
		for i, k := range slots {
			v := acc.storage[k]
			slotItems[i] = rlp.List(rlp.String(k[:]), rlp.String(v[:]))
		}
		rec := rlp.Encode(rlp.List(
			rlp.String(addr[:]),
			rlp.Uint(acc.nonce),
			rlp.Uint(acc.balance),
			rlp.String(acc.code),
			rlp.List(slotItems...),
		))
		n := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
		if _, err := bw.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	n := binary.PutUvarint(lenBuf[:], 0)
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot rebuilds a fully materialized state from a WriteSnapshot
// stream. The caller verifies the returned state's Root against the
// root it expected (the chain layer does this against the snapshot's
// block header before adoption).
func ReadSnapshot(r io.Reader) (*StateDB, error) {
	br := bufio.NewReader(r)
	s := New()
	for {
		recLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("statedb: snapshot record length: %w", err)
		}
		if recLen == 0 {
			break
		}
		if recLen > 1<<26 {
			return nil, fmt.Errorf("statedb: snapshot record of %d bytes", recLen)
		}
		// Allocate as bytes arrive, not by the declared length: a
		// hostile prefix costs only what the stream really carries.
		rec, err := io.ReadAll(io.LimitReader(br, int64(recLen)))
		if err == nil && uint64(len(rec)) != recLen {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("statedb: snapshot record body: %w", err)
		}
		if err := applySnapshotRecord(s, rec); err != nil {
			return nil, err
		}
	}
	s.DiscardJournal()
	return s, nil
}

func applySnapshotRecord(s *StateDB, rec []byte) error {
	it, err := rlp.Decode(rec)
	if err != nil {
		return fmt.Errorf("statedb: snapshot record: %w", err)
	}
	elems, err := it.Items()
	if err != nil || len(elems) != 5 {
		return fmt.Errorf("statedb: snapshot record is not a 5-list (%v)", err)
	}
	addrB, err := elems[0].Bytes()
	if err != nil || len(addrB) != len(types.Address{}) {
		return fmt.Errorf("statedb: snapshot address: %v", err)
	}
	var addr types.Address
	copy(addr[:], addrB)
	nonce, err := elems[1].AsUint()
	if err != nil {
		return fmt.Errorf("statedb: snapshot nonce: %w", err)
	}
	balance, err := elems[2].AsUint()
	if err != nil {
		return fmt.Errorf("statedb: snapshot balance: %w", err)
	}
	code, err := elems[3].Bytes()
	if err != nil {
		return fmt.Errorf("statedb: snapshot code: %w", err)
	}
	slotList, err := elems[4].Items()
	if err != nil {
		return fmt.Errorf("statedb: snapshot slots: %w", err)
	}

	// Materialize through the public mutators so invariants (dirty
	// tracking, zero-slot elision) hold exactly as if the account had
	// been built by execution.
	if nonce > 0 {
		s.SetNonce(addr, nonce)
	}
	if balance > 0 {
		s.AddBalance(addr, balance)
	}
	if len(code) > 0 {
		s.SetCode(addr, code)
	} else if nonce == 0 && balance == 0 && len(slotList) == 0 {
		// A fully zero account still exists in the trie; create it.
		s.getOrCreate(addr)
	}
	for _, slotIt := range slotList {
		pair, err := slotIt.Items()
		if err != nil || len(pair) != 2 {
			return fmt.Errorf("statedb: snapshot slot pair (%v)", err)
		}
		kb, err := pair[0].Bytes()
		if err != nil || len(kb) != len(types.Word{}) {
			return fmt.Errorf("statedb: snapshot slot key: %v", err)
		}
		vb, err := pair[1].Bytes()
		if err != nil || len(vb) != len(types.Word{}) {
			return fmt.Errorf("statedb: snapshot slot value: %v", err)
		}
		var k, v types.Word
		copy(k[:], kb)
		copy(v[:], vb)
		s.SetState(addr, k, v)
	}
	return nil
}
