package workload

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"bohm/internal/txn"
)

// A minimal general-purpose key/value procedure set for the network
// server and its examples: point put, point get (returning the value to
// a remote submitter via txn.Resulter), and a conserved-sum transfer.
// Like the YCSB procedures these are registered, so they are loggable
// and wire-transmissible for free.

// ProcKVPut is the registry id of the blind point-write; args are one
// encoded key (12 bytes) followed by the value bytes.
const ProcKVPut = "kv.put"

// ProcKVGet is the registry id of the point read; args are one encoded
// key. The read value is surfaced through Result for remote callers.
const ProcKVGet = "kv.get"

// ProcKVTransfer is the registry id of the two-account transfer; args
// are two encoded keys plus a u64 amount. It aborts (txn.ErrAbort) when
// the source balance is insufficient, so the total across accounts is
// conserved under any interleaving — the smoke-test invariant.
const ProcKVTransfer = "kv.transfer"

// RegisterKV registers the key/value procedures with reg.
func RegisterKV(reg *txn.Registry) {
	reg.Register(ProcKVPut, func(args []byte) (txn.Txn, error) {
		return build(&KVPutTxn{}, args)
	})
	reg.Register(ProcKVGet, func(args []byte) (txn.Txn, error) {
		return build(&KVGetTxn{}, args)
	})
	reg.Register(ProcKVTransfer, func(args []byte) (txn.Txn, error) {
		return build(&KVTransferTxn{}, args)
	})
}

// KVPutArgs builds kv.put arguments.
func KVPutArgs(k txn.Key, v []byte) []byte {
	return append(EncodeKeys([]txn.Key{k}), v...)
}

// KVGetArgs builds kv.get arguments.
func KVGetArgs(k txn.Key) []byte { return EncodeKeys([]txn.Key{k}) }

// KVTransferArgs builds kv.transfer arguments.
func KVTransferArgs(from, to txn.Key, amount uint64) []byte {
	b := EncodeKeys([]txn.Key{from, to})
	return binary.LittleEndian.AppendUint64(b, amount)
}

// decodeKey reads one EncodeKeys entry from the front of b, which must
// hold at least 12 bytes.
func decodeKey(b []byte) txn.Key {
	return txn.Key{Table: binary.LittleEndian.Uint32(b), ID: binary.LittleEndian.Uint64(b[4:])}
}

// one returns the one-element slice backed by *k, so single-key access
// sets are returned without allocating.
func one(k *txn.Key) []txn.Key { return unsafe.Slice(k, 1) }

// KVPutTxn blindly writes V at K.
type KVPutTxn struct {
	K txn.Key
	V []byte
}

// Rebuild implements txn.Rebuilder: args are one encoded key followed by
// the value, which V aliases.
func (t *KVPutTxn) Rebuild(args []byte) error {
	if len(args) < 12 {
		return fmt.Errorf("workload: kv.put args too short (%d bytes)", len(args))
	}
	t.K, t.V = decodeKey(args), args[12:]
	return nil
}

// ReadSet implements txn.Txn.
func (t *KVPutTxn) ReadSet() []txn.Key { return nil }

// WriteSet implements txn.Txn.
func (t *KVPutTxn) WriteSet() []txn.Key { return one(&t.K) }

// RangeSet implements txn.Txn.
func (t *KVPutTxn) RangeSet() []txn.KeyRange { return nil }

// Run implements txn.Txn.
func (t *KVPutTxn) Run(ctx txn.Ctx) error { return ctx.Write(t.K, t.V) }

// KVGetTxn reads K and keeps a copy of the value for Result — engine
// read buffers are only valid during Run, so remote delivery needs the
// copy.
type KVGetTxn struct {
	K   txn.Key
	val []byte
}

// Rebuild implements txn.Rebuilder: args are exactly one encoded key.
// The result buffer is kept for the next Run to reuse.
func (t *KVGetTxn) Rebuild(args []byte) error {
	if len(args) != 12 {
		return fmt.Errorf("workload: kv.get args must be one 12-byte key, got %d bytes", len(args))
	}
	t.K = decodeKey(args)
	return nil
}

// ReadSet implements txn.Txn.
func (t *KVGetTxn) ReadSet() []txn.Key { return one(&t.K) }

// WriteSet implements txn.Txn.
func (t *KVGetTxn) WriteSet() []txn.Key { return nil }

// RangeSet implements txn.Txn.
func (t *KVGetTxn) RangeSet() []txn.KeyRange { return nil }

// Run implements txn.Txn.
func (t *KVGetTxn) Run(ctx txn.Ctx) error {
	v, err := ctx.Read(t.K)
	if err != nil {
		return err
	}
	t.val = append(t.val[:0], v...)
	return nil
}

// Result implements txn.Resulter.
func (t *KVGetTxn) Result() []byte { return t.val }

// KVTransferTxn moves Amount from Keys[0] to Keys[1], aborting when the
// source balance (a little-endian u64) is insufficient. Both access sets
// are Keys itself.
type KVTransferTxn struct {
	Keys   [2]txn.Key // from, to
	Amount uint64
}

// Rebuild implements txn.Rebuilder: args are the two encoded keys and a
// u64 amount.
func (t *KVTransferTxn) Rebuild(args []byte) error {
	if len(args) != 32 {
		return fmt.Errorf("workload: kv.transfer args must be 32 bytes, got %d", len(args))
	}
	t.Keys = [2]txn.Key{decodeKey(args), decodeKey(args[12:])}
	t.Amount = binary.LittleEndian.Uint64(args[24:])
	return nil
}

// ReadSet implements txn.Txn.
func (t *KVTransferTxn) ReadSet() []txn.Key { return t.Keys[:] }

// WriteSet implements txn.Txn.
func (t *KVTransferTxn) WriteSet() []txn.Key { return t.Keys[:] }

// RangeSet implements txn.Txn.
func (t *KVTransferTxn) RangeSet() []txn.KeyRange { return nil }

// Run implements txn.Txn.
func (t *KVTransferTxn) Run(ctx txn.Ctx) error {
	fv, err := ctx.Read(t.Keys[0])
	if err != nil {
		return err
	}
	tv, err := ctx.Read(t.Keys[1])
	if err != nil {
		return err
	}
	from, to := binary.LittleEndian.Uint64(fv), binary.LittleEndian.Uint64(tv)
	if from < t.Amount {
		return txn.ErrAbort
	}
	var fb, tb [8]byte
	binary.LittleEndian.PutUint64(fb[:], from-t.Amount)
	binary.LittleEndian.PutUint64(tb[:], to+t.Amount)
	if err := ctx.Write(t.Keys[0], fb[:]); err != nil {
		return err
	}
	return ctx.Write(t.Keys[1], tb[:])
}
