package workload

import (
	"encoding/binary"
	"fmt"

	"bohm/internal/txn"
)

// Registered-procedure forms of the YCSB transactions, for running the
// workloads against an engine with durability enabled: a command log
// records transactions as (procedure id, args), so the keys a transaction
// touches must round-trip through bytes.

// ProcRMW is the registry id of the YCSB read-modify-write transaction;
// its args are EncodeKeys of the keys to increment.
const ProcRMW = "ycsb.rmw"

// ProcPut is the registry id of the YCSB blind point-write transaction;
// its args are EncodeKeys of the keys to overwrite. The written value is
// a fixed record of the registered size (blind writes are deterministic
// by construction, so replay needs no value in the log).
const ProcPut = "ycsb.put"

// RegisterYCSB registers the YCSB procedures with reg. recordSize is the
// record size rebuilt transactions write, and must match the loaded table.
func RegisterYCSB(reg *txn.Registry, recordSize int) {
	reg.Register(ProcRMW, func(args []byte) (txn.Txn, error) {
		return build(&RMWTxn{Size: recordSize}, args)
	})
	putVal := txn.NewValue(recordSize, 7)
	reg.Register(ProcPut, func(args []byte) (txn.Txn, error) {
		return build(&PutTxn{Val: putVal}, args)
	})
}

// rebuildable is a transaction that implements txn.Rebuilder.
type rebuildable interface {
	txn.Txn
	txn.Rebuilder
}

// build is the factory body of every procedure here: a transaction with
// only its fixed fields set, completed by its own Rebuild, so a rebuilt
// transaction matches a factory-built one by construction.
func build(t rebuildable, args []byte) (txn.Txn, error) {
	if err := t.Rebuild(args); err != nil {
		return nil, err
	}
	return t, nil
}

// Rebuild implements txn.Rebuilder for the ycsb.rmw procedure: args
// decode into Keys' own array, and Size and the scratch buffer carry
// over, so a rebuilt instance runs without allocating.
func (t *RMWTxn) Rebuild(args []byte) (err error) {
	t.Keys, err = decodeKeysInto(t.Keys, args)
	return err
}

// Rebuild implements txn.Rebuilder for the ycsb.put procedure: args
// decode into Keys' own array; Val carries over.
func (t *PutTxn) Rebuild(args []byte) (err error) {
	t.Keys, err = decodeKeysInto(t.Keys, args)
	return err
}

// EncodeKeys serializes keys for use as procedure arguments.
func EncodeKeys(ks []txn.Key) []byte {
	b := make([]byte, 0, 12*len(ks))
	for _, k := range ks {
		b = binary.LittleEndian.AppendUint32(b, k.Table)
		b = binary.LittleEndian.AppendUint64(b, k.ID)
	}
	return b
}

// EncodeRanges serializes key ranges for use as procedure arguments.
func EncodeRanges(rs []txn.KeyRange) []byte {
	b := make([]byte, 0, 20*len(rs))
	for _, r := range rs {
		b = binary.LittleEndian.AppendUint32(b, r.Table)
		b = binary.LittleEndian.AppendUint64(b, r.Lo)
		b = binary.LittleEndian.AppendUint64(b, r.Hi)
	}
	return b
}

// DecodeRanges reverses EncodeRanges.
func DecodeRanges(b []byte) ([]txn.KeyRange, error) {
	if len(b)%20 != 0 {
		return nil, fmt.Errorf("workload: range blob of %d bytes is not a multiple of 20", len(b))
	}
	rs := make([]txn.KeyRange, len(b)/20)
	for i := range rs {
		rs[i] = txn.KeyRange{
			Table: binary.LittleEndian.Uint32(b[20*i:]),
			Lo:    binary.LittleEndian.Uint64(b[20*i+4:]),
			Hi:    binary.LittleEndian.Uint64(b[20*i+12:]),
		}
	}
	return rs, nil
}

// DecodeKeys reverses EncodeKeys.
func DecodeKeys(b []byte) ([]txn.Key, error) { return decodeKeysInto(nil, b) }

// decodeKeysInto is DecodeKeys into dst's backing array, grown only when
// too small.
func decodeKeysInto(dst []txn.Key, b []byte) ([]txn.Key, error) {
	if len(b)%12 != 0 {
		return dst[:0], fmt.Errorf("workload: key blob of %d bytes is not a multiple of 12", len(b))
	}
	n := len(b) / 12
	if cap(dst) < n {
		dst = make([]txn.Key, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = decodeKey(b[12*i:])
	}
	return dst, nil
}

// RMW10Call returns the source's next 10RMW transaction as a loggable
// registry call, suitable for engines with durability enabled. reg must
// have been set up with RegisterYCSB.
func (s *YCSBSource) RMW10Call(reg *txn.Registry) txn.Txn {
	return reg.MustCall(ProcRMW, EncodeKeys(s.keys(10)))
}
