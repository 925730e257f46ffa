// Package wal is BOHM's durability subsystem: a segmented, checksummed,
// append-only command log plus consistent checkpoints.
//
// # Why command logging suffices
//
// BOHM's serial order equals its submission order: the sequencer assigns
// timestamps by log position, and execution installs exactly the state a
// serial run in that order would produce. Transaction logic is required to
// be deterministic given its reads. Logging the *input* — each batch's
// transactions as (procedure id, args, access sets), Calvin-style — is
// therefore enough for recovery: re-submitting the logged batches in order
// to a fresh engine deterministically reproduces the lost state. There is
// no per-version redo or undo, and the log is written once per batch by
// the single sequencer goroutine, so logging adds one sequential write
// (and, depending on SyncPolicy, one fsync) per batch to the whole system.
//
// # On-disk layout
//
// A log directory holds numbered segment files and checkpoint files:
//
//	wal-00000000000000000001.log    segments, named by first batch seq
//	wal-00000000000000004097.log
//	ckpt-00000000000000004096.ckpt  checkpoints, named by batch watermark
//
// A segment starts with an 8-byte magic and contains framed records:
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// Each payload is one encoded batch. A torn final record (partial write at
// crash, detected by length or CRC) is discarded at recovery; corruption
// anywhere else is reported as ErrCorrupt.
//
// A checkpoint is a consistent snapshot of every record visible at a batch
// watermark W, written atomically (temp file + rename). After a checkpoint
// at W is durable, segments entirely below W+1 are deleted; recovery loads
// the newest checkpoint and replays only the batches above its watermark.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"bohm/internal/txn"
)

// SyncPolicy selects when the log writer calls fsync.
type SyncPolicy int

const (
	// SyncEveryBatch fsyncs before every batch is acknowledged: no
	// committed transaction is ever lost. One fsync per sequencer batch;
	// group commit happens naturally because the sequencer coalesces all
	// waiting submissions into one batch.
	SyncEveryBatch SyncPolicy = iota
	// SyncByInterval fsyncs on a fixed interval (group commit):
	// acknowledgements wait for the next interval sync, trading commit
	// latency for a bounded fsync rate.
	SyncByInterval
	// SyncNever leaves flushing to the OS page cache. A process crash
	// still leaves a consistent prefix (the kernel has every flushed
	// byte), but an OS or power failure can persist page-cache writeback
	// out of order, leaving mid-log corruption that recovery refuses
	// (ErrCorrupt) rather than a shorter prefix. Use it only where
	// losing the database on a machine failure is acceptable.
	SyncNever
)

// String implements fmt.Stringer for reports and bench labels.
func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryBatch:
		return "batch"
	case SyncByInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// TxnRecord is the logged form of one transaction: the registry-dispatched
// procedure plus the declared access sets. It is the shared wire encoding
// from internal/txn — the network protocol (internal/wire) transmits the
// exact bytes the log persists, so registered procedures round-trip
// between client, server and log with one encoder.
type TxnRecord = txn.Record

// Batch is the unit of logging and replay: one sequencer batch, identified
// by its batch sequence number.
type Batch struct {
	Seq  uint64
	Txns []TxnRecord
}

// ErrCorrupt reports log or checkpoint damage that is not a torn tail:
// a CRC mismatch or malformed record followed by more data, a sequence
// gap, or a truncated non-final segment. Recovery cannot safely proceed
// past it.
var ErrCorrupt = errors.New("wal: log corrupt")

// castagnoli is the CRC-32C table used for every checksum in the package.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes bounds a single framed record; a length above it is
// treated as corruption rather than an allocation request.
const maxRecordBytes = 1 << 30

// The segment magic was bumped to 2 when TxnRecord gained declared key
// ranges; version-1 logs are refused with a clear error rather than
// misdecoded.
const (
	segMagic  = "BOHMWAL2"
	ckptMagic = "BOHMCKP1"
)

// Fixed-width little-endian encoding shared with internal/txn: batches
// are written once and scanned once, so simplicity beats byte-shaving.

func appendU32(b []byte, x uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, x)
}

func putU32(b []byte, x uint32) {
	binary.LittleEndian.PutUint32(b, x)
}

func appendU64(b []byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, x)
}

// encodeBatch appends b's payload encoding to buf and returns it.
func encodeBatch(buf []byte, b *Batch) []byte {
	buf = appendU64(buf, b.Seq)
	buf = appendU32(buf, uint32(len(b.Txns)))
	for i := range b.Txns {
		buf = txn.AppendRecord(buf, &b.Txns[i])
	}
	return buf
}

// decodeBatch parses one payload. The returned batch aliases payload's
// argument bytes; callers that retain it must not reuse the buffer.
func decodeBatch(payload []byte) (*Batch, error) {
	d := txn.NewDecoder(payload)
	b := &Batch{Seq: d.U64()}
	n := int(d.U32())
	if d.Err() != nil || n < 0 {
		return nil, fmt.Errorf("%w: bad batch header", ErrCorrupt)
	}
	b.Txns = make([]TxnRecord, 0, n)
	for i := 0; i < n; i++ {
		var r TxnRecord
		d.Record(&r)
		if d.Err() != nil {
			return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
		}
		b.Txns = append(b.Txns, r)
	}
	if d.Rem() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in batch payload", ErrCorrupt, d.Rem())
	}
	return b, nil
}
