package txn

// Wire encoding of transactions. A Record is the serialized form of one
// transaction — the registry-dispatched procedure plus the declared
// access sets — used both by the command log (one record per logged
// transaction, see internal/wal) and by the network protocol
// (internal/wire): a registered procedure round-trips between client,
// server and log with a single encoding.
//
// The format is fixed-width little-endian throughout: records are
// written once and scanned once, so simplicity beats byte-shaving, and
// sharing the helpers keeps the two consumers bit-compatible by
// construction.

import (
	"encoding/binary"
	"errors"
)

// Record is the serialized form of one transaction: the procedure id and
// argument bytes that rebuild it through a Registry, plus the declared
// access sets (logged and transmitted so neither replay nor a remote
// server depends on factories recomputing them identically).
type Record struct {
	Proc   string
	Args   []byte
	Reads  []Key
	Writes []Key
	Ranges []KeyRange
}

// ErrTruncated reports a Decoder that ran out of bytes (or met a
// malformed length); consumers wrap it in their own corruption errors.
var ErrTruncated = errors.New("txn: truncated record encoding")

// AppendRecord appends r's encoding to buf and returns the extended
// slice: proc and args as length-prefixed bytes, then the three access
// sets as counted fixed-width entries.
func AppendRecord(buf []byte, r *Record) []byte {
	buf = AppendU32(buf, uint32(len(r.Proc)))
	buf = append(buf, r.Proc...)
	buf = AppendU32(buf, uint32(len(r.Args)))
	buf = append(buf, r.Args...)
	buf = AppendKeys(buf, r.Reads)
	buf = AppendKeys(buf, r.Writes)
	buf = AppendRanges(buf, r.Ranges)
	return buf
}

// AppendU32 appends x little-endian.
func AppendU32(b []byte, x uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, x)
}

// AppendU64 appends x little-endian.
func AppendU64(b []byte, x uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, x)
}

// AppendKeys appends a counted key list (12 bytes per key).
func AppendKeys(b []byte, ks []Key) []byte {
	b = AppendU32(b, uint32(len(ks)))
	for _, k := range ks {
		b = AppendU32(b, k.Table)
		b = AppendU64(b, k.ID)
	}
	return b
}

// AppendRanges appends a counted range list (20 bytes per range).
func AppendRanges(b []byte, rs []KeyRange) []byte {
	b = AppendU32(b, uint32(len(rs)))
	for _, r := range rs {
		b = AppendU32(b, r.Table)
		b = AppendU64(b, r.Lo)
		b = AppendU64(b, r.Hi)
	}
	return b
}

// Decoder is a bounds-checked cursor over an encoded payload. Every
// accessor returns a zero value once the decoder has failed; check Err
// after the reads (not between them) and treat a non-nil result as
// corruption of the whole payload. Byte slices returned by Bytes and
// Record alias the input buffer; callers that retain them must not reuse
// it.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a decoder positioned at the start of b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Rem returns the number of undecoded bytes remaining.
func (d *Decoder) Rem() int { return len(d.b) - d.off }

// U32 decodes a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	x := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return x
}

// U64 decodes a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	x := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return x
}

// Bytes returns the next n bytes, aliasing the input buffer.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// Keys decodes a counted key list into dst's backing array (grown
// only when too small) and returns it; an empty list comes back with
// length zero.
func (d *Decoder) Keys(dst []Key) []Key {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+12*n > len(d.b) {
		d.fail()
		return dst[:0]
	}
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = Key{Table: d.U32(), ID: d.U64()}
	}
	return dst
}

// Ranges decodes a counted range list into dst's backing array, like
// Keys.
func (d *Decoder) Ranges(dst []KeyRange) []KeyRange {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+20*n > len(d.b) {
		d.fail()
		return dst[:0]
	}
	dst = grow(dst, n)
	for i := range dst {
		dst[i] = KeyRange{Table: d.U32(), Lo: d.U64(), Hi: d.U64()}
	}
	return dst
}

// grow returns s resized to n, reusing its backing array when it fits.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Record decodes one AppendRecord encoding into r, overwriting every
// field. The access sets reuse r's backing arrays, and r.Proc is kept
// when it already holds the decoded name (the comparison does not
// allocate), so decoding a stream of requests into one Record allocates
// only when a set outgrows its array or the procedure changes. Args
// aliases the input buffer.
func (d *Decoder) Record(r *Record) {
	if name := d.Bytes(int(d.U32())); string(name) != r.Proc {
		r.Proc = string(name)
	}
	r.Args = d.Bytes(int(d.U32()))
	r.Reads = d.Keys(r.Reads)
	r.Writes = d.Keys(r.Writes)
	r.Ranges = d.Ranges(r.Ranges)
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

// Resulter is an optional interface for transactions that produce a
// result payload for their submitter — the wire protocol's way of
// returning read values to a remote client (the embedded API reads
// inside the transaction closure instead). The server calls Result after
// a successful Run; the returned bytes must be owned by the transaction
// (copy inside Run — values handed to Ctx.Read callbacks are only valid
// during execution).
type Resulter interface {
	Result() []byte
}
