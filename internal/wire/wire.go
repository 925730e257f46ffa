// Package wire defines bohm's client/server binary protocol: a
// handshake, length-prefixed frames, and two message shapes (submit,
// result). The transaction payload inside a submit frame is the WAL's
// txn.Record encoding — registered procedures travel to the server in
// the exact bytes the command log would persist, so the protocol adds no
// serialization of its own.
//
// Framing: after an 8-byte magic exchanged in both directions, every
// message is [u32 LE payload length][payload]. Lengths above MaxFrame
// indicate a broken or hostile peer and close the connection.
//
// A connection is a full-duplex pipeline: clients send submits without
// waiting, the server replies in any order, and the u64 request id
// correlates them. Every result carries a recency token — the newest
// acknowledged batch at completion — which clients echo on read-only
// submits to get read-your-writes across connections (see
// core.AckedBatch/WaitCovered).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bohm/internal/core"
	"bohm/internal/txn"
)

// Magic opens every connection in both directions.
const Magic = "BOHMSRV1"

// MaxFrame bounds one framed payload; bigger lengths are protocol
// errors, not allocation requests.
const MaxFrame = 1 << 24

// Message kinds (first payload byte).
const (
	MsgSubmit byte = 1 // client -> server: one transaction
	MsgResult byte = 2 // server -> client: one transaction's outcome
)

// Submit flags.
const (
	// FlagReadOnly routes the transaction to the read-only fast path
	// (ExecuteReadOnly): snapshot reads off the group-commit critical
	// path. The transaction must declare no writes.
	FlagReadOnly byte = 1 << 0
)

// Status codes carried by result messages. Non-OK statuses map to the
// engine's error ladder so errors.Is works across the wire.
const (
	StatusOK                byte = 0
	StatusError             byte = 1  // application abort or other txn error
	StatusNotFound          byte = 2  // txn.ErrNotFound
	StatusAborted           byte = 3  // txn.ErrAbort
	StatusNotLoggable       byte = 4  // core.ErrNotLoggable
	StatusNotReadOnly       byte = 5  // core.ErrNotReadOnly
	StatusDuplicateWriteKey byte = 6  // core.ErrDuplicateWriteKey
	StatusDurabilityLost    byte = 7  // core.ErrDurabilityLost
	StatusClosed            byte = 8  // core.ErrClosed (engine or server shut down)
	StatusUnknownProc       byte = 9  // procedure id not registered on the server
	StatusBadRequest        byte = 10 // malformed frame or protocol violation
)

// ErrProtocol reports a malformed frame, bad magic, or oversized length;
// the connection is unusable after it.
var ErrProtocol = errors.New("wire: protocol error")

// ErrUnknownProc is the client-side sentinel for StatusUnknownProc.
var ErrUnknownProc = errors.New("wire: unknown procedure")

// Request is one decoded submit message.
type Request struct {
	ID    uint64
	Flags byte
	Token uint64 // recency token echoed from earlier results; 0 = none
	Rec   txn.Record
}

// Response is one decoded result message.
type Response struct {
	ID     uint64
	Status byte
	Token  uint64 // newest acknowledged batch when the result was produced
	Msg    string // error detail, empty on OK
	Result []byte // Resulter payload, nil unless OK
}

// AppendRequest appends r's submit-message encoding (without framing).
func AppendRequest(buf []byte, r *Request) []byte {
	buf = append(buf, MsgSubmit)
	buf = txn.AppendU64(buf, r.ID)
	buf = append(buf, r.Flags)
	buf = txn.AppendU64(buf, r.Token)
	return txn.AppendRecord(buf, &r.Rec)
}

// AppendResponse appends r's result-message encoding (without framing).
func AppendResponse(buf []byte, r *Response) []byte {
	buf = append(buf, MsgResult)
	buf = txn.AppendU64(buf, r.ID)
	buf = append(buf, r.Status)
	buf = txn.AppendU64(buf, r.Token)
	buf = txn.AppendU32(buf, uint32(len(r.Msg)))
	buf = append(buf, r.Msg...)
	buf = txn.AppendU32(buf, uint32(len(r.Result)))
	return append(buf, r.Result...)
}

// DecodeRequest parses a submit payload (after the kind byte has been
// checked) into r, overwriting every field and reusing the capacity of
// r.Rec's access sets (see txn.Decoder.Record). On error r holds no
// usable request.
//
// Ownership: the decoded record's Args alias payload, and the server
// decodes each connection's requests into per-slot Requests and frame
// buffers. A request's frame, its decoded record and the transaction
// built from it belong to its slot, and are reused for a later request
// once the response has been written.
func DecodeRequest(payload []byte, r *Request) error {
	d := txn.NewDecoder(payload)
	r.ID = d.U64()
	if f := d.Bytes(1); d.Err() == nil {
		r.Flags = f[0]
	}
	r.Token = d.U64()
	d.Record(&r.Rec)
	if d.Err() != nil || d.Rem() != 0 {
		return fmt.Errorf("%w: bad submit payload", ErrProtocol)
	}
	return nil
}

// DecodeResponse parses a result payload (after the kind byte). Msg and
// Result are copied; the payload buffer may be reused.
func DecodeResponse(payload []byte) (Response, error) {
	d := txn.NewDecoder(payload)
	var r Response
	r.ID = d.U64()
	s := d.Bytes(1)
	if d.Err() == nil {
		r.Status = s[0]
	}
	r.Token = d.U64()
	r.Msg = string(d.Bytes(int(d.U32())))
	if n := int(d.U32()); d.Err() == nil && n > 0 {
		r.Result = append([]byte(nil), d.Bytes(n)...)
	}
	if d.Err() != nil || d.Rem() != 0 {
		return Response{}, fmt.Errorf("%w: bad result payload", ErrProtocol)
	}
	return r, nil
}

// headerLen is the size of a frame's length prefix.
const headerLen = 4

// StartFrame resets buf to an empty frame: a reserved length prefix and
// no payload. Append the payload to the result, then pass it to
// WriteFrame.
func StartFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// WriteFrame writes frame — a StartFrame prefix followed by the payload
// — after filling in the prefix with the payload's length, so the whole
// frame goes out in one Write.
func WriteFrame(w io.Writer, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-headerLen))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame and returns its payload. Both the length
// prefix and the payload are read into buf, which is replaced by a
// bigger buffer only when the payload does not fit; the returned slice
// aliases whichever buffer holds it. A length above MaxFrame is an
// ErrProtocol, reported before anything is allocated for it.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < headerLen {
		buf = make([]byte, headerLen)
	}
	hdr := buf[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds %d", ErrProtocol, n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Handshake exchanges the magic: writes ours, reads and checks the
// peer's.
func Handshake(rw io.ReadWriter) error {
	if _, err := io.WriteString(rw, Magic); err != nil {
		return err
	}
	var got [len(Magic)]byte
	if _, err := io.ReadFull(rw, got[:]); err != nil {
		return err
	}
	if string(got[:]) != Magic {
		return fmt.Errorf("%w: bad magic %q", ErrProtocol, got[:])
	}
	return nil
}

// StatusFor maps an engine error to its wire status. Order matters:
// specific sentinels before the generic fallback.
func StatusFor(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, core.ErrDurabilityLost):
		return StatusDurabilityLost
	case errors.Is(err, core.ErrClosed):
		return StatusClosed
	case errors.Is(err, core.ErrNotLoggable):
		return StatusNotLoggable
	case errors.Is(err, core.ErrNotReadOnly):
		return StatusNotReadOnly
	case errors.Is(err, core.ErrDuplicateWriteKey):
		return StatusDuplicateWriteKey
	case errors.Is(err, txn.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, txn.ErrAbort):
		return StatusAborted
	default:
		return StatusError
	}
}

// sentinelFor is StatusFor's inverse: the errors.Is target a remote
// error of this status unwraps to. Nil for OK and the generic statuses.
func sentinelFor(status byte) error {
	switch status {
	case StatusNotFound:
		return txn.ErrNotFound
	case StatusAborted:
		return txn.ErrAbort
	case StatusNotLoggable:
		return core.ErrNotLoggable
	case StatusNotReadOnly:
		return core.ErrNotReadOnly
	case StatusDuplicateWriteKey:
		return core.ErrDuplicateWriteKey
	case StatusDurabilityLost:
		return core.ErrDurabilityLost
	case StatusClosed:
		return core.ErrClosed
	case StatusUnknownProc:
		return ErrUnknownProc
	case StatusBadRequest:
		return ErrProtocol
	}
	return nil
}

// RemoteError reconstructs a server-side error on the client so that
// errors.Is against the public sentinels (bohm.ErrDurabilityLost,
// bohm.ErrNotFound, ...) behaves as it would embedded.
type RemoteError struct {
	Status   byte
	Msg      string
	sentinel error
}

// ErrorFor turns a non-OK response status and message back into an
// error. When the message adds nothing over the sentinel the sentinel
// itself is returned, preserving err == bohm.ErrNotFound comparisons for
// the common cases.
func ErrorFor(status byte, msg string) error {
	if status == StatusOK {
		return nil
	}
	s := sentinelFor(status)
	if s != nil && (msg == "" || msg == s.Error()) {
		return s
	}
	if msg == "" {
		msg = fmt.Sprintf("wire: remote error (status %d)", status)
	}
	return &RemoteError{Status: status, Msg: msg, sentinel: s}
}

func (e *RemoteError) Error() string { return e.Msg }

// Unwrap exposes the mapped sentinel to errors.Is; nil for generic
// application errors.
func (e *RemoteError) Unwrap() error { return e.sentinel }
