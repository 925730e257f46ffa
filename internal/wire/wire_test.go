package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"bohm/internal/core"
	"bohm/internal/txn"
)

// sampleRequest is the request TestRequestRoundTrip encodes; it also
// seeds FuzzDecodeRequest.
var sampleRequest = Request{
	ID:    42,
	Flags: FlagReadOnly,
	Token: 7,
	Rec: txn.Record{
		Proc:   "kv.put",
		Args:   []byte{1, 2, 3},
		Reads:  []txn.Key{{Table: 1, ID: 10}},
		Writes: []txn.Key{{Table: 1, ID: 10}, {Table: 2, ID: 20}},
		Ranges: []txn.KeyRange{{Table: 3, Lo: 5, Hi: 9}},
	},
}

func TestRequestRoundTrip(t *testing.T) {
	req := sampleRequest
	buf := AppendRequest(nil, &req)
	if buf[0] != MsgSubmit {
		t.Fatalf("kind byte = %d, want %d", buf[0], MsgSubmit)
	}
	var got Request
	if err := DecodeRequest(buf[1:], &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != req.ID || got.Flags != req.Flags || got.Token != req.Token {
		t.Errorf("header mismatch: %+v vs %+v", got, req)
	}
	if got.Rec.Proc != req.Rec.Proc || !bytes.Equal(got.Rec.Args, req.Rec.Args) {
		t.Errorf("record proc/args mismatch: %+v", got.Rec)
	}
	if len(got.Rec.Reads) != 1 || len(got.Rec.Writes) != 2 || len(got.Rec.Ranges) != 1 {
		t.Errorf("access sets mismatch: %+v", got.Rec)
	}
	if got.Rec.Writes[1] != (txn.Key{Table: 2, ID: 20}) {
		t.Errorf("write key mismatch: %+v", got.Rec.Writes)
	}

	// Truncations at every prefix must error, never panic.
	for n := 0; n < len(buf)-1; n++ {
		if err := DecodeRequest(buf[1:][:n], &got); err == nil && n < len(buf)-1 {
			t.Fatalf("truncation at %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage is a protocol error too.
	if err := DecodeRequest(append(buf[1:], 0), &got); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestDecodeRequestReusesRecord decodes a stream of requests into one
// Request: once its sets have grown, decoding allocates nothing, and a
// smaller request leaves nothing of a bigger one behind.
func TestDecodeRequestReusesRecord(t *testing.T) {
	big := AppendRequest(nil, &sampleRequest)
	small := AppendRequest(nil, &Request{ID: 1, Rec: txn.Record{Proc: "kv.put", Args: []byte{9}}})
	var r Request
	allocs := testing.AllocsPerRun(100, func() {
		if DecodeRequest(big[1:], &r) != nil || DecodeRequest(small[1:], &r) != nil {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("in-place decode allocated %.1f times per pair", allocs)
	}
	if len(r.Rec.Reads)+len(r.Rec.Writes)+len(r.Rec.Ranges) != 0 || r.Flags != 0 || r.Token != 0 {
		t.Errorf("small request kept the big one's fields: %+v", r)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := Response{
		ID:     9,
		Status: StatusNotFound,
		Token:  101,
		Msg:    "key not found",
		Result: []byte{0xde, 0xad},
	}
	buf := AppendResponse(nil, &resp)
	if buf[0] != MsgResult {
		t.Fatalf("kind byte = %d, want %d", buf[0], MsgResult)
	}
	got, err := DecodeResponse(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != resp.ID || got.Status != resp.Status || got.Token != resp.Token ||
		got.Msg != resp.Msg || !bytes.Equal(got.Result, resp.Result) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, resp)
	}
}

// oversizedFrame is a length prefix above MaxFrame with no payload.
var oversizedFrame = []byte{0xff, 0xff, 0xff, 0xff}

func TestFrameRoundTripAndLimit(t *testing.T) {
	var b bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&b, append(StartFrame(nil), payload...)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("frame round trip: %q", got)
	}

	// Reading into a buffer that fits reuses it, header included.
	if err := WriteFrame(&b, append(StartFrame(nil), payload...)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	if got, err = ReadFrame(&b, buf); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("frame read into a fitting buffer: %q, %v", got, err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("ReadFrame replaced a buffer the frame fits in")
	}

	// An oversized length must be rejected before any allocation.
	b.Reset()
	b.Write(oversizedFrame)
	if _, err := ReadFrame(&b, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized frame error = %v, want ErrProtocol", err)
	}
}

type rwPair struct {
	r io.Reader
	w io.Writer
}

func (p rwPair) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p rwPair) Write(b []byte) (int, error) { return p.w.Write(b) }

func TestHandshakeRejectsBadMagic(t *testing.T) {
	var out bytes.Buffer
	rw := rwPair{r: bytes.NewReader([]byte("NOTBOHM!")), w: &out}
	if err := Handshake(rw); !errors.Is(err, ErrProtocol) {
		t.Errorf("bad magic error = %v, want ErrProtocol", err)
	}
	if out.String() != Magic {
		t.Errorf("our magic not written: %q", out.String())
	}
}

func TestStatusErrorMapping(t *testing.T) {
	// Every status produced by StatusFor must come back as an error that
	// errors.Is-matches the original sentinel.
	for _, sentinel := range []error{
		core.ErrDurabilityLost,
		core.ErrClosed,
		core.ErrNotLoggable,
		core.ErrNotReadOnly,
		core.ErrDuplicateWriteKey,
		txn.ErrNotFound,
		txn.ErrAbort,
	} {
		status := StatusFor(sentinel)
		if status == StatusOK || status == StatusError {
			t.Errorf("%v mapped to generic status %d", sentinel, status)
			continue
		}
		back := ErrorFor(status, sentinel.Error())
		if !errors.Is(back, sentinel) {
			t.Errorf("status %d does not unwrap to %v (got %v)", status, sentinel, back)
		}
	}
	if got := StatusFor(nil); got != StatusOK {
		t.Errorf("StatusFor(nil) = %d", got)
	}
	if got := ErrorFor(StatusOK, ""); got != nil {
		t.Errorf("ErrorFor(OK) = %v", got)
	}
	// A wrapped error keeps its message and its sentinel.
	wrapped := ErrorFor(StatusAborted, "insufficient funds: abort")
	if !errors.Is(wrapped, txn.ErrAbort) || wrapped.Error() != "insufficient funds: abort" {
		t.Errorf("wrapped remote error = %v", wrapped)
	}
	// Generic errors survive with their message and match nothing.
	generic := ErrorFor(StatusError, "boom")
	if generic.Error() != "boom" || errors.Is(generic, txn.ErrAbort) {
		t.Errorf("generic remote error = %v", generic)
	}
}

// FuzzDecodeRequest decodes every input into one reused Request, as a
// server slot does. A payload that decodes must re-encode to exactly
// itself, so no key, range, proc name or flag can survive from an
// earlier, bigger request.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, &sampleRequest)[1:])
	f.Add(AppendRequest(nil, &Request{ID: 1, Rec: txn.Record{Proc: "kv.get"}})[1:])
	f.Add(AppendRequest(nil, &sampleRequest)[1:20])
	var r Request
	f.Fuzz(func(t *testing.T, payload []byte) {
		if DecodeRequest(payload, &r) != nil {
			return
		}
		if got := AppendRequest(nil, &r); !bytes.Equal(got[1:], payload) {
			t.Fatalf("decoded %+v re-encodes to %x, want %x", r, got[1:], payload)
		}
	})
}

// FuzzReadFrame reads one frame from arbitrary bytes: a length above
// MaxFrame fails with ErrProtocol having allocated next to nothing, and
// no input makes ReadFrame allocate more than the (bounded) length it
// declares.
func FuzzReadFrame(f *testing.F) {
	var b bytes.Buffer
	if err := WriteFrame(&b, append(StartFrame(nil), "hello frames"...)); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())
	f.Add(oversizedFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []byte
		var err error
		alloc := allocatedBytes(func() { got, err = ReadFrame(bytes.NewReader(data), nil) })
		if len(data) < headerLen {
			if err == nil {
				t.Fatalf("read a frame from %d bytes", len(data))
			}
			return
		}
		n := uint64(binary.LittleEndian.Uint32(data))
		// The error value, the reader, the header buffer, and the
		// page rounding of a large allocation.
		const slack = 16 << 10
		if n > MaxFrame {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("length %d: err = %v, want ErrProtocol", n, err)
			}
			if alloc > slack {
				t.Fatalf("length %d rejected after allocating %d bytes", n, alloc)
			}
			return
		}
		if alloc > n+slack {
			t.Fatalf("length %d allocated %d bytes", n, alloc)
		}
		if err == nil && (uint64(len(got)) != n || !bytes.Equal(got, data[headerLen:headerLen+n])) {
			t.Fatalf("length %d read back %d bytes %x", n, len(got), got)
		}
	})
}

// allocatedBytes reports the heap bytes allocated while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
