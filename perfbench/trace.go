package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"bohm/internal/txn"
)

// The trace links each request's client-side times to the times the
// server and the executors saw it, without changing the program: a
// benchmark-registered wrapper procedure carries a request id ahead of
// the real procedure's name and args, records when the server's reader
// called its factory, builds the real transaction through the real
// factory, and records when exec started and finished running it.
//
// A request's spans telescope, so they add up to its latency:
//
//	Submit start ─admit→ factory call ─admit_to_run→ first Run start
//	  ─run→ last Run end ─ack→ Wait return
//
// On the embedded workload the ExecuteBatch call stands in for Submit and
// the factory call, and its return for Wait.

// traceProc is the wrapper procedure's registry id.
const traceProc = "perfbench.trace"

// Span kinds.
const (
	spanSubmit     = iota // the client.Conn.Submit call
	spanAdmit             // Submit start → the server calls the factory
	spanAdmitToRun        // factory call (embedded: ExecuteBatch call) → first Run start
	spanRun               // first Run start → last Run end (requeues rerun Run)
	spanAck               // last Run end → Wait returns (embedded: ExecuteBatch returns)
	numSpans
)

// tracer owns one slot per transaction that can be in flight at once.
// The submitter that owns a slot resets it before each request; the
// server and exec goroutines fill it in; the submitter reads it after the
// acknowledgement. The hops between them include a socket, which the
// race detector cannot see through, so every field is atomic.
type tracer struct {
	slots []traceSlot
	txns  []tracedTxn // embedded: one reusable wrapper per slot
}

type traceSlot struct {
	id       atomic.Uint64 // slot index << 32 | sequence
	admit    atomic.Int64
	runStart atomic.Int64
	runEnd   atomic.Int64
}

func newTracer(slots int) *tracer {
	tr := &tracer{slots: make([]traceSlot, slots), txns: make([]tracedTxn, slots)}
	for i := range tr.slots {
		tr.slots[i].id.Store(uint64(i) << 32)
	}
	return tr
}

// begin readies slot i for a new request and returns it with a fresh id.
func (tr *tracer) begin(i int) *traceSlot {
	s := &tr.slots[i]
	s.admit.Store(0)
	s.runStart.Store(0)
	s.runEnd.Store(0)
	s.id.Add(1)
	return s
}

// wrap readies slot i and returns the reusable wrapper that times t's
// Run into it; the embedded path submits the wrapper directly.
func (tr *tracer) wrap(i int, t txn.Txn) txn.Txn {
	w := &tr.txns[i]
	*w = tracedTxn{Txn: t, s: tr.begin(i)}
	return w
}

// register adds the wrapper procedure to reg. Its args are the request
// id (8 bytes), the inner procedure's name (1 length byte, then the
// name) and the inner procedure's args.
func (tr *tracer) register(reg *txn.Registry) {
	reg.Register(traceProc, func(args []byte) (txn.Txn, error) {
		admit := now()
		if len(args) < 9 || len(args) < 9+int(args[8]) {
			return nil, errors.New("perfbench: short trace args")
		}
		id := binary.LittleEndian.Uint64(args)
		i := int(id >> 32)
		if i >= len(tr.slots) || tr.slots[i].id.Load() != id {
			return nil, fmt.Errorf("perfbench: trace id %#x is not in flight", id)
		}
		n := 9 + int(args[8])
		inner, err := reg.Build(string(args[9:n]), args[n:])
		if err != nil {
			return nil, err
		}
		s := &tr.slots[i]
		s.admit.Store(admit)
		return &tracedTxn{Txn: inner, s: s}, nil
	})
}

// tracedTxn is the server-side wrapper: the real transaction, timed.
type tracedTxn struct {
	txn.Txn
	s *traceSlot
}

// Run implements txn.Txn. A requeued transaction runs more than once; the
// span covers the first start to the last end.
func (t *tracedTxn) Run(ctx txn.Ctx) error {
	t.s.runStart.CompareAndSwap(0, now())
	err := t.Txn.Run(ctx)
	t.s.runEnd.Store(now())
	return err
}

// Result implements txn.Resulter, so kv.get's value still reaches the
// client.
func (t *tracedTxn) Result() []byte {
	if r, ok := t.Txn.(txn.Resulter); ok {
		return r.Result()
	}
	return nil
}

// tracedCall is the client-side form of the wrapper: a Loggable that
// submits inner's procedure under traceProc. One per stream, rewrapped
// for every request; Submit copies the args into its frame before it
// returns, so the buffer is free again by the next request.
type tracedCall struct {
	inner txn.Txn
	args  []byte
}

var _ txn.Loggable = (*tracedCall)(nil)

func (c *tracedCall) wrap(inner txn.Txn, id uint64) {
	proc, args := inner.(txn.Loggable).Procedure()
	c.inner = inner
	c.args = binary.LittleEndian.AppendUint64(c.args[:0], id)
	c.args = append(c.args, byte(len(proc)))
	c.args = append(c.args, proc...)
	c.args = append(c.args, args...)
}

func (c *tracedCall) ReadSet() []txn.Key          { return c.inner.ReadSet() }
func (c *tracedCall) WriteSet() []txn.Key         { return c.inner.WriteSet() }
func (c *tracedCall) RangeSet() []txn.KeyRange    { return c.inner.RangeSet() }
func (c *tracedCall) Procedure() (string, []byte) { return traceProc, c.args }

// Run implements txn.Txn; a tracedCall is only ever sent, never run here.
func (c *tracedCall) Run(txn.Ctx) error {
	return errors.New("perfbench: a traced call runs on the server")
}
