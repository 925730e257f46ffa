// Package server is bohm's TCP front-end: per-connection readers feed a
// shared group batcher (batcher.go) that packs transactions from every
// connection into one ExecuteBatch call per batching window, then fans
// acknowledgements back per connection. The wire format (internal/wire)
// is the WAL's registry encoding, so any registered procedure is
// servable without new serialization.
//
// Guarantees, as seen from a client:
//
//   - A transaction is acknowledged only after it is durable and
//     executed (the engine's own ack discipline; the server adds none).
//   - Serial order is server arrival order within a lane; transactions
//     pipelined on one connection retain their submission order in the
//     write lane (one reader goroutine enqueues them in frame order).
//   - Every response carries a recency token. Reads submitted with a
//     token observe every write whose acknowledgement produced it —
//     read-your-writes on the same connection, and across connections
//     once the token is handed over (client.ObserveToken).
//   - A degraded engine (core.LogDegraded) refuses writes fast with
//     StatusDurabilityLost but keeps serving reads from the last
//     durable snapshot; a closed engine or server refuses everything
//     with StatusClosed.
//
// Backpressure is layered: per-connection pipeline slots (PipelineDepth)
// bound a client's unacknowledged submissions — the reader stops pulling
// frames when they are gone, pushing back on the client's TCP window —
// and the lane queue plus MaxInFlight dispatched batches bound the
// server's total appetite.
//
// Ownership: each connection preallocates its PipelineDepth slots, and a
// slot carries one request from frame to response — the frame buffer,
// the wire.Request decoded in place from it, the transaction built from
// that, and the response fields. All of them belong to the slot and are
// reused for a later request once the response has been encoded, which
// is only after the engine call that ran the transaction has returned.
// Frames above maxRetainedFrame are not kept past their request. So the
// served round trip allocates nothing per request on the server once a
// connection's slots are warm (per-batch slices aside).
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bohm/internal/core"
	"bohm/internal/obs"
	"bohm/internal/txn"
	"bohm/internal/wire"
)

// Config tunes the front-end; zero values take the stated defaults.
type Config struct {
	// Addr is the TCP listen address, e.g. ":4455" or "127.0.0.1:0".
	Addr string
	// MaxBatch caps transactions per coalesced batch. Default 1024
	// (the engine's default sequencer batch size).
	MaxBatch int
	// BatchWindow bounds how long the write lane holds a partial batch
	// under dense arrivals; sparse traffic flushes immediately
	// regardless (see batcher.go). Default 200µs.
	BatchWindow time.Duration
	// MaxInFlight bounds dispatched-but-unfinished batches per lane.
	// Default 4.
	MaxInFlight int
	// PipelineDepth bounds unacknowledged submissions per connection.
	// Default 64.
	PipelineDepth int
}

func (c *Config) normalize() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 64
	}
}

// closeGrace bounds how long a draining connection's writer may block
// flushing responses to a slow client before the drain gives up on it.
const closeGrace = 2 * time.Second

// Server owns the listener, the connections, and the batcher. The
// engine and registry are borrowed: callers close the server first,
// then the engine.
type Server struct {
	cfg Config
	eng *core.Engine
	reg *txn.Registry
	ln  net.Listener
	b   *batcher
	m   *metrics

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// New starts a server for eng on cfg.Addr. Procedures are resolved
// through reg, which must match the registry the engine recovers with.
// Server metrics are published on the engine's /metrics endpoint when
// Config.Metrics/DebugAddr are enabled.
func New(eng *core.Engine, reg *txn.Registry, cfg Config) (*Server, error) {
	if eng == nil || reg == nil {
		return nil, errors.New("server: nil engine or registry")
	}
	cfg.normalize()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		eng:   eng,
		reg:   reg,
		ln:    ln,
		m:     newMetrics(),
		conns: make(map[*conn]struct{}),
	}
	s.b = newBatcher(s)
	eng.RegisterMetricsExtra(s.writeMetrics)
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (how callers learn the port
// under ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := s.register(nc)
		if c == nil {
			_ = nc.Close()
			continue
		}
		go c.run()
	}
}

func (s *Server) register(nc net.Conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	return c
}

func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Close drains and stops the server: stop accepting, kick every
// connection's reader, wait for all in-flight submissions to finish and
// their responses to flush (bounded by closeGrace per stalled client),
// then stop the batcher. The engine is left open — it belongs to the
// caller and is closed after.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	s.acceptWG.Wait()
	for _, c := range conns {
		c.kick()
	}
	s.connWG.Wait()
	// Every connection has drained (all request slots reacquired), so no
	// submitter remains and the lanes can close.
	s.b.stop()
	return err
}

// maxRetainedFrame caps the frame buffer a slot keeps between requests,
// so one large request does not pin its buffer — nor the decoded sets
// and the transaction sized by it — for the life of the connection.
const maxRetainedFrame = 64 << 10

// request is one pipeline slot of a connection and the submission it
// currently carries: reader → batcher lane → engine → writer, then back
// on the connection's free list. See the package comment for what the
// slot owns.
type request struct {
	c     *conn
	frame []byte       // the request frame's buffer
	q     wire.Request // decoded in place from frame
	w     wireTxn      // what the batch executes
	// proc is the procedure w.inner was built for: a later request for
	// the same procedure rebuilds it in place when it is a
	// txn.Rebuilder.
	proc string
	resp wire.Response // encoded by the writer
}

// build readies the slot's transaction for its decoded request: the
// previous one rebuilt in place when it came from the same procedure and
// supports it, a fresh one from the procedure's factory otherwise.
func (r *request) build(f txn.Factory) error {
	rec := &r.q.Rec
	if rb, ok := r.w.inner.(txn.Rebuilder); ok && r.proc == rec.Proc && rb.Rebuild(rec.Args) == nil {
		return nil
	}
	r.w.inner, r.proc = nil, ""
	t, err := f(rec.Args)
	if err != nil {
		return fmt.Errorf("building procedure %q: %w", rec.Proc, err)
	}
	if t == nil {
		return fmt.Errorf("factory for %q returned nil transaction", rec.Proc)
	}
	r.w.inner, r.proc = t, rec.Proc
	return nil
}

// finish fills in the response and hands the slot to the connection's
// writer. The send never blocks: ready holds every slot.
func (r *request) finish(err error, token uint64) {
	r.resp = wire.Response{ID: r.q.ID, Token: token}
	if err != nil {
		r.resp.Status = wire.StatusFor(err)
		r.resp.Msg = err.Error()
	} else if res, ok := r.w.inner.(txn.Resulter); ok {
		r.resp.Result = res.Result()
	}
	r.c.ready <- r
}

// recycle returns the slot to the free list once its response has been
// encoded, first dropping everything a large request or result could
// have sized: the frame, the decoded request and the transaction.
func (r *request) recycle() {
	if cap(r.frame) > maxRetainedFrame || cap(r.resp.Result) > maxRetainedFrame {
		r.frame = nil
		r.q = wire.Request{}
		r.w.inner, r.proc = nil, ""
	}
	r.resp = wire.Response{}
	r.c.free <- r
}

// wireTxn wraps a registry-built transaction with the identity and
// access sets that came over the wire, mirroring the WAL's replay
// wrapper: when the client declared sets, they are authoritative (the
// same bytes will be logged); when it declared none, the factory-built
// transaction's own sets stand.
type wireTxn struct {
	inner    txn.Txn
	rec      *txn.Record
	declared bool
}

var _ txn.Loggable = (*wireTxn)(nil)

func (t *wireTxn) ReadSet() []txn.Key {
	if t.declared {
		return t.rec.Reads
	}
	return t.inner.ReadSet()
}

func (t *wireTxn) WriteSet() []txn.Key {
	if t.declared {
		return t.rec.Writes
	}
	return t.inner.WriteSet()
}

func (t *wireTxn) RangeSet() []txn.KeyRange {
	if t.declared {
		return t.rec.Ranges
	}
	return t.inner.RangeSet()
}

func (t *wireTxn) Run(ctx txn.Ctx) error { return t.inner.Run(ctx) }

func (t *wireTxn) Procedure() (string, []byte) { return t.rec.Proc, t.rec.Args }

// conn is one client connection: a reader goroutine (frames → requests →
// batcher lanes), a writer goroutine (responses → frames), and the
// request slots circulating between them.
type conn struct {
	srv   *Server
	c     net.Conn
	slots []request
	// free holds the slots no request occupies: the reader takes one per
	// frame, the writer puts it back once the response is encoded.
	// Draining a connection = taking every slot. ready carries finished
	// slots to the writer. Both hold every slot, so sends never block.
	free       chan *request
	ready      chan *request
	die        chan struct{}
	kickOnce   sync.Once
	readerDone chan struct{}
	writerDone chan struct{}
}

func newConn(s *Server, nc net.Conn) *conn {
	depth := s.cfg.PipelineDepth
	c := &conn{
		srv:        s,
		c:          nc,
		slots:      make([]request, depth),
		free:       make(chan *request, depth),
		ready:      make(chan *request, depth),
		die:        make(chan struct{}),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	for i := range c.slots {
		r := &c.slots[i]
		r.c = c
		r.w.rec = &r.q.Rec
		c.free <- r
	}
	return c
}

// kick unblocks a connection's goroutines for teardown: the reader via
// a past read deadline, the writer via a bounded write deadline (one
// grace period to flush pending responses to a live client).
func (c *conn) kick() {
	c.kickOnce.Do(func() {
		close(c.die)
		_ = c.c.SetReadDeadline(time.Now())
		_ = c.c.SetWriteDeadline(time.Now().Add(closeGrace))
	})
}

func (c *conn) run() {
	defer c.srv.connWG.Done()
	c.srv.m.connections.Add(1)
	go c.writeLoop()
	c.readLoop()
	close(c.readerDone)
	c.kick()
	// Drain: every outstanding request holds a slot, returned only after
	// its response is encoded (or the writer has failed past it). Taking
	// every slot proves nothing is left in the batcher or the ready queue
	// for this connection.
	for range c.slots {
		<-c.free
	}
	close(c.ready)
	<-c.writerDone
	_ = c.c.Close()
	c.srv.forget(c)
	c.srv.m.connections.Add(-1)
}

func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.c, 64<<10)
	if err := wire.Handshake(readWriter{br, c.c}); err != nil {
		return
	}
	for {
		var r *request
		select {
		case r = <-c.free:
		case <-c.die:
			return
		}
		if !c.read(br, r) {
			c.free <- r
			return
		}
		c.handle(r)
	}
}

// read reads and decodes the next submit frame into r; false means the
// connection is done (closed, broken, or speaking nonsense).
func (c *conn) read(br *bufio.Reader, r *request) bool {
	payload, err := wire.ReadFrame(br, r.frame)
	if err != nil {
		return false
	}
	r.frame = payload
	return len(payload) > 0 && payload[0] == wire.MsgSubmit &&
		wire.DecodeRequest(payload[1:], &r.q) == nil
}

// handle admits one decoded submit: fail-fast checks, transaction
// build, lane routing. Runs on the reader goroutine, so per-connection
// submission order is preserved into the write lane.
func (c *conn) handle(r *request) {
	s := c.srv
	m := s.m
	q := &r.q
	readOnly := q.Flags&wire.FlagReadOnly != 0

	if h, cause := s.eng.Health(); h == core.Closed {
		c.reject(r, wire.StatusClosed, core.ErrClosed.Error())
		return
	} else if h == core.LogDegraded && !readOnly {
		// Fail writes fast without spending batcher capacity; reads keep
		// flowing to the degraded snapshot.
		msg := core.ErrDurabilityLost.Error()
		if cause != nil {
			msg += ": " + cause.Error()
		}
		c.reject(r, wire.StatusDurabilityLost, msg)
		return
	}

	f, ok := s.reg.Lookup(q.Rec.Proc)
	if !ok {
		c.reject(r, wire.StatusUnknownProc, fmt.Sprintf("unknown procedure %q", q.Rec.Proc))
		return
	}
	if err := r.build(f); err != nil {
		c.reject(r, wire.StatusBadRequest, err.Error())
		return
	}
	r.w.declared = len(q.Rec.Reads)+len(q.Rec.Writes)+len(q.Rec.Ranges) > 0
	m.submitted.Add(1)
	m.queued.Add(1)
	if readOnly {
		s.b.ro <- r
	} else {
		s.b.in <- r
	}
}

// reject responds without touching the batcher; the writer recycles the
// slot like any other.
func (c *conn) reject(r *request, status byte, msg string) {
	c.srv.m.rejected.Add(1)
	r.resp = wire.Response{ID: r.q.ID, Status: status, Token: c.srv.eng.AckedBatch(), Msg: msg}
	c.ready <- r
}

// writeLoop frames responses back to the client, flushing whenever the
// queue goes momentarily empty, and recycles each slot once its
// response is encoded. After a write error it keeps draining — and
// keeps recycling slots, which the drain in run() depends on — without
// writing.
func (c *conn) writeLoop() {
	defer close(c.writerDone)
	bw := bufio.NewWriterSize(c.c, 64<<10)
	var buf []byte
	failed := false
	write := func(r *request) {
		if !failed {
			buf = wire.AppendResponse(wire.StartFrame(buf), &r.resp)
			if err := wire.WriteFrame(bw, buf); err != nil {
				failed = true
			}
			if cap(buf) > maxRetainedFrame {
				buf = nil
			}
		}
		r.recycle()
	}
	for {
		select {
		case r, ok := <-c.ready:
			if !ok {
				_ = bw.Flush()
				return
			}
			write(r)
		default:
			if !failed && bw.Flush() != nil {
				failed = true
			}
			r, ok := <-c.ready
			if !ok {
				return
			}
			write(r)
		}
	}
}

// readWriter pairs the buffered reader with the raw conn for the
// handshake.
type readWriter struct {
	io.Reader
	io.Writer
}

// metrics is the server-side observability state, published on the
// engine's /metrics endpoint as the bohm_server_* family.
type metrics struct {
	fill *obs.Histogram // batch size at flush, per lane
	wait *obs.Histogram // first-enqueue → flush latency (ns), per lane

	flushes         [2][numFlushReasons]atomic.Uint64
	admissionStalls atomic.Uint64
	submitted       atomic.Uint64
	rejected        atomic.Uint64

	connections     atomic.Int64
	queued          atomic.Int64
	inflightBatches atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{
		fill: obs.NewHistogram(2),
		wait: obs.NewHistogram(2),
	}
}

func (s *Server) writeMetrics(w io.Writer) {
	m := s.m
	counters := []obs.Counter{
		{Name: "bohm_server_txns_submitted_total", Help: "Transactions accepted into the batcher.", Value: m.submitted.Load()},
		{Name: "bohm_server_txns_rejected_total", Help: "Submissions refused before batching (health, unknown procedure, bad request).", Value: m.rejected.Load()},
		{Name: "bohm_server_admission_stalls_total", Help: "Batch flushes that blocked on the in-flight limit.", Value: m.admissionStalls.Load()},
	}
	for lane, ln := range [2]string{"write", "read"} {
		for reason := 0; reason < numFlushReasons; reason++ {
			counters = append(counters, obs.Counter{
				Name:  fmt.Sprintf("bohm_server_batch_flush_%s_%s_total", ln, flushReasonNames[reason]),
				Value: m.flushes[lane][reason].Load(),
			})
		}
	}
	obs.WriteCounters(w, counters)
	obs.WriteGauges(w, []obs.Gauge{
		{Name: "bohm_server_connections", Help: "Open client connections.",
			Value: func() float64 { return float64(m.connections.Load()) }},
		{Name: "bohm_server_inflight_batches", Help: "Coalesced batches dispatched to the engine and not yet finished.",
			Value: func() float64 { return float64(m.inflightBatches.Load()) }},
		{Name: "bohm_server_queued_txns", Help: "Transactions accepted but not yet dispatched in a batch.",
			Value: func() float64 { return float64(m.queued.Load()) }},
	})
	obs.WriteHistogram(w, "bohm_server_batch_fill",
		"Transactions per coalesced batch at flush.", m.fill.Snapshot(), 1)
	obs.WriteHistogram(w, "bohm_server_batch_wait_seconds",
		"Batch collection time from first enqueue to flush.", m.wait.Snapshot(), 1e9)
}
