// Package client is bohm's network client: it speaks the internal/wire
// protocol to a bohm server (cmd/bohm-server or internal/server
// embedded), submitting registered procedures built with a Registry that
// mirrors the server's.
//
// A Conn is one TCP connection carrying a full-duplex pipeline: Submit
// returns a *Pending immediately and up to PipelineDepth submissions may
// be unacknowledged at once, so a single connection can keep the
// server's group batcher fed. Conn is safe for concurrent use — many
// goroutines sharing one Conn pipeline naturally.
//
// Recency: every acknowledgement carries a token (the newest durable
// batch covering the write). The Conn remembers the highest it has seen
// and attaches it to read-only submissions, giving read-your-writes on
// this connection automatically. To read your writes across connections,
// carry Token() from the writer to ObserveToken on the reader.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bohm/internal/core"
	"bohm/internal/txn"
	"bohm/internal/wire"
)

// Options tunes a connection; zero values take the stated defaults.
type Options struct {
	// PipelineDepth bounds unacknowledged submissions. Submit blocks
	// when they are all in flight. Default 64 (the server's default;
	// matching it keeps the pipe full without stalls).
	PipelineDepth int
	// DialTimeout bounds connection establishment. Default 5s.
	DialTimeout time.Duration
}

// ErrConnClosed is reported for submissions on (and pending results of)
// a connection that has been closed or has failed; it wraps the
// underlying network error when there is one.
var ErrConnClosed = errors.New("client: connection closed")

// Conn is one connection to a bohm server.
type Conn struct {
	c      net.Conn
	slots  chan struct{}
	dead   chan struct{}
	nextID atomic.Uint64
	token  atomic.Uint64

	wmu sync.Mutex // serializes frame writes and their buffer
	bw  *bufio.Writer
	wb  []byte

	mu      sync.Mutex
	pending map[uint64]*Pending
	err     error // sticky failure, set once under mu

	readerDone chan struct{}
}

// Pending is an in-flight submission. Wait blocks until the server's
// acknowledgement (durable and executed) or connection failure.
type Pending struct {
	done   sync.WaitGroup // one count, released by resolve
	err    error
	result []byte
}

// resolve records the outcome and releases every waiter; called once.
func (p *Pending) resolve(err error, result []byte) {
	p.err, p.result = err, result
	p.done.Done()
}

// Wait blocks for the outcome: nil for commit, the remote error
// otherwise (errors.Is works against the bohm sentinels — ErrNotFound,
// ErrAbort, ErrDurabilityLost, ...).
func (p *Pending) Wait() error {
	p.done.Wait()
	return p.err
}

// Result returns the transaction's result payload (procedures
// implementing a Result() method, like kv.get), valid after Wait
// returns nil.
func (p *Pending) Result() []byte {
	p.done.Wait()
	return p.result
}

// Dial connects and handshakes. opts may be nil for defaults.
func Dial(addr string, opts *Options) (*Conn, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = 64
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, o.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if err := wire.Handshake(nc); err != nil {
		_ = nc.Close()
		return nil, err
	}
	c := &Conn{
		c:          nc,
		slots:      make(chan struct{}, o.PipelineDepth),
		dead:       make(chan struct{}),
		bw:         bufio.NewWriterSize(nc, 64<<10),
		pending:    make(map[uint64]*Pending),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Token returns the highest recency token this connection has observed:
// a durable bound covering every write acknowledged to it so far. Hand
// it to another connection's ObserveToken to extend read-your-writes
// across connections.
func (c *Conn) Token() uint64 { return c.token.Load() }

// ObserveToken folds an externally learned token (another connection's
// Token after its write was acked) into this connection's recency
// bound: subsequent read-only submissions will observe those writes.
func (c *Conn) ObserveToken(tok uint64) {
	for {
		cur := c.token.Load()
		if tok <= cur || c.token.CompareAndSwap(cur, tok) {
			return
		}
	}
}

// Submit sends one transaction for execution, returning immediately
// with a Pending. t must be a bohm.Loggable (built via Registry.Call /
// MustCall): the wire format is the procedure encoding. Blocks only
// when PipelineDepth submissions are already in flight.
func (c *Conn) Submit(t txn.Txn) (*Pending, error) {
	return c.submit(t, 0, true)
}

// SubmitReadOnly sends a transaction for the server's read-only fast
// path, tagged with the connection's recency token: it will observe
// every write this connection has been acked for (and any observed via
// ObserveToken), without entering the write pipeline. The transaction
// must declare no writes.
func (c *Conn) SubmitReadOnly(t txn.Txn) (*Pending, error) {
	return c.submit(t, wire.FlagReadOnly, true)
}

// ExecuteBatch pipelines ts and waits for all outcomes, mirroring the
// embedded Engine.ExecuteBatch shape: one error slot per transaction.
func (c *Conn) ExecuteBatch(ts []txn.Txn) []error {
	return c.executeAll(ts, 0)
}

// ExecuteReadOnly pipelines ts on the read-only path and waits for all
// outcomes.
func (c *Conn) ExecuteReadOnly(ts []txn.Txn) []error {
	return c.executeAll(ts, wire.FlagReadOnly)
}

func (c *Conn) executeAll(ts []txn.Txn, flags byte) []error {
	errs := make([]error, len(ts))
	ps := make([]*Pending, len(ts))
	for i, t := range ts {
		// Flush only the last write: intermediate submissions ride the
		// buffered writer (submit flushes itself whenever it would block
		// on a pipeline slot, so a depth smaller than the batch cannot
		// deadlock).
		p, err := c.submit(t, flags, i == len(ts)-1)
		if err != nil {
			errs[i] = err
			continue
		}
		ps[i] = p
	}
	for i, p := range ps {
		if p != nil {
			errs[i] = p.Wait()
		}
	}
	return errs
}

func (c *Conn) submit(t txn.Txn, flags byte, flush bool) (*Pending, error) {
	lg, ok := t.(txn.Loggable)
	if !ok {
		return nil, fmt.Errorf("%w: network submissions need a registered procedure (Registry.Call)", core.ErrNotLoggable)
	}
	proc, args := lg.Procedure()
	var token uint64
	if flags&wire.FlagReadOnly != 0 {
		token = c.token.Load()
	}
	req := wire.Request{
		Flags: flags,
		Token: token,
		Rec: txn.Record{
			Proc: proc, Args: args,
			Reads: t.ReadSet(), Writes: t.WriteSet(), Ranges: t.RangeSet(),
		},
	}

	// Take a pipeline slot; when full, push buffered frames out first so
	// the server can drain the pipe (otherwise a full buffer and a full
	// pipeline deadlock against each other).
	select {
	case c.slots <- struct{}{}:
	case <-c.dead:
		return nil, c.deadErr()
	default:
		if err := c.Flush(); err != nil {
			return nil, err
		}
		select {
		case c.slots <- struct{}{}:
		case <-c.dead:
			return nil, c.deadErr()
		}
	}

	req.ID = c.nextID.Add(1)
	p := &Pending{}
	p.done.Add(1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		<-c.slots
		return nil, err
	}
	c.pending[req.ID] = p
	c.mu.Unlock()

	c.wmu.Lock()
	c.wb = wire.AppendRequest(wire.StartFrame(c.wb), &req)
	err := wire.WriteFrame(c.bw, c.wb)
	if err == nil && flush {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("%w: %w", ErrConnClosed, err))
		return nil, err
	}
	return p, nil
}

// Flush pushes any buffered submission frames to the server.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("%w: %w", ErrConnClosed, err))
	}
	return err
}

func (c *Conn) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.c, 64<<10)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			c.fail(fmt.Errorf("%w: %w", ErrConnClosed, err))
			return
		}
		buf = payload[:0]
		if len(payload) == 0 || payload[0] != wire.MsgResult {
			c.fail(fmt.Errorf("%w: unexpected message", wire.ErrProtocol))
			return
		}
		resp, err := wire.DecodeResponse(payload[1:])
		if err != nil {
			c.fail(err)
			return
		}
		c.ObserveToken(resp.Token)
		c.mu.Lock()
		p := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if p == nil {
			continue // response to a submission we already failed
		}
		p.resolve(wire.ErrorFor(resp.Status, resp.Msg), resp.Result)
		<-c.slots
	}
}

// fail marks the connection dead and fails every pending submission;
// idempotent, first error wins.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	ps := c.pending
	c.pending = make(map[uint64]*Pending)
	c.mu.Unlock()
	close(c.dead) // unblock slot waiters
	for _, p := range ps {
		p.resolve(err, nil)
	}
}

func (c *Conn) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrConnClosed
}

// Close flushes, closes the socket, and fails anything still pending
// with ErrConnClosed.
func (c *Conn) Close() error {
	_ = c.Flush()
	err := c.c.Close()
	<-c.readerDone
	return err
}
