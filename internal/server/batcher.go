package server

// The group batcher: the server's whole reason to exist. BOHM's costs
// amortize per batch (sequencing, CC fan-out, the log append and fsync,
// arena resets), so a single connection submitting one transaction at a
// time pays full freight per transaction. The batcher coalesces
// submissions from every connection into shared ExecuteBatch calls,
// converting connection-level parallelism directly into batch depth.
//
// Two lanes, because the two engine entry points have different
// economics. The write lane feeds ExecuteBatch and is worth waiting on:
// a fuller batch divides the fsync among more transactions. The read
// lane feeds ExecuteReadOnly, which costs nothing per call beyond the
// recency wait — reads are grouped only as far as they have already
// queued, never held back by a timer.
//
// The write-lane window adapts to arrival rate with an EWMA of
// inter-arrival times: when arrivals are sparse (EWMA at or above the
// window) a timer cannot fill the batch, so partial batches flush the
// moment the queue drains — an idle engine serves a lone client at
// near-embedded latency. When arrivals are dense the lane holds a
// partial batch until the window deadline, letting concurrent
// connections pile on.
//
// Admission control: at most MaxInFlight dispatched batches per lane.
// When the engine falls behind, flush blocks the coalescer, the lane
// queue fills, per-connection pipeline slots stop recycling, and
// readers stop reading frames — backpressure all the way to the
// client's TCP window, with no unbounded queue anywhere.

import (
	"sync"
	"time"

	"bohm/internal/txn"
)

// Flush reasons, indexed into metrics.flushes.
const (
	flushSize  = iota // batch reached MaxBatch
	flushTimer        // window deadline expired with a partial batch
	flushIdle         // queue drained under sparse arrivals (or read lane)
	flushClose        // lane closed during collection
	numFlushReasons
)

var flushReasonNames = [numFlushReasons]string{"size", "timer", "idle", "close"}

// Histogram shards, one per lane (each lane is a single goroutine).
const (
	writeLane = 0
	readLane  = 1
)

type batcher struct {
	srv      *Server
	max      int
	window   time.Duration
	in       chan *request // write lane
	ro       chan *request // read lane
	inflight [2]chan struct{}
	dispatch sync.WaitGroup // in-flight batch goroutines
	lanes    sync.WaitGroup // the two coalescers
}

func newBatcher(s *Server) *batcher {
	b := &batcher{
		srv:    s,
		max:    s.cfg.MaxBatch,
		window: s.cfg.BatchWindow,
		in:     make(chan *request, s.cfg.MaxBatch),
		ro:     make(chan *request, s.cfg.MaxBatch),
	}
	b.inflight[writeLane] = make(chan struct{}, s.cfg.MaxInFlight)
	b.inflight[readLane] = make(chan struct{}, s.cfg.MaxInFlight)
	b.lanes.Add(2)
	go b.coalesce(b.in, writeLane)
	go b.coalesce(b.ro, readLane)
	return b
}

// stop closes both lanes and waits for the coalescers and every
// dispatched batch to finish. Callers must guarantee no submitter is
// left: the server closes lanes only after every connection has drained.
func (b *batcher) stop() {
	close(b.in)
	close(b.ro)
	b.lanes.Wait()
	b.dispatch.Wait()
}

// coalesce is one lane's collection loop; see the package comment for
// the policy.
func (b *batcher) coalesce(ch chan *request, lane int) {
	defer b.lanes.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	// EWMA inter-arrival estimate; starts at the window (assume sparse)
	// and is clamped per sample so one long idle gap decays within a few
	// arrivals of a flood starting.
	iat := b.window
	var lastArrival time.Time
	observe := func() {
		now := time.Now()
		if !lastArrival.IsZero() {
			d := now.Sub(lastArrival)
			if lim := 4 * b.window; d > lim {
				d = lim
			}
			iat = (7*iat + d) / 8
		}
		lastArrival = now
	}
	buf := make([]*request, 0, b.max)
	for {
		r, ok := <-ch
		if !ok {
			return
		}
		buf = append(buf[:0], r)
		observe()
		first := time.Now()
		reason := flushSize
		closed := false
	fill:
		for len(buf) < b.max {
			// Greedy non-blocking drain: take everything already queued.
			select {
			case r, ok := <-ch:
				if !ok {
					reason, closed = flushClose, true
					break fill
				}
				buf = append(buf, r)
				observe()
				continue
			default:
			}
			// Queue momentarily empty with a partial batch.
			if lane == readLane || iat >= b.window {
				reason = flushIdle
				break fill
			}
			wait := time.Until(first.Add(b.window))
			if wait <= 0 {
				reason = flushTimer
				break fill
			}
			timer.Reset(wait)
			select {
			case r, ok := <-ch:
				if !timer.Stop() {
					<-timer.C
				}
				if !ok {
					reason, closed = flushClose, true
					break fill
				}
				buf = append(buf, r)
				observe()
			case <-timer.C:
				reason = flushTimer
				break fill
			}
		}
		b.flush(buf, lane, reason, first)
		buf = buf[:0]
		if closed {
			return
		}
	}
}

// flush records the batch's shape, takes an in-flight slot (admission
// control — this send blocking the coalescer IS the backpressure), and
// dispatches the batch to the engine on its own goroutine so the lane
// can start collecting the next one.
func (b *batcher) flush(reqs []*request, lane, reason int, first time.Time) {
	if len(reqs) == 0 {
		return
	}
	batch := make([]*request, len(reqs))
	copy(batch, reqs)
	m := b.srv.m
	m.fill.Record(lane, uint64(len(batch)))
	m.wait.Record(lane, uint64(time.Since(first).Nanoseconds()))
	m.flushes[lane][reason].Add(1)
	sem := b.inflight[lane]
	select {
	case sem <- struct{}{}:
	default:
		m.admissionStalls.Add(1)
		sem <- struct{}{}
	}
	m.queued.Add(-int64(len(batch)))
	m.inflightBatches.Add(1)
	b.dispatch.Add(1)
	go func() {
		defer b.dispatch.Done()
		b.run(batch, lane)
		m.inflightBatches.Add(-1)
		<-sem
	}()
}

// run executes one coalesced batch and fans results back to each
// request's connection. The recency token attached to every response is
// the newest acknowledged batch after completion: a client that echoes
// it on a read — on this connection or any other that observed the ack —
// is guaranteed to see these writes.
func (b *batcher) run(batch []*request, lane int) {
	eng := b.srv.eng
	ts := make([]txn.Txn, len(batch))
	for i, r := range batch {
		ts[i] = &r.w
	}
	var errs []error
	if lane == readLane {
		var maxTok uint64
		for _, r := range batch {
			if r.q.Token > maxTok {
				maxTok = r.q.Token
			}
		}
		eng.WaitCovered(maxTok)
		errs = eng.ExecuteReadOnly(ts)
	} else {
		errs = eng.ExecuteBatch(ts)
	}
	token := eng.AckedBatch()
	for i, r := range batch {
		r.finish(errs[i], token)
	}
}
