package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bohm/client"
	"bohm/internal/txn"
)

// A measured window is cut into intervals; throughput and the latency
// percentiles are each the median of their per-interval values, so a
// garbage-collection cycle or a burst of hypervisor steal moves a few
// intervals, not the result.
const (
	defaultWarmup = 3 * time.Second
	interval      = time.Second
)

// Phases of a measured run, as the submitters see them.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// epoch is the clock every timestamp is taken against — the client's and,
// through the trace wrapper, the server's — so spans of one request
// subtract cleanly.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// measurement is what one measured window produced.
type measurement struct {
	tps         float64   // median of the interval rates
	intervals   []float64 // committed per second, per interval
	steals      []float64 // host CPU share stolen, per interval
	residentMB  float64   // peak of the memory held from the OS, sampled per interval
	attempted   int64
	failed      int64
	committed   int64
	writes      int64               // committed transactions that wrote
	lat         []float64           // ns per transaction, sorted
	intervalLat [][]float64         // the same samples by completion interval, each sorted
	spans       [numSpans][]float64 // ns per transaction, sorted
	stealFrac   float64             // host CPU share stolen by the hypervisor
	cpuNS       float64             // process user+sys CPU
	allocs      float64             // heap objects allocated
	allocBytes  float64             // heap bytes allocated
	layers      *layerDelta         // traced only
	audit       error               // nil when the audit passed
}

func (m *measurement) errorRate() float64 {
	return float64(m.failed) / per(m.attempted)
}

// worker is one submitter's private tally; merged after the run.
type worker struct {
	attempted, failed int64 // in the window
	writes            int64 // committed writes in the window
	allWrites         int64 // committed writes over the whole run, for the audit
	emptyReads        int64
	lat               []float64 // ns per transaction
	at                []int64   // completion time of each lat sample
	spans             [numSpans][]float64
}

// sample records one latency that completed inside the window.
func (w *worker) sample(done, ns int64) {
	w.lat = append(w.lat, float64(ns))
	w.at = append(w.at, done)
}

// observe counts one transaction completed inside the window.
func (w *worker) observe(err error, write bool) {
	w.attempted++
	if err != nil {
		w.failed++
	} else if write {
		w.writes++
	}
}

// loop is the state the submitters share.
type loop struct {
	phase atomic.Int32
	done  atomic.Int64 // committed transactions, whole run
}

// measure drives r with its streams: a warm-up, then seconds of measured
// closed-loop load, then an audit. An error means no measurement; a
// failed audit is reported in the measurement.
func measure(r *rig, streams []stream, warmup time.Duration, seconds int) (*measurement, error) {
	// Start from a collected heap: set-up garbage (a recovery's, above
	// all) is not the steady state's cost.
	runtime.GC()
	var l loop
	workers := make([]worker, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r.spec.served {
				l.served(r, r.conns[i%conns], streams[i], i, &workers[i])
			} else {
				l.embedded(r, streams[i], i*pipelineDepth, &workers[i])
			}
		}(i)
	}

	time.Sleep(warmup)
	cpu0 := cpuNS()
	objs0, bytes0 := heapAllocs()
	steal0, ticks0 := cpuTicks()
	var lay0 *layerSnap
	if r.tr != nil {
		lay0 = snapLayers(r)
	}
	l.phase.Store(phaseMeasure)
	start := now()
	m := &measurement{}
	last, lastDone := start, l.done.Load()
	stealPrev, ticksPrev := steal0, ticks0
	end := time.Duration(seconds) * time.Second
	for k := 1; time.Duration(last-start) < end; k++ {
		time.Sleep(time.Duration(start + int64(k)*int64(interval) - now()))
		t, d := now(), l.done.Load()
		st, tt := cpuTicks()
		m.steals = append(m.steals, float64(st-stealPrev)/float64(max(tt-ticksPrev, 1)))
		stealPrev, ticksPrev = st, tt
		m.residentMB = max(m.residentMB, residentMB())
		m.intervals = append(m.intervals, float64(d-lastDone)/time.Duration(t-last).Seconds())
		last, lastDone = t, d
	}
	l.phase.Store(phaseStop)
	cpu1 := cpuNS()
	objs1, bytes1 := heapAllocs()
	steal1, ticks1 := cpuTicks()
	if r.tr != nil {
		m.layers = snapLayers(r).sub(lay0)
	}
	wg.Wait()

	m.tps = median(m.intervals)
	m.intervalLat = make([][]float64, len(m.intervals))
	m.stealFrac = float64(steal1-steal0) / float64(max(ticks1-ticks0, 1))
	m.cpuNS = float64(cpu1 - cpu0)
	m.allocs = float64(objs1 - objs0)
	m.allocBytes = float64(bytes1 - bytes0)
	var allWrites, emptyReads int64
	for i := range workers {
		w := &workers[i]
		m.attempted += w.attempted
		m.failed += w.failed
		m.writes += w.writes
		allWrites += w.allWrites
		emptyReads += w.emptyReads
		m.lat = append(m.lat, w.lat...)
		for j, at := range w.at {
			k := min(max(int((at-start)/int64(interval)), 0), len(m.intervals)-1)
			m.intervalLat[k] = append(m.intervalLat[k], w.lat[j])
		}
		for s := range m.spans {
			m.spans[s] = append(m.spans[s], w.spans[s]...)
		}
	}
	m.committed = m.attempted - m.failed
	if m.attempted == 0 {
		return nil, fmt.Errorf("%s: no transaction completed in %ds", r.spec.name, seconds)
	}
	sort.Float64s(m.lat)
	for _, lat := range m.intervalLat {
		sort.Float64s(lat)
	}
	for s := range m.spans {
		sort.Float64s(m.spans[s])
	}
	m.audit = r.audit(allWrites, emptyReads)
	return m, nil
}

// served is one closed-loop client stream: submit, wait for the ack,
// repeat. Latency runs from the Submit call until Wait returns.
func (l *loop) served(r *rig, c *client.Conn, st stream, slot int, w *worker) {
	var call tracedCall
	for i := 0; l.phase.Load() != phaseStop; i++ {
		j := i % len(st.txns)
		t, read := st.txns[j], st.read[j]
		var sl *traceSlot
		if r.tr != nil {
			sl = r.tr.begin(slot)
			call.wrap(t, sl.id.Load())
			t = &call
		}
		t0 := now()
		p, err := submit(c, t, read)
		t1 := now()
		if err == nil {
			err = p.Wait()
		}
		t2 := now()
		if err == nil {
			l.done.Add(1)
			if !read {
				w.allWrites++
			} else if len(p.Result()) == 0 {
				w.emptyReads++
			}
		}
		if l.phase.Load() != phaseMeasure {
			continue
		}
		w.observe(err, !read)
		w.sample(t2, t2-t0)
		if sl != nil && err == nil {
			admit, start, end := sl.admit.Load(), sl.runStart.Load(), sl.runEnd.Load()
			w.spans[spanSubmit] = append(w.spans[spanSubmit], float64(t1-t0))
			w.spans[spanAdmit] = append(w.spans[spanAdmit], float64(admit-t0))
			w.spans[spanAdmitToRun] = append(w.spans[spanAdmitToRun], float64(start-admit))
			w.spans[spanRun] = append(w.spans[spanRun], float64(end-start))
			w.spans[spanAck] = append(w.spans[spanAck], float64(t2-end))
		}
	}
}

func submit(c *client.Conn, t txn.Txn, read bool) (*client.Pending, error) {
	if read {
		return c.SubmitReadOnly(t)
	}
	return c.Submit(t)
}

// embedded is one closed-loop embedded submitter: ExecuteBatch calls of
// pipelineDepth transactions, each call's duration the latency of its
// transactions. Trace slots slot0 .. slot0+pipelineDepth-1 are its own.
func (l *loop) embedded(r *rig, st stream, slot0 int, w *worker) {
	batch := make([]txn.Txn, pipelineDepth)
	for i := 0; l.phase.Load() != phaseStop; i = (i + pipelineDepth) % len(st.txns) {
		copy(batch, st.txns[i:i+pipelineDepth])
		if r.tr != nil {
			for k, t := range batch {
				batch[k] = r.tr.wrap(slot0+k, t)
			}
		}
		t0 := now()
		errs := r.eng.ExecuteBatch(batch)
		t1 := now()
		var ok int64
		for _, err := range errs {
			if err == nil {
				ok++
			}
		}
		l.done.Add(ok)
		w.allWrites += ok
		if l.phase.Load() != phaseMeasure {
			continue
		}
		for _, err := range errs {
			w.observe(err, true)
		}
		w.sample(t1, t1-t0)
		if r.tr == nil {
			continue
		}
		for k, err := range errs {
			if err != nil {
				continue
			}
			sl := &r.tr.slots[slot0+k]
			start, end := sl.runStart.Load(), sl.runEnd.Load()
			w.spans[spanAdmitToRun] = append(w.spans[spanAdmitToRun], float64(start-t0))
			w.spans[spanRun] = append(w.spans[spanRun], float64(end-start))
			w.spans[spanAck] = append(w.spans[spanAck], float64(t1-end))
		}
	}
}

// quantile returns the q-quantile of sorted samples, interpolating
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i+1 >= n {
		return sorted[n-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// latency is the median over the window's intervals of each interval's
// q-quantile latency, in ns.
func (m *measurement) latency(q float64) float64 {
	var vals []float64
	for _, lat := range m.intervalLat {
		if len(lat) > 0 {
			vals = append(vals, quantile(lat, q))
		}
	}
	return median(vals)
}

// guestTPS is the median over intervals of the committed rate per second
// of CPU the hypervisor left the guest: the interval's rate divided by
// the share of the host's CPU time that was not stolen. It compares two
// windows run under different steal far better than the raw rate does.
func (m *measurement) guestTPS() float64 {
	var vals []float64
	for k, rate := range m.intervals {
		vals = append(vals, rate/(1-m.steals[k]))
	}
	return median(vals)
}
