// Package bench is the experiment harness that regenerates every figure
// and table of the paper's evaluation (§4). Each experiment builds fresh
// engines, loads the workload's tables, runs a warmup slice, then measures
// committed-transaction throughput, printing rows shaped like the paper's
// plots.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bohm/internal/core"
	"bohm/internal/engine"
	"bohm/internal/hekaton"
	"bohm/internal/obs"
	"bohm/internal/occ"
	"bohm/internal/si"
	"bohm/internal/twopl"
	"bohm/internal/txn"
)

// EngineKind names one of the five engines under test.
type EngineKind string

// The engines of the paper's evaluation.
const (
	Bohm    EngineKind = "Bohm"
	Hekaton EngineKind = "Hekaton"
	SI      EngineKind = "SI"
	OCC     EngineKind = "OCC"
	TwoPL   EngineKind = "2PL"
)

// AllEngines lists the engines in the paper's plotting order.
var AllEngines = []EngineKind{TwoPL, Bohm, OCC, SI, Hekaton}

// MultiVersionEngines lists only the multiversion systems.
var MultiVersionEngines = []EngineKind{Bohm, SI, Hekaton}

// MakeEngine builds an engine of the given kind configured for `threads`
// worker threads over a store of `capacity` records. For BOHM the threads
// are split evenly between concurrency control and execution workers
// (minimum one each), matching the paper's accounting where the plotted
// thread count is the total across both modules.
func MakeEngine(kind EngineKind, threads, capacity int) (engine.Engine, error) {
	if threads < 1 {
		threads = 1
	}
	switch kind {
	case Bohm:
		cc := threads / 2
		if cc < 1 {
			cc = 1
		}
		exec := threads - cc
		if exec < 1 {
			exec = 1
		}
		return MakeBohm(cc, exec, capacity)
	case Hekaton:
		// TrimChains is off to match the paper: its Hekaton and SI
		// implementations "do not incrementally garbage collect versions"
		// (§4), which the paper counts in their favor.
		return hekaton.New(hekaton.Config{
			Workers: threads, Capacity: capacity,
			Level: hekaton.Serializable,
		})
	case SI:
		return si.New(si.Config{Workers: threads, Capacity: capacity})
	case OCC:
		cfg := occ.DefaultConfig()
		cfg.Workers = threads
		cfg.Capacity = capacity
		return occ.New(cfg)
	case TwoPL:
		return twopl.New(twopl.Config{Workers: threads, Capacity: capacity})
	}
	return nil, fmt.Errorf("bench: unknown engine kind %q", kind)
}

// MakeBohm builds a BOHM engine with an explicit CC/execution split.
func MakeBohm(cc, exec, capacity int) (engine.Engine, error) {
	cfg := core.DefaultConfig()
	cfg.CCWorkers = cc
	cfg.ExecWorkers = exec
	cfg.Capacity = capacity
	cfg.BatchSize = 1024
	cfg.GC = true
	return core.New(cfg)
}

// Options controls one measured run.
type Options struct {
	// Txns is the number of transactions measured.
	Txns int
	// WarmupTxns run before the measured interval (defaults to Txns/10).
	WarmupTxns int
	// Streams is the number of submitter goroutines; BOHM wants several
	// to keep its pipeline full, the baselines parallelize internally.
	Streams int
	// Chunk is the number of transactions per ExecuteBatch call.
	Chunk int
	// Procs, when positive, sets GOMAXPROCS for the duration of the run.
	// On machines with fewer cores than the simulated thread count this
	// oversubscribes the cores, letting the kernel timeslice the worker
	// threads so that contention effects interleave at fine grain — the
	// stand-in for the paper's many-core host.
	Procs int
	// Label tags the run in machine-readable reports; sweeps use it to
	// distinguish configurations of the same engine (e.g. "procs=4,theta=0.9").
	Label string
}

// normalize fills defaults for the given engine kind.
func (o Options) normalize(kind EngineKind) Options {
	if o.Txns < 1 {
		o.Txns = 10_000
	}
	if o.WarmupTxns == 0 {
		o.WarmupTxns = o.Txns / 10
	}
	if o.Streams < 1 {
		if kind == Bohm {
			o.Streams = 4
		} else {
			o.Streams = 1
		}
	}
	if o.Chunk < 1 {
		o.Chunk = 4096
	}
	return o
}

// Result is the outcome of one measured run.
type Result struct {
	Txns       int
	Elapsed    time.Duration
	Throughput float64 // committed transactions per second
	Stats      engine.Stats
	Label      string
	// Per-transaction submission latency percentiles: every transaction
	// carries its ExecuteBatch call's full duration (submission to
	// completion), weighted into an obs histogram, so a 4096-transaction
	// chunk counts 4096 times — true per-transaction percentiles, unlike
	// the old per-chunk samples that weighted a 64-txn straggler chunk
	// equally with a full one. On a garbage-collected runtime the tail
	// (P999, Max) makes GC pauses visible in a way mean throughput hides.
	P50, P99, P999, Max time.Duration
}

// Run drives gen's transactions through e and measures throughput. gen is
// called once per stream and must return an independent transaction
// source; sources are used from a single goroutine each.
func Run(kind EngineKind, e engine.Engine, o Options, gen func(stream int) func() txn.Txn) Result {
	o = o.normalize(kind)
	if o.Procs > 0 {
		old := runtime.GOMAXPROCS(o.Procs)
		defer runtime.GOMAXPROCS(old)
	}

	sources := make([]func() txn.Txn, o.Streams)
	for s := range sources {
		sources[s] = gen(s)
	}

	// feed drives `total` transactions through the engine; when hist is
	// non-nil each ExecuteBatch call's duration is recorded once per
	// transaction it carried (one sharded, allocation-free RecordN per
	// call), so the histogram holds the per-transaction submission
	// latency distribution.
	feed := func(total int, hist *obs.Histogram) {
		var wg sync.WaitGroup
		per := (total + o.Streams - 1) / o.Streams
		for s := 0; s < o.Streams; s++ {
			wg.Add(1)
			go func(stream int, src func() txn.Txn) {
				defer wg.Done()
				remaining := per
				for remaining > 0 {
					n := o.Chunk
					if n > remaining {
						n = remaining
					}
					ts := make([]txn.Txn, n)
					for i := range ts {
						ts[i] = src()
					}
					start := time.Now()
					e.ExecuteBatch(ts)
					if hist != nil {
						hist.RecordN(stream, uint64(time.Since(start)), uint64(n))
					}
					remaining -= n
				}
			}(s, sources[s])
		}
		wg.Wait()
	}

	if o.WarmupTxns > 0 {
		feed(o.WarmupTxns, nil)
	}
	runtime.GC()
	before := e.Stats()
	hist := obs.NewHistogram(o.Streams)
	start := time.Now()
	feed(o.Txns, hist)
	elapsed := time.Since(start)
	stats := e.Stats().Sub(before)

	snap := hist.Snapshot()
	res := Result{
		Txns:       o.Txns,
		Elapsed:    elapsed,
		Throughput: float64(stats.Committed) / elapsed.Seconds(),
		Stats:      stats,
		Label:      o.Label,
		P50:        time.Duration(snap.Quantile(0.50)),
		P99:        time.Duration(snap.Quantile(0.99)),
		P999:       time.Duration(snap.Quantile(0.999)),
		Max:        time.Duration(snap.Max),
	}
	recordRun(kind, res)
	return res
}
