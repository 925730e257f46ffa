package core

// Observability integration: stage histograms, engine gauges, the flight
// recorder, and the opt-in debug HTTP endpoint. Everything here is gated
// on Config.Metrics — when it is off, e.obs is nil and every
// instrumentation site in the pipeline reduces to one pointer load and a
// branch. When it is on, the record path still performs no allocation
// and takes no locks (see internal/obs); aggregation happens only at
// scrape time.
//
// Clock discipline: stamps are int64 nanoseconds since the engine was
// built (time.Since of a fixed base, so they are monotonic). Batch stage
// stamps travel inside the batch (batchObs in node.go) and are folded
// into histograms by the last execution worker to finish the batch,
// which is also the only goroutine that pushes the batch's flight
// record — one histogram pass per batch, not per transaction.

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"sync"
	"time"

	"bohm/internal/engine"
	"bohm/internal/obs"
)

// obsState is the engine's observability root: the monotonic clock base,
// the metrics set, and the optional debug HTTP server.
type obsState struct {
	base  time.Time
	start time.Time // wall-clock engine start, for flight-dump readers
	m     *obs.Metrics
	srv   *http.Server
	ln    net.Listener

	extraMu sync.Mutex
	extra   []func(io.Writer) // RegisterMetricsExtra hooks, scrape-time only
}

// now returns nanoseconds since the engine was built, monotonic.
func (o *obsState) now() int64 { return int64(time.Since(o.base)) }

// newObsState builds the metrics set sized to the pipeline. Batch-stage
// histograms are sharded by recording execution worker.
func newObsState(cfg *Config) *obsState {
	return &obsState{
		base:  time.Now(),
		start: time.Now(),
		m:     obs.NewMetrics(cfg.ExecWorkers, cfg.ReadWorkers, cfg.FlightRecorderSize),
	}
}

// obsRecordBatch folds one completed batch's stage timeline into the
// histograms (sharded by the recording worker) and pushes its flight
// record. Called by exactly one execution worker per batch — the one
// whose obs.done increment reached ExecWorkers — after every node of the
// batch is Complete, so reading nd.err below is ordered by the counter.
func (e *Engine) obsRecordBatch(w int, b *batch, o *obsState) {
	// Idle-reclamation ticks travel the pipeline as zero-node batches.
	// They are housekeeping, not traffic: recording them would dilute the
	// stage histograms with empty-batch latencies and flush real batches
	// out of the flight ring whenever the engine sits idle. They surface
	// through Stats().IdleTicks instead.
	if len(b.nodes) == 0 {
		return
	}
	end := o.now()
	m := o.m
	seq := b.obs.seq
	if t := b.obs.submit; t > 0 && seq >= t {
		m.Stages[obs.StageSeqWait].Record(w, uint64(seq-t))
	}
	ccStart := seq
	if lg := b.obs.log; lg > 0 {
		if lg >= seq {
			m.Stages[obs.StageLogAppend].Record(w, uint64(lg-seq))
		}
		ccStart = lg
	}
	first, last := b.obs.ccFirst.Load(), b.obs.ccLast.Load()
	if ccStart > 0 && last >= ccStart {
		m.Stages[obs.StageCC].Record(w, uint64(last-ccStart))
	}
	if first > 0 && last >= first {
		m.Stages[obs.StageBarrier].Record(w, uint64(last-first))
	}
	if last > 0 && end >= last {
		m.Stages[obs.StageExec].Record(w, uint64(end-last))
	}
	var aborts int64
	for _, nd := range b.nodes {
		if nd.err != nil {
			aborts++
		}
	}
	m.Flight.Record(obs.BatchRecord{
		Seq: b.seq, Txns: int64(len(b.nodes)), Aborts: aborts,
		SubmitNS: b.obs.submit, SequencedNS: seq, LoggedNS: b.obs.log,
		CCFirstNS: first, CCLastNS: last, ExecDoneNS: end,
	})
}

// Metrics returns the engine's metrics set, or nil when Config.Metrics
// is off. Callers may snapshot histograms and the flight recorder at
// will; see internal/obs.
func (e *Engine) Metrics() *obs.Metrics {
	if e.obs == nil {
		return nil
	}
	return e.obs.m
}

// FlightRecords returns the flight recorder's current window, oldest
// first; nil when metrics are off.
func (e *Engine) FlightRecords() []obs.BatchRecord {
	if e.obs == nil {
		return nil
	}
	return e.obs.m.Flight.Snapshot(nil)
}

// gauges samples point-in-time pipeline state from structures the engine
// already maintains; no instrumentation cost exists outside the scrape.
func (e *Engine) gauges() []obs.Gauge {
	return []obs.Gauge{
		{Name: "bohm_sequencer_queue_depth", Help: "Submissions waiting for the sequencer.",
			Value: func() float64 { return float64(len(e.subCh)) }},
		{Name: "bohm_readonly_queue_depth", Help: "Read-only fast-path jobs waiting for a snapshot worker.",
			Value: func() float64 { return float64(len(e.fastCh)) }},
		{Name: "bohm_batches_sequenced", Help: "Newest batch sequence the sequencer has flushed.",
			Value: func() float64 { return float64(e.seqBase + e.batches.Load()) }},
		{Name: "bohm_exec_watermark", Help: "Newest batch every execution worker has finished.",
			Value: func() float64 { return float64(e.execWatermark()) }},
		{Name: "bohm_batches_inflight", Help: "Sequenced batches not yet fully executed (watermark lag).",
			Value: func() float64 {
				seq := e.seqBase + e.batches.Load()
				wm := e.execWatermark()
				if seq < wm {
					return 0
				}
				return float64(seq - wm)
			}},
		{Name: "bohm_gc_watermark", Help: "Batch sequence garbage collection and recycling trail (execution watermark capped by the checkpoint pin and reader epochs).",
			Value: func() float64 { return float64(e.watermark()) }},
		{Name: "bohm_reader_epoch_pin_age_batches", Help: "Batches the oldest published snapshot-reader epoch trails the execution watermark by; 0 when no reader is active.",
			Value: func() float64 {
				wm := e.execWatermark()
				min := inactiveEpoch
				for i := range e.roEpochs {
					if s := e.roEpochs[i].Load(); s < min {
						min = s
					}
				}
				if min == inactiveEpoch || min >= wm {
					return 0
				}
				return float64(wm - min)
			}},
		{Name: "bohm_checkpoint_pin_lag_batches", Help: "Batches the checkpoint GC pin trails the execution watermark by; 0 when checkpointing is inactive.",
			Value: func() float64 {
				pin := e.ckptPin.Load()
				wm := e.execWatermark()
				if pin == ^uint64(0) || pin >= wm {
					return 0
				}
				return float64(wm - pin)
			}},
		{Name: "bohm_last_checkpoint_batch", Help: "Batch watermark of the newest checkpoint.",
			Value: func() float64 { return float64(e.lastCkpt.Load()) }},
		{Name: "bohm_version_pool_free_versions", Help: "Recycled versions parked on the partition pools' free lists.",
			Value: func() float64 {
				var n uint64
				for _, p := range e.vpools {
					n += p.Free()
				}
				return float64(n)
			}},
		{Name: "bohm_engine_health", Help: "Durability health ladder position: 0 healthy, 1 log-degraded (writes refused, reads serve the last durable snapshot), 2 closed.",
			Value: func() float64 { return float64(e.health.Load()) }},
		{Name: "bohm_directory_entries", Help: "Ordered-directory entries across all partitions.",
			Value: func() float64 { return float64(e.DirectoryEntries()) }},
		{Name: "bohm_resident_chains", Help: "Hash-index version chains across all partitions.",
			Value: func() float64 { return float64(e.ResidentChains()) }},
	}
}

// statsCounters converts an engine.Stats snapshot into Prometheus
// counters by reflection, so a newly added Stats field shows up in the
// exposition without anyone remembering to add it here.
func statsCounters(s engine.Stats) []obs.Counter {
	v := reflect.ValueOf(s)
	t := v.Type()
	out := make([]obs.Counter, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		out = append(out, obs.Counter{
			Name:  "bohm_" + snakeCase(t.Field(i).Name) + "_total",
			Value: v.Field(i).Uint(),
		})
	}
	return out
}

// snakeCase converts a Go exported identifier to snake_case, keeping
// acronym runs together: "CCAborts" -> "cc_aborts", "ReadOnlyFastPath"
// -> "read_only_fast_path".
func snakeCase(name string) string {
	out := make([]byte, 0, len(name)+4)
	rs := []rune(name)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			prevLower := i > 0 && rs[i-1] >= 'a' && rs[i-1] <= 'z'
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				out = append(out, '_')
			}
			r += 'a' - 'A'
		}
		out = append(out, byte(r))
	}
	return string(out)
}

// RegisterMetricsExtra adds a scrape-time hook appended to the /metrics
// exposition after the engine's own counters, gauges and histograms.
// Components layered above the engine (the network server) use it to
// publish their metrics on the endpoint Config.DebugAddr already serves,
// so one scrape sees bohm_server_* next to bohm_engine_health. No-op
// when metrics are disabled; hooks must be safe for concurrent scrapes.
func (e *Engine) RegisterMetricsExtra(f func(io.Writer)) {
	if e.obs == nil || f == nil {
		return
	}
	e.obs.extraMu.Lock()
	e.obs.extra = append(e.obs.extra, f)
	e.obs.extraMu.Unlock()
}

// writeMetrics renders the full Prometheus text exposition: engine
// counters (by Stats reflection), gauges, the stage histograms, and any
// registered extras.
func (e *Engine) writeMetrics(w io.Writer) {
	obs.WriteCounters(w, statsCounters(e.Stats()))
	obs.WriteGauges(w, e.gauges())
	e.obs.m.WriteStageHistograms(w, "bohm_stage_duration_seconds")
	e.obs.extraMu.Lock()
	extra := e.obs.extra
	e.obs.extraMu.Unlock()
	for _, f := range extra {
		f(w)
	}
}

// flightDump is the /debug/flight JSON shape. Record timestamps are
// nanoseconds since EngineStart.
type flightDump struct {
	EngineStart         time.Time         `json:"engine_start"`
	Records             []obs.BatchRecord `json:"records"`
	LastCheckpointError string            `json:"last_checkpoint_error,omitempty"`
}

// DebugHandler returns the engine's debug HTTP handler — the same mux
// Config.DebugAddr serves — for embedding into an application's own
// server or an httptest harness. Routes: /metrics (Prometheus text
// format), /debug/flight (JSON flight-recorder dump), /debug/vars
// (expvar), /debug/pprof/* (runtime profiles). Returns nil when metrics
// are disabled.
func (e *Engine) DebugHandler() http.Handler {
	o := e.obs
	if o == nil {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		e.writeMetrics(w)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		d := flightDump{EngineStart: o.start, Records: o.m.Flight.Snapshot(nil)}
		if err := e.LastCheckpointError(); err != nil {
			d.LastCheckpointError = err.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(d)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugListenAddr returns the address the debug endpoint is serving on
// ("" when Config.DebugAddr was empty). With a ":0" configuration this
// is how callers learn the bound port.
func (e *Engine) DebugListenAddr() string {
	if e.obs == nil || e.obs.ln == nil {
		return ""
	}
	return e.obs.ln.Addr().String()
}

// startDebug binds Config.DebugAddr and serves DebugHandler on it.
func (e *Engine) startDebug() error {
	if e.cfg.DebugAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", e.cfg.DebugAddr)
	if err != nil {
		return fmt.Errorf("bohm: debug endpoint: %w", err)
	}
	e.obs.ln = ln
	e.obs.srv = &http.Server{Handler: e.DebugHandler()}
	go func(srv *http.Server, ln net.Listener) {
		_ = srv.Serve(ln)
	}(e.obs.srv, ln)
	return nil
}

// stopDebug shuts the debug server down, closing open scrape
// connections.
func (e *Engine) stopDebug() {
	if e.obs != nil && e.obs.srv != nil {
		_ = e.obs.srv.Close()
	}
}
