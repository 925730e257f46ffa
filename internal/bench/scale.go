package bench

import (
	"fmt"
	"time"

	"bohm/internal/core"
	"bohm/internal/obs"
	"bohm/internal/txn"
	"bohm/internal/workload"
)

// The scalability experiment is the core-sweep harness from ROADMAP
// direction 5: instead of reproducing one of the paper's figures it maps
// where each engine's scaling stops on the host at hand, and uses the obs
// subsystem to attribute BOHM's cliff to a pipeline stage. It sweeps
// GOMAXPROCS x worker count x zipfian theta over all five engines (10RMW
// point writes, the paper's §4.2 shape), reports true per-transaction
// latency percentiles per configuration, then breaks BOHM's batch
// timeline down by stage at the largest configuration and measures the
// observability overhead itself (metrics on vs off).

// scalePoint measures one engine at one (procs, theta) configuration.
// Worker counts track procs — the sweep oversubscribes both together,
// mirroring how a deployment would size the engine to the machine.
func scalePoint(kind EngineKind, s Scale, procs int, theta float64) Result {
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
	e, err := MakeEngine(kind, procs, s.Records)
	if err != nil {
		panic(err)
	}
	defer e.Close()
	if err := y.LoadInto(e); err != nil {
		panic(err)
	}
	return Run(kind, e, Options{
		Txns:  s.Txns,
		Procs: procs,
		Label: fmt.Sprintf("procs=%d,theta=%.2f", procs, theta),
	}, ycsbGen(y, theta, func(src *workload.YCSBSource) txn.Txn { return src.RMW10() }))
}

// Scalability runs the full sweep. Tables:
//
//	scale-theta*    — throughput per engine over the GOMAXPROCS sweep,
//	                  one table per theta
//	scale-latency   — p50/p99/p999/max per-txn latency for every
//	                  (engine, procs) cell at the highest theta
//	scale-split     — BOHM CC/exec worker split at the largest proc count
//	scale-stages    — BOHM per-stage batch timeline at the largest
//	                  configuration (obs histograms)
//	scale-obs       — BOHM throughput with metrics off vs on (the
//	                  instrumentation's own overhead)
func Scalability(s Scale) []*Table {
	maxProcs := s.ScaleProcs[len(s.ScaleProcs)-1]
	maxTheta := s.ScaleThetas[len(s.ScaleThetas)-1]

	var tables []*Table
	latency := &Table{
		ID:     "scale-latency",
		Title:  fmt.Sprintf("per-txn submission latency (us), 10RMW, theta=%.2f", maxTheta),
		Param:  "engine@procs",
		Series: []string{"p50", "p99", "p999", "max"},
		Notes:  []string{hostNote()},
	}
	for _, theta := range s.ScaleThetas {
		t := &Table{
			ID:    fmt.Sprintf("scale-theta%.2f", theta),
			Title: fmt.Sprintf("YCSB 10RMW throughput, theta=%.2f, GOMAXPROCS sweep", theta),
			Param: "procs",
			Notes: []string{hostNote()},
		}
		for _, k := range AllEngines {
			t.Series = append(t.Series, string(k))
		}
		for _, p := range s.ScaleProcs {
			var vals []float64
			for _, k := range AllEngines {
				r := scalePoint(k, s, p, theta)
				vals = append(vals, r.Throughput)
				if theta == maxTheta {
					latency.AddRow(fmt.Sprintf("%s@%d", k, p),
						us(r.P50), us(r.P99), us(r.P999), us(r.Max))
				}
			}
			t.AddRow(fmt.Sprintf("%d", p), vals...)
		}
		tables = append(tables, t)
	}
	tables = append(tables, latency)
	tables = append(tables, scaleSplit(s, maxProcs))
	tables = append(tables, scaleStages(s, maxProcs))
	tables = append(tables, scaleObsOverhead(s, maxProcs))
	return tables
}

// us converts a duration to whole microseconds for table cells.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// scaleSplit sweeps BOHM's CC/exec worker split at a fixed total worker
// count — where on the CC-vs-exec axis the balanced default sits.
func scaleSplit(s Scale, procs int) *Table {
	t := &Table{
		ID:     "scale-split",
		Title:  fmt.Sprintf("BOHM CC/exec split at %d workers, 10RMW, theta=0", procs),
		Param:  "split",
		Series: []string{"txns/sec", "p99_us"},
		Notes:  []string{hostNote()},
	}
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
	for cc := 1; cc < procs; cc++ {
		exec := procs - cc
		e, err := MakeBohm(cc, exec, s.Records)
		if err != nil {
			panic(err)
		}
		if err := y.LoadInto(e); err != nil {
			panic(err)
		}
		r := Run(Bohm, e, Options{
			Txns:  s.Txns,
			Procs: procs,
			Label: fmt.Sprintf("cc=%d,exec=%d", cc, exec),
		}, ycsbGen(y, 0, func(src *workload.YCSBSource) txn.Txn { return src.RMW10() }))
		e.Close()
		t.AddRow(fmt.Sprintf("%d/%d", cc, exec), r.Throughput, us(r.P99))
	}
	return t
}

// scaleStages runs a metrics-enabled BOHM engine at the largest sweep
// configuration and reports each pipeline stage's latency distribution —
// the table that names which stage a scaling cliff lives in.
func scaleStages(s Scale, procs int) *Table {
	t := &Table{
		ID:     "scale-stages",
		Title:  fmt.Sprintf("BOHM per-stage latency (us) at %d workers, 10RMW, theta=0", procs),
		Param:  "stage",
		Series: []string{"count", "p50", "p99", "p999", "max"},
		Notes: []string{
			"batch stages (seq_wait..exec) count batches; submit counts transactions",
			hostNote(),
		},
	}
	cc := procs / 2
	if cc < 1 {
		cc = 1
	}
	exec := procs - cc
	if exec < 1 {
		exec = 1
	}
	cfg := core.DefaultConfig()
	cfg.CCWorkers = cc
	cfg.ExecWorkers = exec
	cfg.Capacity = s.Records
	cfg.BatchSize = 1024
	cfg.GC = true
	cfg.Metrics = true
	e, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	defer e.Close()
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
	if err := y.LoadInto(e); err != nil {
		panic(err)
	}
	gen := ycsbGen(y, 0, func(src *workload.YCSBSource) txn.Txn { return src.RMW10() })
	// Warm up with the default slice, reset the histograms so the table
	// covers only the measured interval, then run without extra warmup.
	Run(Bohm, e, Options{Txns: s.Txns / 10, WarmupTxns: -1, Procs: procs, Label: "stage-warmup"}, gen)
	m := e.Metrics()
	m.Reset()
	Run(Bohm, e, Options{Txns: s.Txns, WarmupTxns: -1, Procs: procs, Label: "stage-breakdown"}, gen)
	for st := obs.Stage(0); int(st) < obs.NumStages; st++ {
		snap := m.Stages[st].Snapshot()
		if snap.Count == 0 {
			continue // no durability/read-path traffic in this workload
		}
		t.AddRow(obs.StageName(st),
			float64(snap.Count),
			float64(snap.Quantile(0.50))/1e3,
			float64(snap.Quantile(0.99))/1e3,
			float64(snap.Quantile(0.999))/1e3,
			float64(snap.Max)/1e3)
	}
	return t
}

// scaleObsOverhead measures the observability subsystem against itself:
// the same BOHM configuration and workload with metrics off and on. The
// acceptance bar is on-throughput within 3% of off.
func scaleObsOverhead(s Scale, procs int) *Table {
	t := &Table{
		ID:     "scale-obs",
		Title:  fmt.Sprintf("BOHM metrics overhead at %d workers, 10RMW, theta=0", procs),
		Param:  "metrics",
		Series: []string{"txns/sec", "p99_us"},
	}
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
	run := func(metrics bool, label string) Result {
		cc := procs / 2
		if cc < 1 {
			cc = 1
		}
		exec := procs - cc
		if exec < 1 {
			exec = 1
		}
		cfg := core.DefaultConfig()
		cfg.CCWorkers = cc
		cfg.ExecWorkers = exec
		cfg.Capacity = s.Records
		cfg.BatchSize = 1024
		cfg.GC = true
		cfg.Metrics = metrics
		e, err := core.New(cfg)
		if err != nil {
			panic(err)
		}
		defer e.Close()
		if err := y.LoadInto(e); err != nil {
			panic(err)
		}
		return Run(Bohm, e, Options{Txns: s.Txns, Procs: procs, Label: label},
			ycsbGen(y, 0, func(src *workload.YCSBSource) txn.Txn { return src.RMW10() }))
	}
	// Alternate off/on and keep each side's best of three: a single short
	// run is dominated by scheduler and GC noise (far larger than the
	// instrumentation's cost), and alternating decorrelates slow drift.
	var off, on Result
	for i := 0; i < 3; i++ {
		if r := run(false, fmt.Sprintf("metrics=off,rep=%d", i)); r.Throughput > off.Throughput {
			off = r
		}
		if r := run(true, fmt.Sprintf("metrics=on,rep=%d", i)); r.Throughput > on.Throughput {
			on = r
		}
	}
	t.AddRow("off", off.Throughput, us(off.P99))
	t.AddRow("on", on.Throughput, us(on.P99))
	if off.Throughput > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("metrics-on throughput is %.1f%% of metrics-off (best of 3 each)",
			on.Throughput/off.Throughput*100))
	}
	return t
}
