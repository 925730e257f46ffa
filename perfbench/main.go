// Command perfbench is the repository's benchmark. It drives the BOHM
// engine (internal/core) with three closed-loop workloads — two through
// the TCP front end (internal/server, client) and one embedded — and
// reports either end-to-end metrics from a plain run or per-layer metrics
// from a traced run. Every run ends with an audit of the database it
// leaves behind; a failed audit fails the run.
//
//	bash perfbench/run.sh --workload served-rmw-durable --seed 1 --seconds 10 --trace 0
//
// Standard output ends with two JSON lines: a header (workload, seed,
// host facts, the unbounded figures) and then the result,
// {"correct", "attempted", "failed", "metrics"}. BENCHMARK.json at the
// repository root lists the workloads and the metrics each mode reports.
// The exit code is 0 for a correct run, 1 for a failed audit and 2 when
// the run could not be made.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dataDir  string        // parent of the durable workloads' log directories
	warmup   time.Duration // unmeasured load before each window
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header is the line printed ahead of the result: what ran, why, and on
// what.
type header struct {
	Workload string    `json:"workload"`
	Why      string    `json:"why"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     hostFacts `json:"host"`
	// Recorded is what the measured window cost and how it looked from
	// the clients; see recorded.
	Recorded recorded `json:"recorded"`
}

// recorded holds the figures every run records but no bound covers. On a
// shared 2-vCPU virtual machine the hypervisor's steal and the neighbours' load
// move them far more than a change to the program would: across ten
// seeds the throughput and latency figures spread 10-60% (p99 up to
// 100%) and CPU per transaction up to 23% — as the host's effective
// speed falls, the served path's per-batch and per-tick work is shared
// by fewer transactions. The traced run reports them per layer, next to
// the steal share that explains them.
type recorded struct {
	ThroughputTPS float64 `json:"throughput_tps"`
	LatencyP50us  float64 `json:"latency_p50_us"`
	LatencyP99us  float64 `json:"latency_p99_us"`
	CPUusPerTxn   float64 `json:"cpu_us_per_txn"`
	StealFrac     float64 `json:"cpu_steal_frac"`
	// SetupWallS is the median wall-clock set-up time (plain runs only);
	// setup_s, the bounded figure, counts set-up's CPU seconds instead.
	SetupWallS float64 `json:"setup_wall_s,omitempty"`
}

func (m *measurement) recorded() recorded {
	return recorded{
		ThroughputTPS: m.tps,
		LatencyP50us:  m.latency(0.50) / 1e3,
		LatencyP99us:  m.latency(0.99) / 1e3,
		CPUusPerTxn:   m.cpuNS / 1e3 / per(m.committed),
		StealFrac:     m.stealFrac,
	}
}

func main() {
	o := options{warmup: defaultWarmup}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds (a traced run splits them between its two phases)")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.StringVar(&o.dataDir, "data-dir", ".bench_build", "directory under which the durable workloads keep their logs")
	flag.Parse()
	o.trace = trace == 1

	s := lookup(o.workload)
	switch {
	case s == nil:
		fail(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", ")))
	case o.seconds < 1:
		fail(fmt.Errorf("--seconds must be at least 1, got %d", o.seconds))
	case trace != 0 && trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		fail(err)
	}

	res, rec, err := run(s, &o)
	if err != nil {
		fail(err)
	}
	for name, mt := range res.Metrics {
		if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			fail(fmt.Errorf("metric %s is not a number", name))
		}
	}
	h := header{Workload: s.name, Why: s.why, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: host(s, o.dataDir), Recorded: rec}
	printJSON(h)
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// run makes one run: a plain one reporting end-to-end metrics, or a
// traced one reporting per-layer metrics. It also returns the untraced
// window's unbounded figures, which the header records.
func run(s *spec, o *options) (*result, recorded, error) {
	if o.trace {
		return runTraced(s, o)
	}
	return runPlain(s, o)
}

// runPlain sets the workload up s.setups times (setup_s is the median),
// keeps the last set-up, measures it with tracing off and audits it.
func runPlain(s *spec, o *options) (*result, recorded, error) {
	streams := s.inputs(o.seed)
	var setupCPU, setupWall []float64
	var r *rig
	for i := 0; i < s.setups; i++ {
		var err error
		if r, err = s.setup(o.dataDir, nil); err != nil {
			return nil, recorded{}, err
		}
		setupCPU = append(setupCPU, r.setupCPU.Seconds())
		setupWall = append(setupWall, r.setupTime.Seconds())
		if i < s.setups-1 {
			if err := r.close(); err != nil {
				return nil, recorded{}, err
			}
		}
	}
	m, err := measure(r, streams, o.warmup, o.seconds)
	if err = errors.Join(err, r.close()); err != nil {
		return nil, recorded{}, err
	}
	report(s.name, "plain", m)
	res := &result{Correct: m.audit == nil, Attempted: m.attempted, Failed: m.failed}
	res.Metrics = map[string]metric{
		"allocs_per_txn":      {m.allocs / per(m.committed), "count"},
		"alloc_bytes_per_txn": {m.allocBytes / per(m.committed), "B"},
		"rss_peak_mb":         {m.residentMB, "MB"},
		// CPU seconds rather than wall seconds: the hypervisor's steal
		// stretches the wall time of the same set-up by a quarter
		// between runs minutes apart, and work moved into set-up shows
		// in its CPU time all the same.
		"setup_s": {median(setupCPU), "s"},
	}
	rec := m.recorded()
	rec.SetupWallS = median(setupWall)
	return res, rec, nil
}

// runTraced measures the workload twice, each for half the seconds: once
// with tracing off, for the unbounded figures and the throughput the
// trace overhead is taken against, and once traced — engine metrics on,
// every transaction sent through the trace wrapper — for the per-layer
// metrics.
func runTraced(s *spec, o *options) (*result, recorded, error) {
	streams := s.inputs(o.seed)
	secs := max(1, o.seconds/2)

	r, err := s.setup(o.dataDir, nil)
	if err != nil {
		return nil, recorded{}, err
	}
	plain, err := measure(r, streams, o.warmup, secs)
	if err = errors.Join(err, r.close()); err != nil {
		return nil, recorded{}, err
	}
	report(s.name, "untraced", plain)

	tr := newTracer(conns * pipelineDepth) // one slot per transaction in flight
	if r, err = s.setup(o.dataDir, tr); err != nil {
		return nil, recorded{}, err
	}
	traced, err := measure(r, streams, o.warmup, secs)
	if err = errors.Join(err, r.close()); err != nil {
		return nil, recorded{}, err
	}
	report(s.name, "traced", traced)

	res := &result{
		Correct:   plain.audit == nil && traced.audit == nil,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   layerMetrics(s, traced),
	}
	// Both rates are taken per second of CPU the hypervisor left the
	// guest, so steal that differs between the two windows cancels out.
	res.Metrics["trace.overhead_frac"] = metric{1 - traced.guestTPS()/plain.guestTPS(), "ratio"}
	rec := plain.recorded()
	res.Metrics["e2e.throughput_tps"] = metric{rec.ThroughputTPS, "1/s"}
	res.Metrics["e2e.latency_p50_us"] = metric{rec.LatencyP50us, "us"}
	res.Metrics["e2e.latency_p99_us"] = metric{rec.LatencyP99us, "us"}
	res.Metrics["e2e.cpu_us_per_txn"] = metric{rec.CPUusPerTxn, "us"}
	res.Metrics["e2e.cpu_steal_frac"] = metric{rec.StealFrac, "ratio"}
	fmt.Fprint(os.Stderr, describe(res.Metrics))
	return res, rec, nil
}

// per guards a per-transaction denominator.
func per(n int64) float64 { return float64(max(n, 1)) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report writes a human-readable summary of one measured phase to
// standard error.
func report(name, mode string, m *measurement) {
	audit := "ok"
	if m.audit != nil {
		audit = m.audit.Error()
	}
	fmt.Fprintf(os.Stderr, "%s [%s]: %.0f tps (intervals %.0f), p50 %.0fus p99 %.0fus, attempted %d failed %d (error_rate %.4g), steal %.2f, audit %s\n",
		name, mode, m.tps, m.intervals, m.latency(0.5)/1e3, m.latency(0.99)/1e3,
		m.attempted, m.failed, m.errorRate(), m.stealFrac, audit)
}
