package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bohm/internal/txn"
	"bohm/internal/workload"
)

// Scale sizes the experiments. Paper reproduces the published
// configuration; Quick is a CI-friendly reduction that preserves each
// experiment's shape (same workloads and skew, smaller tables and runs).
type Scale struct {
	Name        string
	Records     int       // YCSB table rows (paper: 1,000,000)
	RecordSize  int       // YCSB record bytes (paper: 1,000)
	Txns        int       // measured transactions per point
	Threads     []int     // swept thread counts (paper: up to 44)
	MaxThreads  int       // thread count for fixed-thread sweeps (paper: 40)
	Thetas      []float64 // contention sweep for Figure 7
	ScanSize    int       // reads per long read-only transaction (paper: 10,000)
	ReadOnlyPct []int     // read-only mix sweep for Figure 8

	ScanMaxLen   int   // max rows per YCSB-E range scan
	ScanMixPcts  []int // range-scan percentage sweep for the scans experiment
	ScanLenSweep []int // max-scan-length sweep (annotation amortization curve)
	ReadMixPcts  []int // read-percentage sweep for the reads experiment (YCSB-B/C)

	ChurnDeadPcts []int // dead-key-fraction sweep for the churn experiment
	ChurnScanLen  int   // ids per churn range scan

	Fig4CC   []int // CC thread counts (paper: 1, 2, 4, 8)
	Fig4Exec []int // execution thread counts (paper: 1..10)

	ScaleProcs  []int     // GOMAXPROCS sweep for the scalability experiment
	ScaleThetas []float64 // zipf sweep for the scalability experiment

	SBCustomersHigh int           // SmallBank high contention (paper: 50)
	SBCustomersLow  int           // SmallBank low contention (paper: 100,000)
	SBSpin          time.Duration // per-transaction spin (paper: 50µs)

	ServerConns  []int // client connection sweep for the server experiment
	ServerDepths []int // per-connection pipeline depths for the server experiment
}

// Quick is the scaled-down configuration used by `go test -bench` and CI.
var Quick = Scale{
	Name:         "quick",
	Records:      20_000,
	RecordSize:   100,
	Txns:         4_000,
	Threads:      []int{1, 2, 4},
	MaxThreads:   4,
	Thetas:       []float64{0, 0.6, 0.9, 0.99},
	ScanSize:     1_000,
	ReadOnlyPct:  []int{0, 1, 10, 100},
	ScanMaxLen:   64,
	ScanMixPcts:  []int{50, 95, 100},
	ScanLenSweep: []int{4, 16, 64, 256},
	ReadMixPcts:  []int{50, 95, 100},

	ChurnDeadPcts: []int{0, 50, 75, 90},
	ChurnScanLen:  64,

	Fig4CC:   []int{1, 2},
	Fig4Exec: []int{1, 2, 4},

	ScaleProcs:  []int{1, 2, 4},
	ScaleThetas: []float64{0, 0.9},

	SBCustomersHigh: 50,
	SBCustomersLow:  20_000,
	SBSpin:          0,

	ServerConns:  []int{1, 4, 16, 64},
	ServerDepths: []int{1, 8, 32},
}

// Ref is the reference configuration for small hosts (`bohm-bench
// -scale ref`; README.md, Benchmarks): the paper's table and record sizes with shorter runs and a thread sweep
// sized for single-digit core counts.
var Ref = Scale{
	Name:         "ref",
	Records:      100_000,
	RecordSize:   1_000,
	Txns:         20_000,
	Threads:      []int{1, 2, 4, 8},
	MaxThreads:   8,
	Thetas:       []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99},
	ScanSize:     10_000,
	ReadOnlyPct:  []int{0, 1, 10, 100},
	ScanMaxLen:   100,
	ScanMixPcts:  []int{50, 95, 100},
	ScanLenSweep: []int{10, 100, 1000},
	ReadMixPcts:  []int{0, 50, 95, 100},

	ChurnDeadPcts: []int{0, 50, 75, 90},
	ChurnScanLen:  100,

	Fig4CC:   []int{1, 2, 4},
	Fig4Exec: []int{1, 2, 4, 8},

	ScaleProcs:  []int{1, 2, 4, 8},
	ScaleThetas: []float64{0, 0.9},

	SBCustomersHigh: 50,
	SBCustomersLow:  20_000,
	SBSpin:          0,

	ServerConns:  []int{1, 4, 16, 64},
	ServerDepths: []int{1, 8, 32},
}

// Paper is the published configuration (§4). On hardware smaller than the
// paper's 40-core machine the absolute numbers shrink but the relative
// shapes remain.
var Paper = Scale{
	Name:         "paper",
	Records:      1_000_000,
	RecordSize:   1_000,
	Txns:         100_000,
	Threads:      []int{4, 8, 12, 16, 20, 24, 28, 32, 36, 40},
	MaxThreads:   40,
	Thetas:       []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99},
	ScanSize:     10_000,
	ReadOnlyPct:  []int{0, 1, 10, 100},
	ScanMaxLen:   100,
	ScanMixPcts:  []int{50, 95, 100},
	ScanLenSweep: []int{10, 100, 1000, 10000},
	ReadMixPcts:  []int{0, 50, 95, 100},

	ChurnDeadPcts: []int{0, 50, 75, 90},
	ChurnScanLen:  100,

	Fig4CC:   []int{1, 2, 4, 8},
	Fig4Exec: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},

	ScaleProcs:  []int{4, 8, 16, 24, 32, 40},
	ScaleThetas: []float64{0, 0.9, 0.99},

	SBCustomersHigh: 50,
	SBCustomersLow:  100_000,
	SBSpin:          50 * time.Microsecond,

	ServerConns:  []int{1, 8, 64, 256},
	ServerDepths: []int{1, 16, 64},
}

// Experiment binds an experiment id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) []*Table
}

// Experiments lists every reproducible figure and table plus the design
// ablations; ids are what `bohm-bench -exp` takes and `-list` prints
// (README.md, Benchmarks).
var Experiments = []Experiment{
	{"fig4", "Concurrency control / execution module interaction", Fig4},
	{"fig5", "YCSB 10RMW throughput (high and low contention)", Fig5},
	{"fig6", "YCSB 2RMW-8R throughput (high and low contention)", Fig6},
	{"fig7", "YCSB 2RMW-8R throughput varying contention", Fig7},
	{"fig8", "YCSB throughput with long read-only transactions", Fig8},
	{"fig9", "YCSB throughput at 1% long read-only transactions", Fig9},
	{"fig10", "SmallBank throughput (high and low contention)", Fig10},
	{"scans", "YCSB-E range-scan mix (zipfian start keys, 5-50% inserts)", Scans},
	{"churn", "insert+delete+scan churn: index lifecycle vs insert-only directories", Churn},
	{"reads", "YCSB-B/C read-heavy mix (snapshot fast path vs pipeline)", Reads},
	{"mem", "allocation profile of the transaction hot path (allocs/txn, B/txn)", Mem},
	{"scalability", "GOMAXPROCS x worker x zipf core sweep with per-stage latency breakdown", Scalability},
	{"ablation-readrefs", "BOHM read-reference annotation on/off", AblationReadRefs},
	{"ablation-gc", "BOHM garbage collection on/off", AblationGC},
	{"ablation-batch", "BOHM batch size sweep (barrier amortization)", AblationBatch},
	{"ablation-preprocess", "BOHM pre-processing layer on/off", AblationPreprocess},
	{"durability", "BOHM command logging overhead (sync policy sweep)", AblationDurability},
	{"server", "network front-end: loopback conns x pipeline-depth sweep vs no-grouping ablation", ServerSweep},
}

// ExperimentByID returns the experiment with the given id.
func ExperimentByID(id string) (Experiment, bool) {
	for _, ex := range Experiments {
		if ex.ID == id {
			return ex, true
		}
	}
	return Experiment{}, false
}

// hostNote records the hardware caveat attached to thread-sweep tables:
// when the host has fewer cores than the simulated thread count, threads
// are emulated by GOMAXPROCS oversubscription, which preserves contention
// behaviour (aborts, blocking, counter contention) but not parallel
// speedup — rising thread counts add scheduling overhead instead.
func hostNote() string {
	return fmt.Sprintf("host has %d CPU core(s); thread counts above that are emulated by oversubscription (no parallel speedup)", runtime.NumCPU())
}

// ycsbGen returns a per-stream generator for the given transaction shape.
func ycsbGen(y workload.YCSB, theta float64, pick func(src *workload.YCSBSource) txn.Txn) func(stream int) func() txn.Txn {
	return func(stream int) func() txn.Txn {
		src := y.NewSource(int64(1000+stream*7919), theta)
		return func() txn.Txn { return pick(src) }
	}
}

// measureYCSB builds an engine, loads the YCSB table, and measures one
// point.
func measureYCSB(kind EngineKind, threads int, s Scale, theta float64, txns int,
	pick func(src *workload.YCSBSource) txn.Txn) float64 {
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
	e, err := MakeEngine(kind, threads, s.Records)
	if err != nil {
		panic(err)
	}
	defer e.Close()
	if err := y.LoadInto(e); err != nil {
		panic(err)
	}
	r := Run(kind, e, Options{Txns: txns, Procs: threads}, ycsbGen(y, theta, pick))
	return r.Throughput
}

// Fig4 reproduces Figure 4: BOHM alone on short uniform 10RMW
// transactions over 8-byte records, sweeping execution threads (rows)
// against concurrency control threads (series). Throughput rises with
// execution threads until the CC layer saturates, and the plateau rises
// with more CC threads.
func Fig4(s Scale) []*Table {
	t := &Table{
		ID:    "fig4",
		Title: "CC/execution interaction, 10RMW uniform, 8-byte records",
		Param: "exec threads",
		Notes: []string{hostNote()},
	}
	for _, cc := range s.Fig4CC {
		t.Series = append(t.Series, fmt.Sprintf("cc=%d", cc))
	}
	y := workload.YCSB{Records: s.Records, RecordSize: 8}
	for _, ex := range s.Fig4Exec {
		var vals []float64
		for _, cc := range s.Fig4CC {
			e, err := MakeBohm(cc, ex, s.Records)
			if err != nil {
				panic(err)
			}
			if err := y.LoadInto(e); err != nil {
				panic(err)
			}
			r := Run(Bohm, e, Options{Txns: s.Txns, Procs: cc + ex},
				ycsbGen(y, 0, func(src *workload.YCSBSource) txn.Txn { return src.RMW10() }))
			e.Close()
			vals = append(vals, r.Throughput)
		}
		t.AddRow(fmt.Sprintf("%d", ex), vals...)
	}
	return []*Table{t}
}

// contentionSweep runs one YCSB transaction shape over the thread sweep at
// the given theta, one series per engine.
func contentionSweep(id, title string, s Scale, theta float64,
	pick func(src *workload.YCSBSource) txn.Txn) *Table {
	t := &Table{ID: id, Title: title, Param: "threads", Notes: []string{hostNote()}}
	for _, k := range AllEngines {
		t.Series = append(t.Series, string(k))
	}
	for _, th := range s.Threads {
		var vals []float64
		for _, k := range AllEngines {
			vals = append(vals, measureYCSB(k, th, s, theta, s.Txns, pick))
		}
		t.AddRow(fmt.Sprintf("%d", th), vals...)
	}
	return t
}

// Fig5 reproduces Figure 5: the 10RMW workload under high (theta 0.9) and
// low (theta 0) contention.
func Fig5(s Scale) []*Table {
	pick := func(src *workload.YCSBSource) txn.Txn { return src.RMW10() }
	return []*Table{
		contentionSweep("fig5-high", "YCSB 10RMW, high contention (theta=0.9)", s, 0.9, pick),
		contentionSweep("fig5-low", "YCSB 10RMW, low contention (theta=0)", s, 0, pick),
	}
}

// Fig6 reproduces Figure 6: the 2RMW-8R workload under high and low
// contention.
func Fig6(s Scale) []*Table {
	pick := func(src *workload.YCSBSource) txn.Txn { return src.RMW2Read8() }
	return []*Table{
		contentionSweep("fig6-high", "YCSB 2RMW-8R, high contention (theta=0.9)", s, 0.9, pick),
		contentionSweep("fig6-low", "YCSB 2RMW-8R, low contention (theta=0)", s, 0, pick),
	}
}

// Fig7 reproduces Figure 7: 2RMW-8R at the maximum thread count while
// sweeping the zipfian theta.
func Fig7(s Scale) []*Table {
	t := &Table{
		ID:    "fig7",
		Title: fmt.Sprintf("YCSB 2RMW-8R at %d threads, varying theta", s.MaxThreads),
		Param: "theta",
	}
	for _, k := range AllEngines {
		t.Series = append(t.Series, string(k))
	}
	pick := func(src *workload.YCSBSource) txn.Txn { return src.RMW2Read8() }
	for _, theta := range s.Thetas {
		var vals []float64
		for _, k := range AllEngines {
			vals = append(vals, measureYCSB(k, s.MaxThreads, s, theta, s.Txns, pick))
		}
		t.AddRow(fmt.Sprintf("%.2f", theta), vals...)
	}
	return []*Table{t}
}

// mixedGen generates the Figure 8 mix: low-contention 10RMW updates plus
// pct% long read-only transactions of s.ScanSize uniform reads.
func mixedGen(y workload.YCSB, s Scale, pct int) func(stream int) func() txn.Txn {
	return func(stream int) func() txn.Txn {
		src := y.NewSource(int64(5000+stream*104729), 0)
		rng := rand.New(rand.NewSource(int64(31 + stream)))
		return func() txn.Txn {
			if rng.Intn(100) < pct {
				return src.ReadOnly(s.ScanSize)
			}
			return src.RMW10()
		}
	}
}

// fig8Point measures one engine at one read-only percentage.
func fig8Point(kind EngineKind, s Scale, pct int) float64 {
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
	// Long read-only transactions do ScanSize reads each; shrink the
	// transaction count so each point does comparable total work.
	avgOps := 10.0 + float64(pct)/100.0*float64(s.ScanSize)
	txns := int(float64(s.Txns) * 10.0 / avgOps)
	if txns < 200 {
		txns = 200
	}
	e, err := MakeEngine(kind, s.MaxThreads, s.Records)
	if err != nil {
		panic(err)
	}
	defer e.Close()
	if err := y.LoadInto(e); err != nil {
		panic(err)
	}
	r := Run(kind, e, Options{Txns: txns, Procs: s.MaxThreads}, mixedGen(y, s, pct))
	return r.Throughput
}

// Fig8 reproduces Figure 8: throughput while varying the fraction of long
// read-only transactions.
func Fig8(s Scale) []*Table {
	t := &Table{
		ID:    "fig8",
		Title: fmt.Sprintf("long read-only mix at %d threads (scan=%d records)", s.MaxThreads, s.ScanSize),
		Param: "% read-only",
	}
	for _, k := range AllEngines {
		t.Series = append(t.Series, string(k))
	}
	for _, pct := range s.ReadOnlyPct {
		var vals []float64
		for _, k := range AllEngines {
			vals = append(vals, fig8Point(k, s, pct))
		}
		t.AddRow(fmt.Sprintf("%d%%", pct), vals...)
	}
	return []*Table{t}
}

// Fig9 reproduces Figure 9 (a table in the paper): throughput at exactly
// 1% read-only transactions, with each engine normalized to BOHM.
func Fig9(s Scale) []*Table {
	t := &Table{
		ID:     "fig9",
		Title:  "1% long read-only transactions",
		Param:  "engine",
		Series: []string{"txns/sec", "% of Bohm"},
	}
	tput := map[EngineKind]float64{}
	order := []EngineKind{Bohm, SI, Hekaton, TwoPL, OCC} // paper's row order
	for _, k := range order {
		tput[k] = fig8Point(k, s, 1)
	}
	base := tput[Bohm]
	for _, k := range order {
		pct := 0.0
		if base > 0 {
			pct = tput[k] / base * 100
		}
		t.AddRow(string(k), tput[k], pct)
	}
	return []*Table{t}
}

// sbGen returns a per-stream SmallBank mix generator.
func sbGen(sb workload.SmallBank) func(stream int) func() txn.Txn {
	return func(stream int) func() txn.Txn {
		src := sb.NewSource(int64(9000 + stream*6151))
		return func() txn.Txn { return src.Next() }
	}
}

// fig10Sweep measures the SmallBank mix over the thread sweep for a given
// customer count.
func fig10Sweep(id, title string, s Scale, customers int) *Table {
	t := &Table{ID: id, Title: title, Param: "threads"}
	for _, k := range AllEngines {
		t.Series = append(t.Series, string(k))
	}
	sb := workload.SmallBank{Customers: customers, Spin: s.SBSpin}
	for _, th := range s.Threads {
		var vals []float64
		for _, k := range AllEngines {
			e, err := MakeEngine(k, th, 3*customers+64)
			if err != nil {
				panic(err)
			}
			if err := sb.LoadInto(e); err != nil {
				panic(err)
			}
			r := Run(k, e, Options{Txns: s.Txns, Procs: th}, sbGen(sb))
			e.Close()
			vals = append(vals, r.Throughput)
		}
		t.AddRow(fmt.Sprintf("%d", th), vals...)
	}
	return t
}

// Fig10 reproduces Figure 10: SmallBank under high contention (50
// customers) and low contention (100,000 customers in the paper).
func Fig10(s Scale) []*Table {
	return []*Table{
		fig10Sweep("fig10-high", fmt.Sprintf("SmallBank, %d customers (high contention)", s.SBCustomersHigh), s, s.SBCustomersHigh),
		fig10Sweep("fig10-low", fmt.Sprintf("SmallBank, %d customers (low contention)", s.SBCustomersLow), s, s.SBCustomersLow),
	}
}
