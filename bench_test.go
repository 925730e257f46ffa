// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), one testing.B benchmark per figure, plus the paper's
// design ablations (ROADMAP.md, aim 2: read references, preprocessing,
// GC, batch size) and micro-benchmarks of the substrates. Each
// benchmark reports committed-transaction throughput as the custom metric
// "txns/sec" — the unit on the paper's y-axes.
//
// Benchmarks run at a reduced scale so `go test -bench=.` finishes in
// minutes; `go run ./cmd/bohm-bench -scale paper` runs the published
// configuration.
package bohm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bohm/client"
	"bohm/internal/bench"
	"bohm/internal/core"
	"bohm/internal/engine"
	"bohm/internal/server"
	"bohm/internal/storage"
	"bohm/internal/txn"
	"bohm/internal/workload"
)

const (
	benchRecords    = 8192
	benchRecordSize = 100
	benchThreads    = 4
)

// benchRun drives b.N transactions from gen through a fresh engine of the
// given kind and reports throughput.
func benchRun(b *testing.B, kind bench.EngineKind, loadInto func(engine.Engine) error,
	capacity int, gen func(stream int) func() txn.Txn) {
	b.Helper()
	e, err := bench.MakeEngine(kind, benchThreads, capacity)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := loadInto(e); err != nil {
		b.Fatal(err)
	}
	before := e.Stats()
	r := bench.Run(kind, e, bench.Options{
		Txns:       b.N,
		WarmupTxns: -1, // no warmup inside the timed region; b.N iterations dominate
		Procs:      benchThreads,
	}, gen)
	b.ReportMetric(r.Throughput, "txns/sec")
	s := e.Stats().Sub(before)
	if s.CCAborts > 0 {
		b.ReportMetric(float64(s.CCAborts)/float64(b.N), "aborts/txn")
	}
}

func ycsbLoad(y workload.YCSB) func(engine.Engine) error {
	return func(e engine.Engine) error { return y.LoadInto(e) }
}

func ycsbPick(y workload.YCSB, theta float64, pick func(*workload.YCSBSource) txn.Txn) func(int) func() txn.Txn {
	return func(stream int) func() txn.Txn {
		src := y.NewSource(int64(1+stream*31), theta)
		return func() txn.Txn { return pick(src) }
	}
}

// BenchmarkFigure4 reproduces Figure 4: BOHM's concurrency control and
// execution modules, swept independently, on uniform 10RMW transactions
// over 8-byte records.
func BenchmarkFigure4(b *testing.B) {
	y := workload.YCSB{Records: benchRecords, RecordSize: 8}
	for _, cc := range []int{1, 2, 4} {
		for _, ex := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("cc=%d/exec=%d", cc, ex), func(b *testing.B) {
				e, err := bench.MakeBohm(cc, ex, benchRecords)
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				if err := y.LoadInto(e); err != nil {
					b.Fatal(err)
				}
				r := bench.Run(bench.Bohm, e, bench.Options{Txns: b.N, WarmupTxns: -1, Procs: cc + ex},
					ycsbPick(y, 0, func(s *workload.YCSBSource) txn.Txn { return s.RMW10() }))
				b.ReportMetric(r.Throughput, "txns/sec")
			})
		}
	}
}

// benchYCSBFigure runs one YCSB shape at one theta across all engines.
func benchYCSBFigure(b *testing.B, theta float64, pick func(*workload.YCSBSource) txn.Txn) {
	y := workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}
	for _, kind := range bench.AllEngines {
		b.Run(string(kind), func(b *testing.B) {
			benchRun(b, kind, ycsbLoad(y), benchRecords, ycsbPick(y, theta, pick))
		})
	}
}

// BenchmarkFigure5High reproduces Figure 5 (top): YCSB 10RMW at
// theta 0.9.
func BenchmarkFigure5High(b *testing.B) {
	benchYCSBFigure(b, 0.9, func(s *workload.YCSBSource) txn.Txn { return s.RMW10() })
}

// BenchmarkFigure5Low reproduces Figure 5 (bottom): YCSB 10RMW, uniform.
func BenchmarkFigure5Low(b *testing.B) {
	benchYCSBFigure(b, 0, func(s *workload.YCSBSource) txn.Txn { return s.RMW10() })
}

// BenchmarkFigure6High reproduces Figure 6 (top): YCSB 2RMW-8R at
// theta 0.9.
func BenchmarkFigure6High(b *testing.B) {
	benchYCSBFigure(b, 0.9, func(s *workload.YCSBSource) txn.Txn { return s.RMW2Read8() })
}

// BenchmarkFigure6Low reproduces Figure 6 (bottom): YCSB 2RMW-8R, uniform.
func BenchmarkFigure6Low(b *testing.B) {
	benchYCSBFigure(b, 0, func(s *workload.YCSBSource) txn.Txn { return s.RMW2Read8() })
}

// BenchmarkFigure7 reproduces Figure 7: 2RMW-8R while sweeping theta.
func BenchmarkFigure7(b *testing.B) {
	y := workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}
	for _, theta := range []float64{0, 0.6, 0.9, 0.99} {
		for _, kind := range bench.AllEngines {
			b.Run(fmt.Sprintf("theta=%.2f/%s", theta, kind), func(b *testing.B) {
				benchRun(b, kind, ycsbLoad(y), benchRecords,
					ycsbPick(y, theta, func(s *workload.YCSBSource) txn.Txn { return s.RMW2Read8() }))
			})
		}
	}
}

// benchScanMix runs the Figure 8/9 mix: uniform 10RMW updates with pct%
// long read-only transactions.
func benchScanMix(b *testing.B, kind bench.EngineKind, pct, scanSize int) {
	y := workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}
	gen := func(stream int) func() txn.Txn {
		src := y.NewSource(int64(100+stream*17), 0)
		n := 0
		return func() txn.Txn {
			n++
			if pct > 0 && n%(100/pct) == 0 {
				return src.ReadOnly(scanSize)
			}
			return src.RMW10()
		}
	}
	benchRun(b, kind, ycsbLoad(y), benchRecords, gen)
}

// BenchmarkFigure8 reproduces Figure 8: the long read-only transaction
// mix at 0%, 1%, 10% and 100% read-only.
func BenchmarkFigure8(b *testing.B) {
	for _, pct := range []int{0, 1, 10, 100} {
		for _, kind := range bench.AllEngines {
			b.Run(fmt.Sprintf("readonly=%d%%/%s", pct, kind), func(b *testing.B) {
				benchScanMix(b, kind, pct, 1000)
			})
		}
	}
}

// BenchmarkFigure9 reproduces Figure 9 (table): the 1% read-only mix.
func BenchmarkFigure9(b *testing.B) {
	for _, kind := range []bench.EngineKind{bench.Bohm, bench.SI, bench.Hekaton, bench.TwoPL, bench.OCC} {
		b.Run(string(kind), func(b *testing.B) {
			benchScanMix(b, kind, 1, 1000)
		})
	}
}

// benchSmallBank runs the SmallBank mix at the given customer count.
func benchSmallBank(b *testing.B, customers int) {
	sb := workload.SmallBank{Customers: customers}
	for _, kind := range bench.AllEngines {
		b.Run(string(kind), func(b *testing.B) {
			gen := func(stream int) func() txn.Txn {
				src := sb.NewSource(int64(1 + stream*13))
				return func() txn.Txn { return src.Next() }
			}
			benchRun(b, kind, sb.LoadInto, 3*customers+64, gen)
		})
	}
}

// BenchmarkFigure10High reproduces Figure 10 (top): SmallBank with 50
// customers (high contention).
func BenchmarkFigure10High(b *testing.B) { benchSmallBank(b, 50) }

// BenchmarkFigure10Low reproduces Figure 10 (bottom): SmallBank at low
// contention (scaled-down customer count).
func BenchmarkFigure10Low(b *testing.B) { benchSmallBank(b, 20_000) }

// BenchmarkAblationReadRefs compares BOHM's annotated read references
// against raw version-chain traversal (§3.2.3).
func BenchmarkAblationReadRefs(b *testing.B) {
	y := workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}
	for _, disabled := range []bool{false, true} {
		name := "annotated"
		if disabled {
			name = "traversal"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.CCWorkers, cfg.ExecWorkers = 2, 2
			cfg.Capacity = benchRecords
			cfg.DisableReadRefs = disabled
			e, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if err := y.LoadInto(e); err != nil {
				b.Fatal(err)
			}
			r := bench.Run(bench.Bohm, e, bench.Options{Txns: b.N, WarmupTxns: -1, Procs: benchThreads},
				ycsbPick(y, 0.9, func(s *workload.YCSBSource) txn.Txn { return s.RMW2Read8() }))
			b.ReportMetric(r.Throughput, "txns/sec")
		})
	}
}

// BenchmarkAblationGC compares BOHM with and without incremental garbage
// collection under contended 10RMW churn (§3.3.2).
func BenchmarkAblationGC(b *testing.B) {
	y := workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}
	for _, gc := range []bool{true, false} {
		name := "on"
		if !gc {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.CCWorkers, cfg.ExecWorkers = 2, 2
			cfg.Capacity = benchRecords
			cfg.GC = gc
			e, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if err := y.LoadInto(e); err != nil {
				b.Fatal(err)
			}
			r := bench.Run(bench.Bohm, e, bench.Options{Txns: b.N, WarmupTxns: -1, Procs: benchThreads},
				ycsbPick(y, 0.9, func(s *workload.YCSBSource) txn.Txn { return s.RMW10() }))
			b.ReportMetric(r.Throughput, "txns/sec")
		})
	}
}

// BenchmarkAblationBatchSize sweeps the coordination batch size; size 1
// degenerates to the per-transaction barrier §3.2.4 rejects.
func BenchmarkAblationBatchSize(b *testing.B) {
	y := workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}
	for _, bs := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.CCWorkers, cfg.ExecWorkers = 2, 2
			cfg.Capacity = benchRecords
			cfg.BatchSize = bs
			e, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if err := y.LoadInto(e); err != nil {
				b.Fatal(err)
			}
			r := bench.Run(bench.Bohm, e, bench.Options{Txns: b.N, WarmupTxns: -1, Procs: benchThreads},
				ycsbPick(y, 0, func(s *workload.YCSBSource) txn.Txn { return s.RMW10() }))
			b.ReportMetric(r.Throughput, "txns/sec")
		})
	}
}

// BenchmarkAblationPreprocess compares the base CC design against the
// §3.2.2 pre-processing layer.
func BenchmarkAblationPreprocess(b *testing.B) {
	y := workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}
	for _, pp := range []bool{false, true} {
		name := "scan-all"
		if pp {
			name = "preprocessed"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.CCWorkers, cfg.ExecWorkers = 2, 2
			cfg.Capacity = benchRecords
			cfg.Preprocess = pp
			cfg.PreprocessWorkers = 2
			e, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if err := y.LoadInto(e); err != nil {
				b.Fatal(err)
			}
			r := bench.Run(bench.Bohm, e, bench.Options{Txns: b.N, WarmupTxns: -1, Procs: benchThreads},
				ycsbPick(y, 0, func(s *workload.YCSBSource) txn.Txn { return s.RMW10() }))
			b.ReportMetric(r.Throughput, "txns/sec")
		})
	}
}

// BenchmarkAblationTimestampCounter demonstrates §2.1 in isolation: the
// cost of drawing timestamps from a contended global counter (Hekaton/SI)
// versus a single sequencer thread's uncontended increments (BOHM).
func BenchmarkAblationTimestampCounter(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shared-counter/workers=%d", workers), func(b *testing.B) {
			old := runtime.GOMAXPROCS(workers)
			defer runtime.GOMAXPROCS(old)
			var counter atomic.Uint64
			var wg sync.WaitGroup
			per := b.N / workers
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						counter.Add(1)
					}
				}()
			}
			wg.Wait()
		})
	}
	b.Run("sequencer-thread", func(b *testing.B) {
		var ts uint64
		for i := 0; i < b.N; i++ {
			ts++
		}
		if ts == 0 {
			b.Fatal("unreachable")
		}
	})
}

// benchAllocPointWrite drives pre-built single-key write transactions
// (bench.PointWriteWindows — the same driver the mem experiment measures
// with) through a BOHM engine in fixed-size chunks and reports allocs/op
// and B/op — the steady-state allocation cost of the transaction hot path
// (sequencer, CC placeholder insertion, execution, GC). Run with
// -benchmem; CI holds the pooled path to a committed allocs/op budget.
// driveAllocBench loads the YCSB table into a fresh engine built from
// cfg, warms the pipeline (and any arenas) with one full pass of the
// pre-built windows outside the measured region, then drives b.N
// transactions through them. All three CI-gated allocation benchmarks
// share this protocol so their allocs/op figures stay comparable.
func driveAllocBench(b *testing.B, cfg core.Config, chunks [][]txn.Txn) {
	b.Helper()
	e, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := (workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}).LoadInto(e); err != nil {
		b.Fatal(err)
	}
	for _, c := range chunks {
		e.ExecuteBatch(c)
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		for _, c := range chunks {
			e.ExecuteBatch(c)
			done += len(c)
			if done >= b.N {
				break
			}
		}
	}
}

func benchAllocPointWrite(b *testing.B, disablePooling, metrics bool) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.CCWorkers, cfg.ExecWorkers = 2, 2
	cfg.Capacity = benchRecords
	cfg.DisablePooling = disablePooling
	cfg.Metrics = metrics
	driveAllocBench(b, cfg, bench.PointWriteWindows(benchRecords, benchRecordSize, 4096, 256))
}

// BenchmarkAllocYCSBPointWrite is the allocation budget benchmark CI
// enforces: allocs/op on the pooled YCSB point-write path must stay at or
// below ci/alloc-budget.txt.
func BenchmarkAllocYCSBPointWrite(b *testing.B) { benchAllocPointWrite(b, false, false) }

// BenchmarkAllocYCSBPointWriteNoPool is the ablation: the same path with
// Config.DisablePooling, i.e. the pre-arena allocation profile.
func BenchmarkAllocYCSBPointWriteNoPool(b *testing.B) { benchAllocPointWrite(b, true, false) }

// BenchmarkAllocYCSBPointWriteMetrics is the pooled point-write path with
// Config.Metrics enabled. CI holds it to the same allocs/op budget as the
// plain path: the observability subsystem's histograms and flight
// recorder are fixed preallocated arrays, so turning them on must add
// zero allocations per transaction.
func BenchmarkAllocYCSBPointWriteMetrics(b *testing.B) { benchAllocPointWrite(b, false, true) }

// BenchmarkAllocYCSBPointWriteKernels is the pooled point-write path with
// the full CC-kernel machinery engaged: preprocessing on (so the counted-
// then-bucketed plan slabs are built every batch) plus the per-worker
// hot-key memo and hashed probes. CI holds it to the same allocs/op
// budget as the plain path: the plan slabs, scratch and memo are batch-
// or worker-owned arrays that recycle with the batch, so the kernels
// must add zero allocations per transaction.
func BenchmarkAllocYCSBPointWriteKernels(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.CCWorkers, cfg.ExecWorkers = 2, 2
	cfg.Capacity = benchRecords
	cfg.Preprocess = true
	cfg.PreprocessWorkers = 2
	driveAllocBench(b, cfg, bench.PointWriteWindows(benchRecords, benchRecordSize, 4096, 256))
}

// BenchmarkAllocYCSBPointWriteArena is the end-to-end zero-allocation
// benchmark CI enforces at 0 allocs/op: single-key read-modify-writes
// whose values are produced fresh every execution, staged in each
// instance's reused scratch buffer (the caller-buffer-reuse contract the
// payload arena's copy-at-install licenses), and installed into
// epoch-recycled value slabs. Unlike the blind-write benchmarks above —
// which resubmit one shared value and so never exercise value production
// — zero here means the whole loop allocates nothing in steady state:
// value production, sequencing, CC, execution, payload install and GC.
func BenchmarkAllocYCSBPointWriteArena(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.CCWorkers, cfg.ExecWorkers = 2, 2
	cfg.Capacity = benchRecords
	driveAllocBench(b, cfg, bench.RMWWindows(benchRecords, benchRecordSize, 4096, 256))
}

// BenchmarkAllocYCSBPointWriteDurable is the durability-on allocation
// budget benchmark CI enforces: the same pooled point-write path with
// command logging enabled (sync policy "never", so the numbers measure
// the logging path's allocations, not fsync latency). The encode buffers
// — the engine's wal record and the writer's frame scratch — are reused
// across appends, so logging adds no per-transaction allocations.
func BenchmarkAllocYCSBPointWriteDurable(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.CCWorkers, cfg.ExecWorkers = 2, 2
	cfg.Capacity = benchRecords
	cfg.LogDir = b.TempDir()
	cfg.SyncPolicy = SyncNever
	reg := NewRegistry()
	workload.RegisterYCSB(reg, benchRecordSize)
	driveAllocBench(b, cfg, bench.PointWriteCallWindows(reg, benchRecords, 4096, 256))
}

// BenchmarkAllocServedRoundTrip is the served path's allocation budget
// benchmark CI enforces, one op per transaction: ycsb.rmw registry calls
// (10 keys each) pipelined at depth 64 from one client connection,
// through a loopback server.New, into a durable engine (sync policy
// "never", as in BenchmarkAllocYCSBPointWriteDurable). The server's
// request slots decode every frame in place and rebuild each slot's
// transaction in place, so what remains per transaction is the client's
// Pending plus the batcher's and engine's per-batch slices.
func BenchmarkAllocServedRoundTrip(b *testing.B) {
	const depth = 64
	cfg := core.DefaultConfig()
	cfg.CCWorkers, cfg.ExecWorkers = 2, 2
	cfg.Capacity = benchRecords
	cfg.LogDir = b.TempDir()
	cfg.SyncPolicy = SyncNever
	reg := NewRegistry()
	workload.RegisterYCSB(reg, benchRecordSize)
	y := workload.YCSB{Records: benchRecords, RecordSize: benchRecordSize}
	e, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := y.LoadInto(e); err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(e, reg, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr(), &client.Options{PipelineDepth: depth})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	src := y.NewSource(1, 0)
	calls := make([]txn.Txn, 16*depth)
	for i := range calls {
		calls[i] = src.RMW10Call(reg)
	}
	// drive keeps depth submissions in flight, waiting for the oldest
	// before each new one, and drains the pipeline before returning.
	inflight := make([]*client.Pending, depth)
	drive := func(n int) {
		for i := 0; i < n+depth; i++ {
			slot := i % depth
			if p := inflight[slot]; p != nil {
				if err := p.Wait(); err != nil {
					b.Fatal(err)
				}
				inflight[slot] = nil
			}
			if i >= n {
				continue
			}
			p, err := c.Submit(calls[i%len(calls)])
			if err != nil {
				b.Fatal(err)
			}
			inflight[slot] = p
		}
	}
	drive(4 * len(calls)) // warm every request slot, buffer and pool
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	drive(b.N)
}

// benchAllocFastRead measures allocs/op on the single-key read-only path:
// pre-built point-read transactions resubmitted in fixed windows, so the
// numbers isolate the engine's read machinery. With the fast path (the
// default) the target CI enforces is zero allocations per read; the
// NoFast ablation shows what the full pipeline pays for the same reads.
func benchAllocFastRead(b *testing.B, disableFastPath bool) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.CCWorkers, cfg.ExecWorkers = 2, 2
	cfg.Capacity = benchRecords
	cfg.DisableReadOnlyFastPath = disableFastPath
	driveAllocBench(b, cfg, bench.PointReadWindows(benchRecords, 4096, 256))
}

// BenchmarkAllocYCSBFastRead is the fast-path read allocation benchmark
// CI enforces at a budget of zero allocations per read.
func BenchmarkAllocYCSBFastRead(b *testing.B) { benchAllocFastRead(b, false) }

// BenchmarkAllocYCSBFastReadNoFast is the ablation: the same reads
// through the full pipeline.
func BenchmarkAllocYCSBFastReadNoFast(b *testing.B) { benchAllocFastRead(b, true) }

// benchAllocChurnScan measures allocs/op on the fast-path range-scan path
// over a churned table: half the keys are deleted and (with reaping on)
// fully reclaimed before the measured region, so the numbers cover the
// scan engine — resumable directory iterators, loser-tree merge, snapshot
// resolution — on the index shape the lifecycle is meant to maintain.
func benchAllocChurnScan(b *testing.B, disableReaping bool) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.CCWorkers, cfg.ExecWorkers = 2, 2
	cfg.Capacity = benchRecords
	cfg.DisableReaping = disableReaping
	e, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	c := workload.Churn{Records: benchRecords, RecordSize: benchRecordSize}
	if err := c.LoadInto(e); err != nil {
		b.Fatal(err)
	}
	// Kill half the keys, then tick enough single-transaction batches for
	// the reap sweep to cover the whole directory.
	var dels []txn.Txn
	for id := 0; id < benchRecords; id++ {
		if id%2 == 0 {
			dels = append(dels, &workload.DeleteTxn{K: txn.Key{Table: workload.ChurnTable, ID: uint64(id)}})
		}
	}
	for i := 0; i < len(dels); i += 1024 {
		end := i + 1024
		if end > len(dels) {
			end = len(dels)
		}
		e.ExecuteBatch(dels[i:end])
	}
	settle := workload.PutTxn{Keys: []txn.Key{{Table: workload.ChurnTable, ID: 1}}, Val: txn.NewValue(benchRecordSize, 1)}
	for i := 0; i < benchRecords/128+64; i++ {
		e.ExecuteBatch([]txn.Txn{&settle})
	}

	chunks := bench.ChurnScanWindows(benchRecords, 64, 1024, 256)
	for _, ch := range chunks {
		e.ExecuteBatch(ch)
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		for _, ch := range chunks {
			e.ExecuteBatch(ch)
			done += len(ch)
			if done >= b.N {
				break
			}
		}
	}
}

// BenchmarkAllocChurnScan is the scan-path allocation budget benchmark CI
// enforces at zero allocations per scan (pooled scans over a reaped
// table).
func BenchmarkAllocChurnScan(b *testing.B) { benchAllocChurnScan(b, false) }

// BenchmarkAllocChurnScanNoReap is the ablation: the same scans over the
// insert-only index, paying for every dead entry.
func BenchmarkAllocChurnScanNoReap(b *testing.B) { benchAllocChurnScan(b, true) }

// BenchmarkZipfian measures the key generator.
func BenchmarkZipfian(b *testing.B) {
	for _, theta := range []float64{0, 0.9} {
		b.Run(fmt.Sprintf("theta=%.1f", theta), func(b *testing.B) {
			src := workload.YCSB{Records: benchRecords, RecordSize: 8}.NewSource(1, theta)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = src.RMW10()
			}
		})
	}
}

// BenchmarkHashTable measures the latch-free index.
func BenchmarkHashTable(b *testing.B) {
	m := storage.NewMap[int](1 << 16)
	for i := 0; i < 1<<15; i++ {
		v := i
		if _, _, err := m.Insert(txn.Key{ID: uint64(i)}, &v); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m.Get(txn.Key{ID: uint64(i) & (1<<15 - 1)}) == nil {
				b.Fatal("missing")
			}
		}
	})
}

// BenchmarkVersionChain measures visibility search over version chains.
func BenchmarkVersionChain(b *testing.B) {
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			c := storage.NewChain(storage.NewLoadedVersion([]byte{1}))
			for i := 1; i <= depth; i++ {
				v := storage.NewPlaceholder(uint64(i*10), uint64(i), nil)
				v.Install([]byte{byte(i)}, false)
				c.Push(v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.VisibleAt(5) == nil { // deepest version
					b.Fatal("not found")
				}
			}
		})
	}
}
