package bench

import (
	"runtime"
	"time"

	"bohm/internal/core"
	"bohm/internal/engine"
	"bohm/internal/txn"
	"bohm/internal/workload"
)

// Mem measures the steady-state allocation profile of the transaction hot
// path: allocs/txn and bytes/txn on a single-key YCSB point-write
// workload, per engine, plus the BOHM ablation ladder — payload arena on
// (the default), DisableValueArena (installs copy to the heap instead of
// a recycled slab), and DisablePooling (no recycling at all). The
// workload side is allocation-free by construction — a fixed ring of
// pre-built transactions is resubmitted in fixed windows — so the numbers
// isolate the engines' own allocation behaviour. The committed
// BENCH_alloc.json is generated from this experiment.
func Mem(s Scale) []*Table {
	t := &Table{
		ID:    "mem",
		Title: "allocation profile, single-key point writes",
		Param: "engine",
		Series: []string{
			"allocs/txn", "B/txn", "txns/sec", "recycled B/txn",
		},
		Notes: []string{
			"allocs and bytes are process-wide runtime counters over the measured interval; the driver itself allocates nothing per transaction",
			"recycled B/txn is BOHM's estimate of memory reused through its arenas and version pools instead of reallocated",
			"Bohm installs payloads into epoch-recycled value slabs; the DisableValueArena row pays a heap copy per install, DisablePooling abandons versions and payloads to the runtime GC",
		},
	}
	for _, k := range AllEngines {
		if k == Bohm {
			// BOHM is measured by the explicit ablation ladder below;
			// MakeEngine's default would duplicate the arena-on row.
			continue
		}
		e, err := MakeEngine(k, s.MaxThreads, s.Records)
		if err != nil {
			panic(err)
		}
		t.AddRow(string(k), memPoint(k, e, s)...)
	}
	for _, v := range []struct {
		label          string
		pooling, arena bool
	}{
		{"Bohm", true, true},
		{"Bohm (DisableValueArena)", true, false},
		{"Bohm (DisablePooling)", false, false},
	} {
		cc, exec := bohmSplit(s.MaxThreads)
		cfg := core.DefaultConfig()
		cfg.CCWorkers, cfg.ExecWorkers = cc, exec
		cfg.Capacity = s.Records
		cfg = core.WithAblations(cfg, core.Ablations{DisablePooling: !v.pooling, DisableValueArena: !v.arena})
		e, err := core.New(cfg)
		if err != nil {
			panic(err)
		}
		t.AddRow(v.label, memPoint(Bohm, e, s)...)
	}
	return []*Table{t}
}

// pointWrite is a pre-built single-key blind write; resubmitting it
// allocates nothing on the driver side.
type pointWrite struct {
	ws  []txn.Key
	val []byte
}

func (t *pointWrite) ReadSet() []txn.Key       { return nil }
func (t *pointWrite) WriteSet() []txn.Key      { return t.ws }
func (t *pointWrite) RangeSet() []txn.KeyRange { return nil }
func (t *pointWrite) Run(ctx txn.Ctx) error    { return ctx.Write(t.ws[0], t.val) }

// singleKeyWindows clamps the ring to the table (keys stay distinct
// within each window — ExecuteBatch rejects duplicate write keys per
// submission), builds one single-key transaction per slot, and slices
// the ring into submission windows. Driving the windows through
// ExecuteBatch in a loop allocates nothing per transaction on the
// caller's side, so measurements isolate the engine's own behaviour.
func singleKeyWindows(records, ring, window int, build func(k txn.Key) txn.Txn) [][]txn.Txn {
	if ring > records {
		ring = records / window * window
		if ring < window {
			ring = window
		}
	}
	txns := make([]txn.Txn, ring)
	for i := range txns {
		txns[i] = build(txn.Key{Table: workload.YCSBTable, ID: uint64(i % records)})
	}
	windows := make([][]txn.Txn, 0, ring/window)
	for i := 0; i+window <= ring; i += window {
		windows = append(windows, txns[i:i+window])
	}
	return windows
}

// PointWriteWindows pre-builds a ring of single-key blind writes over the
// first `records` YCSB ids. The alloc-budget benchmark and the mem
// experiment share this driver so they measure the same workload.
func PointWriteWindows(records, recordSize, ring, window int) [][]txn.Txn {
	val := txn.NewValue(recordSize, 7)
	return singleKeyWindows(records, ring, window, func(k txn.Key) txn.Txn {
		return &pointWrite{ws: []txn.Key{k}, val: val}
	})
}

// PointWriteCallWindows is PointWriteWindows with registry-built
// (loggable) transactions, for measuring the durability-on point-write
// allocation profile: the same blind single-key writes, expressed as
// ProcPut calls so a durable engine accepts and logs them. reg must have
// been set up with workload.RegisterYCSB.
func PointWriteCallWindows(reg *txn.Registry, records, ring, window int) [][]txn.Txn {
	return singleKeyWindows(records, ring, window, func(k txn.Key) txn.Txn {
		return reg.MustCall(workload.ProcPut, workload.EncodeKeys([]txn.Key{k}))
	})
}

// RMWWindows pre-builds a ring of single-key read-modify-write
// transactions. Unlike the blind writes above, each transaction produces
// a fresh value per execution — staged in the instance's internal scratch
// buffer, which the engine's copy-at-install contract lets it reuse — so
// driving the ring measures the whole write path including workload-side
// value production, and still allocates nothing per transaction in
// steady state.
func RMWWindows(records, recordSize, ring, window int) [][]txn.Txn {
	return singleKeyWindows(records, ring, window, func(k txn.Key) txn.Txn {
		return &workload.RMWTxn{Keys: []txn.Key{k}, Size: recordSize}
	})
}

// PointReadWindows pre-builds a ring of single-key read-only point reads
// over the first `records` YCSB ids — on BOHM these ride the snapshot
// fast path, whose target is zero allocations per read.
func PointReadWindows(records, ring, window int) [][]txn.Txn {
	return singleKeyWindows(records, ring, window, func(k txn.Key) txn.Txn {
		return &workload.ScanTxn{Keys: []txn.Key{k}}
	})
}

// memPoint loads e, warms it up, then measures allocations and throughput
// over s.Txns point writes. It closes the engine before returning so the
// next engine's measurement starts from a quiet process.
func memPoint(kind EngineKind, e engine.Engine, s Scale) []float64 {
	defer e.Close()
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
	if err := y.LoadInto(e); err != nil {
		panic(err)
	}

	const window = 256
	windows := PointWriteWindows(s.Records, s.RecordSize, 4*window, window)

	feed := func(total int) {
		done := 0
		for done < total {
			for _, w := range windows {
				e.ExecuteBatch(w)
				done += len(w)
				if done >= total {
					break
				}
			}
		}
	}

	// Warm the pipeline and, for BOHM, the arenas, then measure from a
	// collected heap so the runtime counters cover only the interval.
	feed(s.Txns / 4)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := e.Stats()
	start := time.Now()
	feed(s.Txns)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	st := e.Stats().Sub(before)

	n := float64(s.Txns)
	res := Result{
		Txns:       s.Txns,
		Elapsed:    elapsed,
		Throughput: float64(st.Committed) / elapsed.Seconds(),
		Stats:      st,
	}
	recordRun(kind, res)
	return []float64{
		float64(m1.Mallocs-m0.Mallocs) / n,
		float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		res.Throughput,
		float64(st.BytesRecycled) / n,
	}
}
