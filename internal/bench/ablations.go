package bench

import (
	"fmt"

	"bohm/internal/core"
	"bohm/internal/txn"
	"bohm/internal/workload"
)

// Ablations isolate the paper's design choices, which ROADMAP.md (aim 2)
// keeps as the §4 ablations: the read-reference annotation (§3.2.3), incremental garbage collection (§3.3.2),
// and batch-granularity coordination (§3.2.4, including BatchSize=1,
// which degenerates to the per-transaction barrier the paper rejects).

// measureBohmConfig runs a given BOHM configuration on one workload point.
func measureBohmConfig(cfg core.Config, s Scale, theta float64, recordSize int,
	pick func(src *workload.YCSBSource) txn.Txn) float64 {
	y := workload.YCSB{Records: s.Records, RecordSize: recordSize}
	cfg.Capacity = s.Records
	e, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	defer e.Close()
	if err := y.LoadInto(e); err != nil {
		panic(err)
	}
	r := Run(Bohm, e, Options{Txns: s.Txns, Procs: cfg.CCWorkers + cfg.ExecWorkers}, ycsbGen(y, theta, pick))
	return r.Throughput
}

func bohmSplit(threads int) (cc, exec int) {
	cc = threads / 2
	if cc < 1 {
		cc = 1
	}
	exec = threads - cc
	if exec < 1 {
		exec = 1
	}
	return cc, exec
}

// AblationReadRefs compares BOHM with and without read-reference
// annotation on a read-heavy mix: without annotations every read pays the
// version-chain traversal the paper attributes to conventional
// multiversion systems (§4.2.3).
func AblationReadRefs(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-readrefs",
		Title:  "read-reference annotation vs chain traversal (2RMW-8R)",
		Param:  "theta",
		Series: []string{"annotated", "traversal"},
	}
	cc, exec := bohmSplit(s.MaxThreads)
	pick := func(src *workload.YCSBSource) txn.Txn { return src.RMW2Read8() }
	for _, theta := range []float64{0, 0.9} {
		on := core.Config{CCWorkers: cc, ExecWorkers: exec, BatchSize: 1024, GC: true}
		off := on
		off.DisableReadRefs = true
		t.AddRow(fmt.Sprintf("%.2f", theta),
			measureBohmConfig(on, s, theta, s.RecordSize, pick),
			measureBohmConfig(off, s, theta, s.RecordSize, pick))
	}
	return []*Table{t}
}

// AblationGC compares BOHM with and without incremental garbage
// collection under the version-churn-heavy contended 10RMW workload.
func AblationGC(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-gc",
		Title:  "incremental GC on/off (10RMW, theta=0.9)",
		Param:  "config",
		Series: []string{"txns/sec"},
	}
	cc, exec := bohmSplit(s.MaxThreads)
	pick := func(src *workload.YCSBSource) txn.Txn { return src.RMW10() }
	on := core.Config{CCWorkers: cc, ExecWorkers: exec, BatchSize: 1024, GC: true}
	off := on
	off.GC = false
	t.AddRow("gc on", measureBohmConfig(on, s, 0.9, s.RecordSize, pick))
	t.AddRow("gc off", measureBohmConfig(off, s, 0.9, s.RecordSize, pick))
	return []*Table{t}
}

// AblationPreprocess compares the base CC design (every CC worker scans
// every transaction) against the §3.2.2 pre-processing layer that
// forwards per-partition work lists.
func AblationPreprocess(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-preprocess",
		Title:  "CC scan-all vs pre-processed work lists (10RMW, theta=0)",
		Param:  "config",
		Series: []string{"txns/sec"},
	}
	cc, exec := bohmSplit(s.MaxThreads)
	pick := func(src *workload.YCSBSource) txn.Txn { return src.RMW10() }
	base := core.Config{CCWorkers: cc, ExecWorkers: exec, BatchSize: 1024, GC: true}
	pp := base
	pp.Preprocess = true
	pp.PreprocessWorkers = 2
	t.AddRow("scan-all", measureBohmConfig(base, s, 0, s.RecordSize, pick))
	t.AddRow("preprocessed", measureBohmConfig(pp, s, 0, s.RecordSize, pick))
	return []*Table{t}
}

// AblationBatch sweeps the coordination batch size; size 1 is the
// per-transaction global barrier of §3.2.4's strawman.
func AblationBatch(s Scale) []*Table {
	t := &Table{
		ID:     "ablation-batch",
		Title:  "coordination batch size (10RMW, theta=0)",
		Param:  "batch size",
		Series: []string{"txns/sec"},
	}
	cc, exec := bohmSplit(s.MaxThreads)
	pick := func(src *workload.YCSBSource) txn.Txn { return src.RMW10() }
	for _, bs := range []int{1, 16, 128, 1024, 8192} {
		cfg := core.Config{CCWorkers: cc, ExecWorkers: exec, BatchSize: bs, GC: true}
		t.AddRow(fmt.Sprintf("%d", bs), measureBohmConfig(cfg, s, 0, s.RecordSize, pick))
	}
	return []*Table{t}
}
