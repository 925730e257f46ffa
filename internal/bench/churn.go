package bench

import (
	"fmt"

	"bohm/internal/core"
	"bohm/internal/engine"
	"bohm/internal/txn"
	"bohm/internal/workload"
)

// Churn is the index-lifecycle experiment: a table where a fraction of the
// keys has been deleted (queue/session/TTL churn), measured under a
// scan-heavy mix with ongoing delete/re-insert rotation. An insert-only
// index pays for every key that ever existed — dead directory entries and
// tombstone chains sit on every scan's path — while BOHM's reaper
// converges the index to the live working set. The "Bohm (DisableReaping)"
// series is the ablation: identical engine, lifecycle off; the gap between
// the two BOHM rows is what reaping buys, and it widens with the dead
// fraction. The second table reports the reclamation counters.
func Churn(s Scale) []*Table {
	mix := &Table{
		ID: "churn",
		Title: fmt.Sprintf("churn scan mix at %d threads (%d%% scans of %d ids, delete/re-insert rotation)",
			s.MaxThreads, churnScanPct, s.ChurnScanLen),
		Param: "% dead keys",
		Notes: []string{
			hostNote(),
			"dead keys are spread uniformly over the id space (id % 100 < pct), so every scan window crosses them",
			"Bohm (DisableReaping) is the insert-only-index ablation: same engine, index lifecycle off",
		},
	}
	for _, k := range AllEngines {
		mix.Series = append(mix.Series, string(k))
	}
	mix.Series = append(mix.Series, "Bohm (DisableReaping)")

	reclaim := &Table{
		ID:     "churn-reclaim",
		Title:  "BOHM index lifecycle during the churn run (reaping on)",
		Param:  "% dead keys",
		Series: []string{"keys reaped", "dir KiB reclaimed", "fence skips", "live dir entries/records"},
		Notes: []string{
			"counters cover the whole point (kill + settle + measured mix); entries/records near 1.0 means the directory converged to the live set",
		},
	}

	for _, pct := range s.ChurnDeadPcts {
		var vals []float64
		var reap churnResult
		for _, k := range AllEngines {
			tput, r := churnPoint(k, s, pct, false)
			vals = append(vals, tput)
			if k == Bohm {
				reap = r
			}
		}
		tput, _ := churnPoint(Bohm, s, pct, true)
		vals = append(vals, tput)
		mix.AddRow(fmt.Sprintf("%d%%", pct), vals...)

		live := float64(s.Records) * float64(100-pct) / 100.0
		reclaim.AddRow(fmt.Sprintf("%d%%", pct),
			float64(reap.Stats.KeysReaped),
			float64(reap.Stats.DirBytesReclaimed)/1024.0,
			float64(reap.Stats.RangeFenceSkips),
			float64(reap.DirEntries)/live,
		)
	}
	return []*Table{mix, reclaim}
}

// churnScanPct is the scan share of the measured mix; the rest is
// delete/re-insert rotation, which keeps the reaper exercised while the
// measurement runs.
const churnScanPct = 90

// churnPoint measures one engine at one dead-key fraction: load the
// table, kill pct% of the keys (spread uniformly), let the index settle
// (for BOHM, enough batches for the reap sweep to cover the directory),
// then measure the scan-heavy mix.
func churnPoint(kind EngineKind, s Scale, pct int, disableReaping bool) (float64, churnResult) {
	c := workload.Churn{Records: s.Records, RecordSize: s.RecordSize}
	e := makeChurnEngine(kind, s, disableReaping)
	defer e.Close()
	if err := c.LoadInto(e); err != nil {
		panic(err)
	}

	// Kill phase: delete every id whose residue falls below pct.
	const chunk = 1024
	var dels []txn.Txn
	for id := 0; id < s.Records; id++ {
		if id%100 < pct {
			dels = append(dels, &workload.DeleteTxn{K: txn.Key{Table: workload.ChurnTable, ID: uint64(id)}})
		}
		if len(dels) == chunk {
			mustCommit(e.ExecuteBatch(dels))
			dels = dels[:0]
		}
	}
	if len(dels) > 0 {
		mustCommit(e.ExecuteBatch(dels))
	}

	// Settle phase: single-transaction batches tick BOHM's per-batch reap
	// sweep until it has covered the directory several times over; for the
	// other engines this is a no-op warmup. The settle key's residue 99
	// stays live for every swept fraction.
	settleKey := txn.Key{Table: workload.ChurnTable, ID: uint64(s.Records - s.Records%100 - 1)}
	val := txn.NewValue(s.RecordSize, 1)
	settleBatches := s.Records/128 + 64
	for i := 0; i < settleBatches; i++ {
		mustCommit(e.ExecuteBatch([]txn.Txn{&workload.PutTxn{Keys: []txn.Key{settleKey}, Val: val}}))
	}

	gen := func(stream int) func() txn.Txn {
		src := c.NewSource(int64(31+stream*7919), 0) // uniform scan starts
		n := 0
		return func() txn.Txn {
			n++
			if n%100 < churnScanPct {
				return src.Scan(s.ChurnScanLen)
			}
			return src.Rotate(pct)
		}
	}
	// Scale the transaction count so each point does comparable row work.
	txns := s.Txns * 10 / (1 + s.ChurnScanLen/2)
	if txns < 500 {
		txns = 500
	}
	r := Run(kind, e, Options{Txns: txns, Procs: s.MaxThreads}, gen)
	// Lifecycle counters are lifetime totals (the kill and settle phases
	// are where most reaping happens), unlike r.Stats' measured interval.
	res := churnResult{Stats: e.Stats()}
	if b, ok := e.(*core.Engine); ok {
		res.DirEntries = b.DirectoryEntries()
	}
	return r.Throughput, res
}

// preparedScan is a pre-built read-only range scan whose callback and
// range declaration are constructed once: resubmitting it allocates
// nothing on the driver side, so the alloc-budget benchmark isolates the
// engine's own scan machinery.
type preparedScan struct {
	ranges []txn.KeyRange
	fn     func(k txn.Key, v []byte) error
	rows   int
	sum    uint64
}

func newPreparedScan(r txn.KeyRange) *preparedScan {
	t := &preparedScan{ranges: []txn.KeyRange{r}}
	t.fn = func(_ txn.Key, v []byte) error {
		t.rows++
		t.sum += txn.U64(v)
		return nil
	}
	return t
}

func (t *preparedScan) ReadSet() []txn.Key       { return nil }
func (t *preparedScan) WriteSet() []txn.Key      { return nil }
func (t *preparedScan) RangeSet() []txn.KeyRange { return t.ranges }
func (t *preparedScan) Run(ctx txn.Ctx) error {
	t.rows, t.sum = 0, 0
	return ctx.ReadRange(t.ranges[0], t.fn)
}

// ChurnScanWindows pre-builds a ring of fixed-length read-only range
// scans over the churn table, sliced into submission windows; the
// alloc-budget benchmark drives them over a churned-and-reaped table with
// a target of zero allocations per scan.
func ChurnScanWindows(records, scanLen, ring, window int) [][]txn.Txn {
	if scanLen >= records {
		scanLen = records - 1
	}
	txns := make([]txn.Txn, ring)
	for i := range txns {
		lo := uint64((i * 97) % (records - scanLen))
		txns[i] = newPreparedScan(txn.KeyRange{Table: workload.ChurnTable, Lo: lo, Hi: lo + uint64(scanLen)})
	}
	windows := make([][]txn.Txn, 0, ring/window)
	for i := 0; i+window <= ring; i += window {
		windows = append(windows, txns[i:i+window])
	}
	return windows
}

// churnResult carries the per-point counters the reclamation table needs.
type churnResult struct {
	Stats      engine.Stats
	DirEntries int
}

func makeChurnEngine(kind EngineKind, s Scale, disableReaping bool) engine.Engine {
	if kind == Bohm {
		cc, exec := bohmSplit(s.MaxThreads)
		cfg := core.DefaultConfig()
		cfg.CCWorkers, cfg.ExecWorkers = cc, exec
		cfg.Capacity = s.Records + s.Records/4 + 1024
		cfg = core.WithAblations(cfg, core.Ablations{DisableReaping: disableReaping})
		e, err := core.New(cfg)
		if err != nil {
			panic(err)
		}
		return e
	}
	e, err := MakeEngine(kind, s.MaxThreads, s.Records+s.Records/4+1024)
	if err != nil {
		panic(err)
	}
	return e
}

func mustCommit(res []error) {
	for _, err := range res {
		if err != nil {
			panic(err)
		}
	}
}
