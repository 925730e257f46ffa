package core

import (
	"fmt"
	"testing"

	"bohm/internal/txn"
)

// TestPreprocessSerializationOrder re-runs the non-commutative fold check
// with the pre-processing stage enabled at several pool sizes.
func TestPreprocessSerializationOrder(t *testing.T) {
	for _, pp := range []int{1, 2, 3} {
		cfg := DefaultConfig()
		cfg.CCWorkers = 3
		cfg.ExecWorkers = 2
		cfg.BatchSize = 16
		cfg.Preprocess = true
		cfg.PreprocessWorkers = pp
		e := newTestEngine(t, cfg, 1)

		const n = 300
		ts := make([]txn.Txn, n)
		want := uint64(0)
		for i := range ts {
			tag := uint64(i + 1)
			ts[i] = setTxn(0, tag)
			want = want*31 + tag
		}
		for i, err := range e.ExecuteBatch(ts) {
			if err != nil {
				t.Fatalf("pp=%d txn %d: %v", pp, i, err)
			}
		}
		if got := readCounter(t, e, 0); got != want {
			t.Fatalf("pp=%d: fold = %d, want %d", pp, got, want)
		}
	}
}

// TestPreprocessMatchesBaseline runs the same workloads with and without
// pre-processing: the two CC dispatchers — the unplanned node scan and the
// planned kernel — must be indistinguishable except in CC-phase cost.
func TestPreprocessMatchesBaseline(t *testing.T) {
	t.Run("increments", testPreprocessIncrements)
	t.Run("mixed", testPreprocessMixed)
}

// testPreprocessIncrements: two-key cross-partition increments; final
// states must be identical.
func testPreprocessIncrements(t *testing.T) {
	mkWork := func() []txn.Txn {
		var ts []txn.Txn
		for i := 0; i < 400; i++ {
			a := uint64(i % 13)
			b := uint64((i*7 + 3) % 13)
			if a == b {
				b = (b + 1) % 13
			}
			ts = append(ts, incTxn(a, b))
		}
		return ts
	}
	run := func(preprocess bool) []uint64 {
		cfg := DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 2
		cfg.BatchSize = 32
		cfg.Preprocess = preprocess
		cfg.PreprocessWorkers = 2
		e := newTestEngine(t, cfg, 13)
		for i, err := range e.ExecuteBatch(mkWork()) {
			if err != nil {
				t.Fatalf("preprocess=%v txn %d: %v", preprocess, i, err)
			}
		}
		out := make([]uint64, 13)
		for i := range out {
			out[i] = readCounter(t, e, uint64(i))
		}
		return out
	}
	base := run(false)
	pp := run(true)
	for i := range base {
		if base[i] != pp[i] {
			t.Errorf("key %d: baseline %d, preprocessed %d", i, base[i], pp[i])
		}
	}
}

// testPreprocessMixed runs a deterministic mixed workload (single-key
// increments, deletes, aborts and inserts, two-key cross-partition
// increments, and a declared full-table scan after every round) and
// requires per-transaction outcomes, scan observations and final states
// to match exactly.
func testPreprocessMixed(t *testing.T) {
	run := func(preprocess bool) ([]string, map[txn.Key]uint64) {
		reg := durRegistry()
		cfg := DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 2
		cfg.BatchSize = 32
		cfg.Capacity = 1 << 12
		cfg.Preprocess = preprocess
		cfg.PreprocessWorkers = 2
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		loadInitial(t, e)
		var outcomes []string
		full := txn.KeyRange{Table: 0, Lo: 0, Hi: mutKeys + 64}
		for i := 0; i < 60; i++ {
			ts := workloadBatch(t, reg, i)
			for j := 0; j < 8; j++ {
				a := uint64(i*8+j) % 13
				b := uint64((i*8+j)*7+3) % 13
				if a == b {
					b = (b + 1) % 13
				}
				ts = append(ts, incTxn(a, b))
			}
			for _, err := range e.ExecuteBatch(ts) {
				if err == nil {
					outcomes = append(outcomes, "commit")
				} else {
					outcomes = append(outcomes, err.Error())
				}
			}
			rows, sum := 0, uint64(0)
			res := e.ExecuteBatch([]txn.Txn{&txn.Proc{
				Ranges: []txn.KeyRange{full},
				Body: func(c txn.Ctx) error {
					return c.ReadRange(full, func(_ txn.Key, v []byte) error {
						rows++
						sum += txn.U64(v)
						return nil
					})
				},
			}})
			if res[0] != nil {
				t.Fatal(res[0])
			}
			outcomes = append(outcomes, fmt.Sprintf("scan:%d:%d", rows, sum))
		}
		return outcomes, dumpState(e)
	}

	baseRes, baseState := run(false)
	ppRes, ppState := run(true)
	if len(baseRes) != len(ppRes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(baseRes), len(ppRes))
	}
	for i := range baseRes {
		if baseRes[i] != ppRes[i] {
			t.Fatalf("step %d: baseline %q vs preprocessed %q", i, baseRes[i], ppRes[i])
		}
	}
	sameState(t, "baseline vs preprocessed", ppState, baseState)
}

// TestPreprocessReadRefsAnnotated: the plan path must still produce read
// annotations.
func TestPreprocessReadRefsAnnotated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Preprocess = true
	e := newTestEngine(t, cfg, 4)
	ts := make([]txn.Txn, 40)
	for i := range ts {
		ts[i] = incTxn(uint64(i % 4))
	}
	for _, err := range e.ExecuteBatch(ts) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.ReadRefHits == 0 {
		t.Error("no read-reference hits on the preprocessed path")
	}
}

// TestPreprocessAbortsAndInserts covers the abort copy-forward and
// first-version insert paths under pre-processing.
func TestPreprocessAbortsAndInserts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Preprocess = true
	cfg.PreprocessWorkers = 2
	cfg.BatchSize = 8
	e := newTestEngine(t, cfg, 1)

	if res := e.ExecuteBatch([]txn.Txn{incTxn(0)}); res[0] != nil {
		t.Fatal(res[0])
	}
	boom := txn.ErrAbort
	abort := &txn.Proc{
		Reads:  []txn.Key{key(0)},
		Writes: []txn.Key{key(0)},
		Body: func(ctx txn.Ctx) error {
			v, err := ctx.Read(key(0))
			if err != nil {
				return err
			}
			if err := ctx.Write(key(0), txn.Incremented(v, 100)); err != nil {
				return err
			}
			return boom
		},
	}
	ins := &txn.Proc{
		Writes: []txn.Key{key(55)},
		Body:   func(ctx txn.Ctx) error { return ctx.Write(key(55), txn.NewValue(8, 9)) },
	}
	res := e.ExecuteBatch([]txn.Txn{abort, ins, incTxn(0)})
	if res[0] != boom || res[1] != nil || res[2] != nil {
		t.Fatalf("results: %v", res)
	}
	if got := readCounter(t, e, 0); got != 2 {
		t.Errorf("key 0 = %d, want 2", got)
	}
	if got := readCounter(t, e, 55); got != 9 {
		t.Errorf("key 55 = %d, want 9", got)
	}
}

// TestPreprocessTinyBatches: batches smaller than the preprocessing pool
// must still be fully planned (stripe arithmetic edge case).
func TestPreprocessTinyBatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Preprocess = true
	cfg.PreprocessWorkers = 4
	cfg.BatchSize = 64
	e := newTestEngine(t, cfg, 2)
	for i := 0; i < 10; i++ {
		// Single-transaction submissions flush one-node batches.
		if res := e.ExecuteBatch([]txn.Txn{incTxn(uint64(i % 2))}); res[0] != nil {
			t.Fatalf("round %d: %v", i, res[0])
		}
	}
	if got := readCounter(t, e, 0); got != 5 {
		t.Errorf("key 0 = %d, want 5", got)
	}
	if got := readCounter(t, e, 1); got != 5 {
		t.Errorf("key 1 = %d, want 5", got)
	}
}
