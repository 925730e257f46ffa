// Package enginetest runs the same correctness suite against every engine:
// BOHM and the four baselines must all execute serializable histories on
// these workloads (SI is included because the scenarios used here do not
// exercise the write-skew anomaly except where noted).
package enginetest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bohm/internal/core"
	"bohm/internal/engine"
	"bohm/internal/hekaton"
	"bohm/internal/occ"
	"bohm/internal/si"
	"bohm/internal/twopl"
	"bohm/internal/txn"
)

// factories enumerates every engine under test. serializable marks the
// engines that must reject non-serializable executions.
var factories = []struct {
	name         string
	serializable bool
	make         func(t *testing.T) engine.Engine
}{
	{"bohm", true, func(t *testing.T) engine.Engine {
		cfg := core.DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 3
		cfg.BatchSize = 32
		cfg.Capacity = 1 << 12
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"bohm-nofast", true, func(t *testing.T) engine.Engine {
		// The DisableReadOnlyFastPath ablation pipelines read-only
		// transactions like any other; unlike default BOHM it keeps the
		// paper's exact submission-order serialization even for read-only
		// transactions mixed into a writing ExecuteBatch call.
		cfg := core.DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 3
		cfg.BatchSize = 32
		cfg.Capacity = 1 << 12
		cfg.DisableReadOnlyFastPath = true
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"bohm-nopool", true, func(t *testing.T) engine.Engine {
		// The DisablePooling ablation must be observationally identical to
		// pooled BOHM on every suite; only the allocation profile differs.
		cfg := core.DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 3
		cfg.BatchSize = 32
		cfg.Capacity = 1 << 12
		cfg = core.WithAblations(cfg, core.Ablations{DisablePooling: true})
		e, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"hekaton", true, func(t *testing.T) engine.Engine {
		cfg := hekaton.DefaultConfig()
		cfg.Workers = 3
		cfg.Capacity = 1 << 12
		e, err := hekaton.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"si", false, func(t *testing.T) engine.Engine {
		cfg := si.DefaultConfig()
		cfg.Workers = 3
		cfg.Capacity = 1 << 12
		e, err := si.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"occ", true, func(t *testing.T) engine.Engine {
		cfg := occ.DefaultConfig()
		cfg.Workers = 3
		cfg.Capacity = 1 << 12
		e, err := occ.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
	{"twopl", true, func(t *testing.T) engine.Engine {
		cfg := twopl.DefaultConfig()
		cfg.Workers = 3
		cfg.Capacity = 1 << 12
		e, err := twopl.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}},
}

func forEachEngine(t *testing.T, f func(t *testing.T, name string, serializable bool, e engine.Engine)) {
	for _, fc := range factories {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			e := fc.make(t)
			t.Cleanup(e.Close)
			f(t, fc.name, fc.serializable, e)
		})
	}
}

func key(id uint64) txn.Key { return txn.Key{Table: 0, ID: id} }

func load(t *testing.T, e engine.Engine, n int, val uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.Load(key(uint64(i)), txn.NewValue(8, val)); err != nil {
			t.Fatal(err)
		}
	}
}

func incTxn(ids ...uint64) txn.Txn {
	ks := make([]txn.Key, len(ids))
	for i, id := range ids {
		ks[i] = key(id)
	}
	return &txn.Proc{
		Reads:  ks,
		Writes: ks,
		Body: func(ctx txn.Ctx) error {
			for _, k := range ks {
				v, err := ctx.Read(k)
				if err != nil {
					return err
				}
				if err := ctx.Write(k, txn.Incremented(v, 1)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func readVal(t *testing.T, e engine.Engine, id uint64) (uint64, error) {
	t.Helper()
	var got uint64
	res := e.ExecuteBatch([]txn.Txn{&txn.Proc{
		Reads: []txn.Key{key(id)},
		Body: func(ctx txn.Ctx) error {
			v, err := ctx.Read(key(id))
			if err != nil {
				return err
			}
			got = txn.U64(v)
			return nil
		},
	}})
	return got, res[0]
}

func TestHotKeyIncrements(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		load(t, e, 1, 0)
		const n = 500
		ts := make([]txn.Txn, n)
		for i := range ts {
			ts[i] = incTxn(0)
		}
		for i, err := range e.ExecuteBatch(ts) {
			if err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
		}
		got, err := readVal(t, e, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Errorf("%s: hot counter = %d, want %d", name, got, n)
		}
	})
}

// TestFirstInsertIncrements races the very first insert of a record: no
// key is loaded, and each transaction reads its key, then writes 1 if it
// is missing or the value plus one if present. Transactions on the same
// key sit next to each other in the batch, so concurrent workers create
// each record at once. Every commit must count exactly once: two "first"
// versions that both commit lose an increment.
func TestFirstInsertIncrements(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		const nkeys, per = 64, 8
		ts := make([]txn.Txn, 0, nkeys*per)
		for id := uint64(0); id < nkeys; id++ {
			k := key(id)
			for j := 0; j < per; j++ {
				ts = append(ts, &txn.Proc{
					Reads:  []txn.Key{k},
					Writes: []txn.Key{k},
					Body: func(ctx txn.Ctx) error {
						v, err := ctx.Read(k)
						if errors.Is(err, txn.ErrNotFound) {
							return ctx.Write(k, txn.NewValue(8, 1))
						}
						if err != nil {
							return err
						}
						return ctx.Write(k, txn.Incremented(v, 1))
					},
				})
			}
		}
		commits := make([]uint64, nkeys)
		for i, err := range e.ExecuteBatch(ts) {
			if err == nil {
				commits[i/per]++
			}
		}
		for id := uint64(0); id < nkeys; id++ {
			got, err := readVal(t, e, id)
			if err != nil && !(commits[id] == 0 && errors.Is(err, txn.ErrNotFound)) {
				t.Fatalf("%s: key %d: %v", name, id, err)
			}
			if got != commits[id] {
				t.Errorf("%s: key %d = %d after %d commits", name, id, got, commits[id])
			}
		}
	})
}

func TestMultiKeyTransfersConserveSum(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		const nkeys = 16
		const initial = 1000
		load(t, e, nkeys, initial)
		rng := rand.New(rand.NewSource(7))
		const n = 400
		ts := make([]txn.Txn, n)
		for i := range ts {
			a := uint64(rng.Intn(nkeys))
			b := uint64(rng.Intn(nkeys - 1))
			if b >= a {
				b++
			}
			ka, kb := key(a), key(b)
			amount := uint64(1 + rng.Intn(3))
			ts[i] = &txn.Proc{
				Reads:  []txn.Key{ka, kb},
				Writes: []txn.Key{ka, kb},
				Body: func(ctx txn.Ctx) error {
					va, err := ctx.Read(ka)
					if err != nil {
						return err
					}
					vb, err := ctx.Read(kb)
					if err != nil {
						return err
					}
					if err := ctx.Write(ka, txn.NewValue(8, txn.U64(va)-amount)); err != nil {
						return err
					}
					return ctx.Write(kb, txn.NewValue(8, txn.U64(vb)+amount))
				},
			}
		}
		for i, err := range e.ExecuteBatch(ts) {
			if err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
		}
		var sum uint64
		for i := uint64(0); i < nkeys; i++ {
			v, err := readVal(t, e, i)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum != nkeys*initial {
			t.Errorf("%s: sum = %d, want %d", name, sum, nkeys*initial)
		}
	})
}

func TestAbortRollsBack(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		load(t, e, 1, 42)
		boom := errors.New("boom")
		aborting := &txn.Proc{
			Reads:  []txn.Key{key(0)},
			Writes: []txn.Key{key(0)},
			Body: func(ctx txn.Ctx) error {
				if err := ctx.Write(key(0), txn.NewValue(8, 999)); err != nil {
					return err
				}
				return boom
			},
		}
		res := e.ExecuteBatch([]txn.Txn{aborting})
		if !errors.Is(res[0], boom) {
			t.Fatalf("%s: abort result = %v, want boom", name, res[0])
		}
		got, err := readVal(t, e, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != 42 {
			t.Errorf("%s: value after abort = %d, want 42", name, got)
		}
	})
}

func TestReadMissingKey(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		load(t, e, 1, 0)
		_, err := readVal(t, e, 12345)
		if !errors.Is(err, txn.ErrNotFound) {
			t.Errorf("%s: read of missing key = %v, want ErrNotFound", name, err)
		}
	})
}

func TestInsertThenRead(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		load(t, e, 1, 0)
		k := key(777)
		ins := &txn.Proc{
			Writes: []txn.Key{k},
			Body: func(ctx txn.Ctx) error {
				return ctx.Write(k, txn.NewValue(8, 7))
			},
		}
		if res := e.ExecuteBatch([]txn.Txn{ins}); res[0] != nil {
			t.Fatalf("%s: insert failed: %v", name, res[0])
		}
		got, err := readVal(t, e, 777)
		if err != nil {
			t.Fatalf("%s: read after insert: %v", name, err)
		}
		if got != 7 {
			t.Errorf("%s: inserted value = %d, want 7", name, got)
		}
	})
}

func TestDeleteThenRead(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		load(t, e, 2, 5)
		k := key(1)
		del := &txn.Proc{
			Writes: []txn.Key{k},
			Body:   func(ctx txn.Ctx) error { return ctx.Delete(k) },
		}
		if res := e.ExecuteBatch([]txn.Txn{del}); res[0] != nil {
			t.Fatalf("%s: delete failed: %v", name, res[0])
		}
		_, err := readVal(t, e, 1)
		if !errors.Is(err, txn.ErrNotFound) {
			t.Errorf("%s: read after delete = %v, want ErrNotFound", name, err)
		}
		// Unrelated key unaffected.
		got, err := readVal(t, e, 0)
		if err != nil || got != 5 {
			t.Errorf("%s: key 0 after delete = %d/%v, want 5/nil", name, got, err)
		}
	})
}

func TestWriteOutsideWriteSetAborts(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		load(t, e, 2, 0)
		bad := &txn.Proc{
			Writes: []txn.Key{key(0)},
			Body: func(ctx txn.Ctx) error {
				return ctx.Write(key(1), txn.NewValue(8, 1))
			},
		}
		res := e.ExecuteBatch([]txn.Txn{bad})
		if res[0] == nil {
			t.Fatalf("%s: undeclared write committed", name)
		}
		got, err := readVal(t, e, 1)
		if err != nil || got != 0 {
			t.Errorf("%s: key 1 = %d/%v, want 0/nil", name, got, err)
		}
	})
}

func TestRMWChainsAcrossBatches(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		const nkeys = 8
		load(t, e, nkeys, 0)
		total := 0
		for round := 0; round < 20; round++ {
			ts := make([]txn.Txn, 25)
			for i := range ts {
				ts[i] = incTxn(uint64((i + round) % nkeys))
			}
			for i, err := range e.ExecuteBatch(ts) {
				if err != nil {
					t.Fatalf("round %d txn %d: %v", round, i, err)
				}
			}
			total += len(ts)
		}
		var sum uint64
		for i := uint64(0); i < nkeys; i++ {
			v, err := readVal(t, e, i)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if sum != uint64(total) {
			t.Errorf("%s: sum = %d, want %d", name, sum, total)
		}
	})
}

func TestLargeValuesRoundTrip(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		val := txn.NewValue(1000, 3)
		for i := 8; i < 1000; i++ {
			val[i] = byte(i)
		}
		if err := e.Load(key(0), val); err != nil {
			t.Fatal(err)
		}
		var got []byte
		res := e.ExecuteBatch([]txn.Txn{&txn.Proc{
			Reads: []txn.Key{key(0)},
			Body: func(ctx txn.Ctx) error {
				v, err := ctx.Read(key(0))
				if err != nil {
					return err
				}
				got = append([]byte(nil), v...)
				return nil
			},
		}})
		if res[0] != nil {
			t.Fatal(res[0])
		}
		if len(got) != 1000 {
			t.Fatalf("%s: got %d bytes, want 1000", name, len(got))
		}
		for i := 8; i < 1000; i++ {
			if got[i] != byte(i) {
				t.Fatalf("%s: byte %d = %d, want %d", name, i, got[i], byte(i))
			}
		}
	})
}

// TestSerialEquivalenceRandomMix drives a randomized mix of multi-key
// read-modify-writes and verifies the final database state matches the
// reference state produced by SOME serial order of the committed
// transactions. For commutative increments, any serial order yields the
// same sums, so we verify sums per key against the committed transactions'
// increments.
func TestSerialEquivalenceRandomMix(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		const nkeys = 12
		load(t, e, nkeys, 0)
		rng := rand.New(rand.NewSource(99))
		const n = 300
		ts := make([]txn.Txn, n)
		incs := make([][]uint64, n) // keys each txn increments
		for i := range ts {
			cnt := 1 + rng.Intn(4)
			seen := map[uint64]bool{}
			var ids []uint64
			for len(ids) < cnt {
				id := uint64(rng.Intn(nkeys))
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			incs[i] = ids
			ts[i] = incTxn(ids...)
		}
		res := e.ExecuteBatch(ts)
		want := map[uint64]uint64{}
		for i, err := range res {
			if err != nil {
				t.Fatalf("%s: txn %d: %v", name, i, err)
			}
			for _, id := range incs[i] {
				want[id]++
			}
		}
		for i := uint64(0); i < nkeys; i++ {
			got, err := readVal(t, e, i)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("%s: key %d = %d, want %d", name, i, got, want[i])
			}
		}
	})
}

// TestStatsAccounting checks that engines report sensible counters.
func TestStatsAccounting(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		load(t, e, 4, 0)
		ts := make([]txn.Txn, 100)
		for i := range ts {
			ts[i] = incTxn(uint64(i % 4))
		}
		e.ExecuteBatch(ts)
		s := e.Stats()
		if s.Committed < 100 {
			t.Errorf("%s: committed = %d, want >= 100", name, s.Committed)
		}
	})
}

var _ = fmt.Sprintf // keep fmt import when debugging locally

// TestPanicInBodyBecomesAbort: a panicking transaction must not crash a
// worker; it aborts with *txn.PanicError and leaves the database intact.
func TestPanicInBodyBecomesAbort(t *testing.T) {
	forEachEngine(t, func(t *testing.T, name string, _ bool, e engine.Engine) {
		load(t, e, 1, 42)
		panicky := &txn.Proc{
			Reads:  []txn.Key{key(0)},
			Writes: []txn.Key{key(0)},
			Body: func(ctx txn.Ctx) error {
				if err := ctx.Write(key(0), txn.NewValue(8, 999)); err != nil {
					return err
				}
				panic("kaboom")
			},
		}
		res := e.ExecuteBatch([]txn.Txn{panicky, incTxn(0)})
		var pe *txn.PanicError
		if !errors.As(res[0], &pe) {
			t.Fatalf("%s: result = %v, want *txn.PanicError", name, res[0])
		}
		if pe.Value != "kaboom" {
			t.Errorf("%s: panic value = %v", name, pe.Value)
		}
		if res[1] != nil {
			t.Fatalf("%s: follow-up txn failed: %v", name, res[1])
		}
		got, err := readVal(t, e, 0)
		if err != nil || got != 43 {
			t.Errorf("%s: value = %d (%v), want 43", name, got, err)
		}
	})
}
