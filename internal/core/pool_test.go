package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"bohm/internal/txn"
	"bohm/internal/wal"
)

// Tests for the allocation-free hot path: the batch/node arenas, the
// watermark-gated retire ring, the per-partition version pools, and the
// DisablePooling ablation. The stress test is the load-bearing one — run
// under -race it checks that no recycled node or version is ever observed
// by a live reader.

// stressRegistry builds the stress workload's procedures: conserved-sum
// transfers between account keys, and full-table scans that verify the
// invariant from inside a serializable transaction.
const (
	stressProc     = "stress.op"
	stressKeys     = 64
	stressTotal    = uint64(stressKeys) * 100
	stressOpMove   = 0
	stressOpScan   = 1
	stressOpInsert = 2
)

func stressRegistry() *txn.Registry {
	reg := txn.NewRegistry()
	allAccounts := txn.KeyRange{Table: 0, Lo: 0, Hi: stressKeys}
	reg.Register(stressProc, func(args []byte) (txn.Txn, error) {
		if len(args) != 17 {
			return nil, fmt.Errorf("bad stress args: %d bytes", len(args))
		}
		a := binary.LittleEndian.Uint64(args)
		b := binary.LittleEndian.Uint64(args[8:])
		switch args[16] {
		case stressOpScan:
			// A serializable scan must observe the transfers' conserved
			// sum — any torn read of recycled memory breaks it.
			return &txn.Proc{
				Ranges: []txn.KeyRange{allAccounts},
				Body: func(c txn.Ctx) error {
					sum, rows := uint64(0), 0
					err := c.ReadRange(allAccounts, func(_ txn.Key, v []byte) error {
						sum += txn.U64(v)
						rows++
						return nil
					})
					if err != nil {
						return err
					}
					if rows != stressKeys || sum != stressTotal {
						return fmt.Errorf("scan saw %d rows summing %d, want %d/%d", rows, sum, stressKeys, stressTotal)
					}
					return nil
				},
			}, nil
		case stressOpInsert:
			// Fresh keys in a side table: exercises directory inserts and
			// the fences while the account table churns.
			k := txn.Key{Table: 1, ID: a<<32 | b}
			return &txn.Proc{
				Writes: []txn.Key{k},
				Body:   func(c txn.Ctx) error { return c.Write(k, txn.NewValue(8, a^b)) },
			}, nil
		default:
			ka, kb := key(a%stressKeys), key(b%stressKeys)
			if ka == kb {
				kb = key((b + 1) % stressKeys)
			}
			return &txn.Proc{
				Reads:  []txn.Key{ka, kb},
				Writes: []txn.Key{ka, kb},
				Body: func(c txn.Ctx) error {
					va, err := c.Read(ka)
					if err != nil {
						return err
					}
					vb, err := c.Read(kb)
					if err != nil {
						return err
					}
					if err := c.Write(ka, txn.NewValue(16, txn.U64(va)-1)); err != nil {
						return err
					}
					return c.Write(kb, txn.NewValue(16, txn.U64(vb)+1))
				},
			}, nil
		}
	})
	return reg
}

func stressCall(t testing.TB, reg *txn.Registry, a, b uint64, op byte) txn.Txn {
	t.Helper()
	args := make([]byte, 17)
	binary.LittleEndian.PutUint64(args, a)
	binary.LittleEndian.PutUint64(args[8:], b)
	args[16] = op
	return reg.MustCall(stressProc, args)
}

// TestPoolingStress hammers recycled nodes and versions: concurrent
// submitter streams mix conserved-sum transfers, serializable full-table
// scans and side-table inserts over a small batch size (fast recycle
// churn) with GC on and periodic checkpointing (so the retire gate runs
// against the checkpoint pin, not just the execution watermark). Any
// reuse of a node or version still reachable by a reader shows up as a
// broken scan invariant, a wrong read — or a report from the race
// detector, which is the mode CI runs this under.
func TestPoolingStress(t *testing.T) {
	reg := stressRegistry()
	cfg := DefaultConfig()
	cfg.CCWorkers = 2
	cfg.ExecWorkers = 3
	cfg.BatchSize = 32
	cfg.Capacity = 1 << 14
	cfg.GC = true
	cfg.LogDir = t.TempDir()
	cfg.SyncPolicy = wal.SyncNever
	cfg.CheckpointEveryBatches = 8
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for id := uint64(0); id < stressKeys; id++ {
		if err := e.Load(key(id), txn.NewValue(16, 100)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		streams = 4
		rounds  = 150
		perSub  = 24
	)
	var wg sync.WaitGroup
	errCh := make(chan error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed*2654435761 + 1
			next := func() uint64 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x
			}
			for r := 0; r < rounds; r++ {
				ts := make([]txn.Txn, perSub)
				for i := range ts {
					switch next() % 5 {
					case 0:
						ts[i] = stressCall(t, reg, next(), next(), stressOpScan)
					case 1:
						ts[i] = stressCall(t, reg, seed, next(), stressOpInsert)
					default:
						ts[i] = stressCall(t, reg, next(), next(), stressOpMove)
					}
				}
				for i, err := range e.ExecuteBatch(ts) {
					if err != nil {
						errCh <- fmt.Errorf("stream %d round %d txn %d: %w", seed, r, i, err)
						return
					}
				}
			}
		}(uint64(s))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The counters below depend on the background checkpointer advancing
	// the GC pin, which a loaded host can starve for the whole concurrent
	// phase. Keep the pipeline moving with single-transaction batches
	// until every pooling mechanism has provably engaged (watermarks,
	// pin and retire gate all advance with each batch), bounded by a
	// generous deadline.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := e.Stats()
		if st.ArenaBatchesRecycled > 0 && st.VersionsPooled > 0 && st.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooling machinery did not engage: recycled=%d pooled=%d checkpoints=%d",
				st.ArenaBatchesRecycled, st.VersionsPooled, st.Checkpoints)
		}
		if res := e.ExecuteBatch([]txn.Txn{stressCall(t, reg, 1, 2, stressOpMove)}); res[0] != nil {
			t.Fatal(res[0])
		}
	}
	// Final consistency check from outside the pipeline.
	sum := uint64(0)
	for k, v := range dumpState(e) {
		if k.Table == 0 {
			sum += v
		}
	}
	if sum != stressTotal {
		t.Errorf("final account sum = %d, want %d", sum, stressTotal)
	}
}

// TestDisablePoolingIdenticalResults runs the durability suite's
// deterministic mixed workload (increments, deletes, aborts) plus
// declared scans against a pooled and an unpooled engine and requires
// per-transaction outcomes and final states to match exactly: pooling
// must be invisible except in the allocation profile.
func TestDisablePoolingIdenticalResults(t *testing.T) {
	run := func(disable bool) ([]string, map[txn.Key]uint64) {
		reg := durRegistry()
		cfg := DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 2
		cfg.BatchSize = 64
		cfg.Capacity = 1 << 12
		cfg.ablate.DisablePooling = disable
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		loadInitial(t, e)
		var outcomes []string
		for i := 0; i < 60; i++ {
			for _, err := range e.ExecuteBatch(workloadBatch(t, reg, i)) {
				if err == nil {
					outcomes = append(outcomes, "commit")
				} else {
					outcomes = append(outcomes, err.Error())
				}
			}
		}
		return outcomes, dumpState(e)
	}

	pooledRes, pooledState := run(false)
	plainRes, plainState := run(true)
	if len(pooledRes) != len(plainRes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(pooledRes), len(plainRes))
	}
	for i := range pooledRes {
		if pooledRes[i] != plainRes[i] {
			t.Fatalf("txn %d: pooled %q vs unpooled %q", i, pooledRes[i], plainRes[i])
		}
	}
	sameState(t, "pooled vs DisablePooling", pooledState, plainState)
}

// TestRangeFenceSkips checks the per-partition directory fences: a
// declared scan over a table no partition holds keys for must be answered
// entirely by fence exclusions — every CC worker skips its directory walk
// — and still return the empty result.
func TestRangeFenceSkips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CCWorkers = 2
	cfg.ExecWorkers = 2
	cfg.Capacity = 1 << 10
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for id := uint64(0); id < 32; id++ {
		if err := e.Load(key(id), txn.NewValue(8, id)); err != nil {
			t.Fatal(err)
		}
	}

	scan := func(r txn.KeyRange) int {
		rows := 0
		res := e.ExecuteBatch([]txn.Txn{&txn.Proc{
			Ranges: []txn.KeyRange{r},
			Body: func(c txn.Ctx) error {
				return c.ReadRange(r, func(txn.Key, []byte) error { rows++; return nil })
			},
		}})
		if res[0] != nil {
			t.Fatalf("scan: %v", res[0])
		}
		return rows
	}

	// Table 9 holds nothing: both partitions' fences exclude the range.
	before := e.Stats().RangeFenceSkips
	if rows := scan(txn.KeyRange{Table: 9, Lo: 0, Hi: 1 << 40}); rows != 0 {
		t.Fatalf("scan of empty table returned %d rows", rows)
	}
	skips := e.Stats().RangeFenceSkips - before
	if skips != uint64(cfg.CCWorkers) {
		t.Fatalf("empty-table scan skipped %d partition walks, want %d", skips, cfg.CCWorkers)
	}

	// A populated range must not be fence-skipped, and must see its rows.
	before = e.Stats().RangeFenceSkips
	if rows := scan(txn.KeyRange{Table: 0, Lo: 0, Hi: 32}); rows != 32 {
		t.Fatalf("scan of loaded table returned %d rows, want 32", rows)
	}
	if d := e.Stats().RangeFenceSkips - before; d != 0 {
		t.Fatalf("populated scan was fence-skipped %d times", d)
	}
}
