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

// Tests for the index lifecycle: tombstone reaping under the execution
// watermark, directory/hash/chain reclamation, fence shrinking, the
// DisableReaping ablation, and the -race stress interleaving reaping with
// every concurrent reader the engine has.

func putTxn(id uint64, val uint64) txn.Txn {
	k := key(id)
	return &txn.Proc{
		Writes: []txn.Key{k},
		Body:   func(c txn.Ctx) error { return c.Write(k, txn.NewValue(8, val)) },
	}
}

func delTxn(id uint64) txn.Txn {
	k := key(id)
	return &txn.Proc{
		Writes: []txn.Key{k},
		Body:   func(c txn.Ctx) error { return c.Delete(k) },
	}
}

func scanRows(t *testing.T, e *Engine, r txn.KeyRange) map[uint64]uint64 {
	t.Helper()
	rows := map[uint64]uint64{}
	res := e.ExecuteBatch([]txn.Txn{&txn.Proc{
		Ranges: []txn.KeyRange{r},
		Body: func(c txn.Ctx) error {
			return c.ReadRange(r, func(k txn.Key, v []byte) error {
				if _, dup := rows[k.ID]; dup {
					return fmt.Errorf("scan visited key %d twice", k.ID)
				}
				rows[k.ID] = txn.U64(v)
				return nil
			})
		},
	}})
	if res[0] != nil {
		t.Fatalf("scan: %v", res[0])
	}
	return rows
}

// reapConvergence loads total keys into e, deletes all but the ids
// divisible by 8, then ticks single-transaction batches until the
// directory and chain counts converge to the live set, returning how
// many ticks that took.
func reapConvergence(t *testing.T, e *Engine, total uint64) int {
	t.Helper()
	for id := uint64(0); id < total; id++ {
		if err := e.Load(key(id), txn.NewValue(8, id+1)); err != nil {
			t.Fatal(err)
		}
	}
	var dels []txn.Txn
	for id := uint64(0); id < total; id++ {
		if id%8 != 0 {
			dels = append(dels, delTxn(id))
		}
	}
	for i := 0; i < len(dels); i += 256 {
		end := i + 256
		if end > len(dels) {
			end = len(dels)
		}
		for j, err := range e.ExecuteBatch(dels[i:end]) {
			if err != nil {
				t.Fatalf("delete %d: %v", i+j, err)
			}
		}
	}
	live := int(total / 8)

	// The reaper runs a bounded sweep per batch; tick batches until the
	// index converges to the live set, bounded by a generous deadline.
	deadline := time.Now().Add(30 * time.Second)
	ticks := 0
	for e.DirectoryEntries() != live || e.ResidentChains() != live {
		if time.Now().After(deadline) {
			t.Fatalf("index did not converge: %d directory entries, %d chains, want %d (reaped %d)",
				e.DirectoryEntries(), e.ResidentChains(), live, e.Stats().KeysReaped)
		}
		if res := e.ExecuteBatch([]txn.Txn{putTxn(0, 1)}); res[0] != nil {
			t.Fatal(res[0])
		}
		ticks++
	}
	return ticks
}

// TestReapingConvergence is the lifecycle's core property: after heavy
// deletion, the directory entry count and the resident chain count
// converge to the live working set instead of growing monotonically, the
// reclamation counters account for it, scans and reads stay exact, and
// reaped keys can be re-created. The adaptive sweep budget must also
// converge in fewer ticks than the fixed-budget ablation: the mass
// delete drives its tombstone hit rate up and the budget doubles.
func TestReapingConvergence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CCWorkers = 2
	cfg.ExecWorkers = 2
	cfg.BatchSize = 32
	cfg.Capacity = 1 << 13
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const total = 2048
	const live = total / 8
	adaptiveTicks := reapConvergence(t, e, total)
	st := e.Stats()
	if st.KeysReaped < total-live {
		t.Errorf("KeysReaped = %d, want >= %d", st.KeysReaped, total-live)
	}
	if st.DirBytesReclaimed == 0 {
		t.Error("DirBytesReclaimed = 0 after reaping")
	}

	// Scans (pipeline and fast path) see exactly the live keys.
	full := txn.KeyRange{Table: 0, Lo: 0, Hi: total}
	rows := scanRows(t, e, full)
	if len(rows) != live {
		t.Fatalf("pipeline scan saw %d rows, want %d", len(rows), live)
	}
	for id, v := range rows {
		if id%8 != 0 {
			t.Fatalf("scan resurrected deleted key %d", id)
		}
		if id != 0 && v != id+1 {
			t.Fatalf("key %d = %d, want %d", id, v, id+1)
		}
	}
	res := e.ExecuteReadOnly([]txn.Txn{&txn.Proc{
		Ranges: []txn.KeyRange{full},
		Body: func(c txn.Ctx) error {
			n := 0
			err := c.ReadRange(full, func(k txn.Key, _ []byte) error {
				if k.ID%8 != 0 {
					return fmt.Errorf("fast-path scan resurrected key %d", k.ID)
				}
				n++
				return nil
			})
			if err != nil {
				return err
			}
			if n != live {
				return fmt.Errorf("fast-path scan saw %d rows, want %d", n, live)
			}
			return nil
		},
	}})
	if res[0] != nil {
		t.Fatal(res[0])
	}
	// Point reads of reaped keys are clean not-founds, inline API included.
	if _, err := readVal(t, e, 3); err != txn.ErrNotFound {
		t.Fatalf("read of reaped key = %v, want ErrNotFound", err)
	}
	if _, err := e.Read(key(3), nil); err != txn.ErrNotFound {
		t.Fatalf("inline read of reaped key = %v, want ErrNotFound", err)
	}

	// Reaped keys can be re-created and become scannable again.
	if r := e.ExecuteBatch([]txn.Txn{putTxn(3, 333)}); r[0] != nil {
		t.Fatal(r[0])
	}
	if v, err := readVal(t, e, 3); err != nil || v != 333 {
		t.Fatalf("re-created key = %d/%v, want 333", v, err)
	}
	if rows := scanRows(t, e, full); len(rows) != live+1 {
		t.Fatalf("scan after re-create saw %d rows, want %d", len(rows), live+1)
	}

	t.Logf("adaptive convergence ticks: %d", adaptiveTicks)
}

// TestAdaptiveReapConvergesFaster pits the adaptive sweep budget against
// the DisableAdaptiveReap fixed budget on a workload built to expose the
// difference: a mass delete compacted into few large batches, so almost
// all tombstones are still unswept when ticking starts and convergence
// speed is governed by the sweep budget alone. The adaptive budget's
// hit-rate doubling must finish in strictly fewer ticks — asserted at
// half the fixed count, a generous margin against scheduling noise.
func TestAdaptiveReapConvergesFaster(t *testing.T) {
	run := func(disableAdaptive bool) int {
		cfg := DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 2
		cfg.BatchSize = 1024 // compact delete phase: few in-flight sweeps
		cfg.Capacity = 1 << 14
		cfg.ablate.DisableAdaptiveReap = disableAdaptive
		// Convergence must be governed by the sweep budget alone: idle
		// ticks would reap for both arms while the loop sleeps and wash
		// out the comparison.
		cfg.ablate.DisableIdleReap = true
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		return reapConvergence(t, e, 8192)
	}
	adaptive := run(false)
	fixed := run(true)
	t.Logf("convergence ticks: adaptive=%d fixed=%d", adaptive, fixed)
	if 2*adaptive > fixed {
		t.Errorf("adaptive reap converged in %d ticks vs fixed %d; want at most half", adaptive, fixed)
	}
}

// TestReapingFenceSkips checks the sharded fences' lifecycle dividend: a
// scan over a fully reaped region is answered by fence exclusion alone.
func TestReapingFenceSkips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CCWorkers = 2
	cfg.ExecWorkers = 2
	cfg.BatchSize = 32
	cfg.Capacity = 1 << 12
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Two clusters; the lower one dies entirely.
	const n = 512
	for id := uint64(0); id < n; id++ {
		if err := e.Load(key(id), txn.NewValue(8, 1)); err != nil {
			t.Fatal(err)
		}
		if err := e.Load(key(1<<20+id), txn.NewValue(8, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var dels []txn.Txn
	for id := uint64(0); id < n; id++ {
		dels = append(dels, delTxn(id))
	}
	e.ExecuteBatch(dels)
	deadline := time.Now().Add(30 * time.Second)
	for e.DirectoryEntries() != n {
		if time.Now().After(deadline) {
			t.Fatalf("reap did not converge: %d entries", e.DirectoryEntries())
		}
		e.ExecuteBatch([]txn.Txn{putTxn(1<<20, 1)})
	}
	low := txn.KeyRange{Table: 0, Lo: 0, Hi: n}
	before := e.Stats().RangeFenceSkips
	if rows := scanRows(t, e, low); len(rows) != 0 {
		t.Fatalf("scan of reaped region saw %d rows", len(rows))
	}
	if skips := e.Stats().RangeFenceSkips - before; skips != uint64(cfg.CCWorkers) {
		t.Fatalf("reaped-region scan skipped %d walks, want %d", skips, cfg.CCWorkers)
	}
}

// TestDisableReapingIdenticalResults runs a deterministic mixed workload
// (increments, deletes, aborts, declared scans) against a reaping and a
// non-reaping engine and requires per-transaction outcomes, scan
// observations and final states to match exactly: the lifecycle must be
// invisible except in memory shape.
func TestDisableReapingIdenticalResults(t *testing.T) {
	run := func(disable bool) ([]string, map[txn.Key]uint64) {
		reg := durRegistry()
		cfg := DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 2
		cfg.BatchSize = 64
		cfg.Capacity = 1 << 12
		cfg.ablate.DisableReaping = disable
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		loadInitial(t, e)
		var outcomes []string
		full := txn.KeyRange{Table: 0, Lo: 0, Hi: mutKeys + 64}
		for i := 0; i < 60; i++ {
			for _, err := range e.ExecuteBatch(workloadBatch(t, reg, i)) {
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

	onRes, onState := run(false)
	offRes, offState := run(true)
	if len(onRes) != len(offRes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(onRes), len(offRes))
	}
	for i := range onRes {
		if onRes[i] != offRes[i] {
			t.Fatalf("step %d: reaping %q vs DisableReaping %q", i, onRes[i], offRes[i])
		}
	}
	sameState(t, "reaping vs DisableReaping", onState, offState)
}

// reapStress builds the reap stress workload's procedures: conserved-sum
// transfers and invariant scans on the account table, plus insert/delete
// churn and value-checked scans on a side table the reaper constantly
// reclaims behind the readers.
const (
	reapProc       = "reap.op"
	reapKeys       = 48
	reapTotal      = uint64(reapKeys) * 100
	reapOpMove     = 0
	reapOpScan     = 1
	reapOpChurnIns = 2
	reapOpChurnDel = 3
	reapOpChurnScn = 4
	churnTable     = 2
	churnSpan      = 4096
)

func reapStressRegistry() *txn.Registry {
	reg := txn.NewRegistry()
	accounts := txn.KeyRange{Table: 0, Lo: 0, Hi: reapKeys}
	churn := txn.KeyRange{Table: churnTable, Lo: 0, Hi: churnSpan}
	reg.Register(reapProc, func(args []byte) (txn.Txn, error) {
		if len(args) != 17 {
			return nil, fmt.Errorf("bad reap stress args: %d bytes", len(args))
		}
		a := binary.LittleEndian.Uint64(args)
		b := binary.LittleEndian.Uint64(args[8:])
		switch args[16] {
		case reapOpScan:
			return &txn.Proc{
				Ranges: []txn.KeyRange{accounts},
				Body: func(c txn.Ctx) error {
					sum, rows := uint64(0), 0
					err := c.ReadRange(accounts, func(_ txn.Key, v []byte) error {
						sum += txn.U64(v)
						rows++
						return nil
					})
					if err != nil {
						return err
					}
					if rows != reapKeys || sum != reapTotal {
						return fmt.Errorf("scan saw %d rows summing %d, want %d/%d", rows, sum, reapKeys, reapTotal)
					}
					return nil
				},
			}, nil
		case reapOpChurnIns:
			k := txn.Key{Table: churnTable, ID: a % churnSpan}
			return &txn.Proc{
				Writes: []txn.Key{k},
				Body:   func(c txn.Ctx) error { return c.Write(k, txn.NewValue(8, k.ID*31+7)) },
			}, nil
		case reapOpChurnDel:
			k := txn.Key{Table: churnTable, ID: a % churnSpan}
			return &txn.Proc{
				Writes: []txn.Key{k},
				Body:   func(c txn.Ctx) error { return c.Delete(k) },
			}, nil
		case reapOpChurnScn:
			// Presence is racy under churn, but any visited row's value
			// must match its key derivation — recycled or torn memory
			// cannot.
			return &txn.Proc{
				Ranges: []txn.KeyRange{churn},
				Body: func(c txn.Ctx) error {
					return c.ReadRange(churn, func(k txn.Key, v []byte) error {
						if txn.U64(v) != k.ID*31+7 {
							return fmt.Errorf("churn row %d = %d, want %d", k.ID, txn.U64(v), k.ID*31+7)
						}
						return nil
					})
				},
			}, nil
		default:
			ka, kb := key(a%reapKeys), key(b%reapKeys)
			if ka == kb {
				kb = key((b + 1) % reapKeys)
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
					if err := c.Write(ka, txn.NewValue(8, txn.U64(va)-1)); err != nil {
						return err
					}
					return c.Write(kb, txn.NewValue(8, txn.U64(vb)+1))
				},
			}, nil
		}
	})
	return reg
}

func reapCall(t testing.TB, reg *txn.Registry, a, b uint64, op byte) txn.Txn {
	t.Helper()
	args := make([]byte, 17)
	binary.LittleEndian.PutUint64(args, a)
	binary.LittleEndian.PutUint64(args[8:], b)
	args[16] = op
	return reg.MustCall(reapProc, args)
}

// TestReapingStress interleaves reaping with every concurrent reader the
// engine has: pipeline scans, fast-path snapshot scans (read-only
// submissions are diverted), inline reads, chain GC, version pooling and
// background checkpointing, over a side table under constant insert/
// delete churn so the reaper unlinks directory entries and recycles
// chains behind all of them. Conserved sums and value-checked churn rows
// catch any reuse a live reader could still observe; CI runs this under
// -race.
func TestReapingStress(t *testing.T) {
	reg := reapStressRegistry()
	cfg := DefaultConfig()
	cfg.CCWorkers = 2
	cfg.ExecWorkers = 3
	cfg.BatchSize = 16
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
	for id := uint64(0); id < reapKeys; id++ {
		if err := e.Load(key(id), txn.NewValue(8, 100)); err != nil {
			t.Fatal(err)
		}
	}

	const (
		streams = 4
		rounds  = 120
		perSub  = 20
	)
	var wg sync.WaitGroup
	errCh := make(chan error, 2*streams)
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
			churnID := seed * 1000
			for r := 0; r < rounds; r++ {
				ts := make([]txn.Txn, perSub)
				for i := range ts {
					switch next() % 8 {
					case 0:
						ts[i] = reapCall(t, reg, next(), next(), reapOpScan)
					case 1:
						ts[i] = reapCall(t, reg, next(), next(), reapOpChurnScn)
					case 2, 3:
						// Insert then (a few slots later) delete the same
						// id: the side table churns, feeding the reaper.
						churnID++
						ts[i] = reapCall(t, reg, churnID, 0, reapOpChurnIns)
					case 4:
						ts[i] = reapCall(t, reg, churnID, 0, reapOpChurnDel)
					default:
						ts[i] = reapCall(t, reg, next(), next(), reapOpMove)
					}
				}
				for i, err := range e.ExecuteBatch(ts) {
					if err != nil {
						errCh <- fmt.Errorf("stream %d round %d txn %d: %w", seed, r, i, err)
						return
					}
				}
				// Fast-path reads between submissions: a read-only batch
				// (diverted) plus an inline point read.
				if r%7 == int(seed)%7 {
					ro := e.ExecuteReadOnly([]txn.Txn{reapCall(t, reg, next(), next(), reapOpScan)})
					if ro[0] != nil {
						errCh <- fmt.Errorf("stream %d round %d readonly scan: %w", seed, r, ro[0])
						return
					}
					if _, err := e.Read(key(next()%reapKeys), nil); err != nil {
						errCh <- fmt.Errorf("stream %d round %d inline read: %w", seed, r, err)
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

	// Keep the pipeline ticking until reaping has provably engaged (the
	// checkpointer must advance the GC pin first), then verify the final
	// invariant from outside.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := e.Stats()
		if st.KeysReaped > 0 && st.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaping did not engage: reaped=%d checkpoints=%d", st.KeysReaped, st.Checkpoints)
		}
		if res := e.ExecuteBatch([]txn.Txn{reapCall(t, reg, 1, 2, reapOpMove)}); res[0] != nil {
			t.Fatal(res[0])
		}
	}
	sum := uint64(0)
	for k, v := range dumpState(e) {
		if k.Table == 0 {
			sum += v
		}
	}
	if sum != reapTotal {
		t.Errorf("final account sum = %d, want %d", sum, reapTotal)
	}
}
