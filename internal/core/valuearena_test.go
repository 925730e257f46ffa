package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bohm/internal/txn"
	"bohm/internal/wal"
)

// Tests for the payload value arena and the idle reclamation tick: the
// DisableValueArena ablation must be invisible except in the allocation
// profile, slab recycling must never hand live payload bytes to a new
// writer (the -race stress test), and a quiescent engine must keep
// reclaiming — and stay recoverable — on idle ticks alone.

// arenaRegistry builds the arena stress workload: conserved-sum transfers
// whose values live in arena slabs, serializable scans that verify the
// invariant, oversize writes that take the heap-fallback path, deletes
// that feed the reaper, and aborts that resolve placeholders by
// copy-forward (a slab reference bump, not a byte copy).
const (
	arenaProc    = "varena.op"
	arenaKeys    = 64
	arenaTotal   = uint64(arenaKeys) * 100
	arenaBigIDs  = 32
	arenaBigSize = 9000 // above the arena's 8 KiB oversize cutoff

	arenaOpMove  = 0
	arenaOpScan  = 1
	arenaOpBig   = 2
	arenaOpDrop  = 3
	arenaOpAbort = 4
)

func arenaRegistry() *txn.Registry {
	reg := txn.NewRegistry()
	accounts := txn.KeyRange{Table: 0, Lo: 0, Hi: arenaKeys}
	reg.Register(arenaProc, func(args []byte) (txn.Txn, error) {
		if len(args) != 17 {
			return nil, fmt.Errorf("bad arena args: %d bytes", len(args))
		}
		a := binary.LittleEndian.Uint64(args)
		b := binary.LittleEndian.Uint64(args[8:])
		switch args[16] {
		case arenaOpScan:
			// A serializable scan over the transfer table: a payload handed
			// to a new writer while still visible here shows up as a torn
			// sum (or a race report, which is the mode CI runs under).
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
					if rows != arenaKeys || sum != arenaTotal {
						return fmt.Errorf("scan saw %d rows summing %d, want %d/%d", rows, sum, arenaKeys, arenaTotal)
					}
					return nil
				},
			}, nil
		case arenaOpBig:
			// Oversize write into the churn table: heap fallback, no slab.
			k := txn.Key{Table: 2, ID: a % arenaBigIDs}
			return &txn.Proc{
				Writes: []txn.Key{k},
				Body:   func(c txn.Ctx) error { return c.Write(k, txn.NewValue(arenaBigSize, a^b)) },
			}, nil
		case arenaOpDrop:
			// Churn-table delete: feeds the reaper, which must not free a
			// payload still visible to a concurrent scan or inline Read.
			k := txn.Key{Table: 2, ID: a % arenaBigIDs}
			return &txn.Proc{
				Writes: []txn.Key{k},
				Body:   func(c txn.Ctx) error { return c.Delete(k) },
			}, nil
		case arenaOpAbort:
			// Declared write that aborts: the placeholder resolves by
			// copy-forward, adopting the previous version's slab payload.
			ka := key(a % arenaKeys)
			return &txn.Proc{
				Reads:  []txn.Key{ka},
				Writes: []txn.Key{ka},
				Body:   func(c txn.Ctx) error { return txn.ErrAbort },
			}, nil
		default:
			// Conserved-sum transfer. The bodies reuse per-instance scratch
			// buffers through txn.IncrementedInto — the caller-buffer-reuse
			// contract the arena's copy-at-install is supposed to license —
			// so any engine retention of the staged slice corrupts the sum.
			ka, kb := key(a%arenaKeys), key(b%arenaKeys)
			if ka == kb {
				kb = key((b + 1) % arenaKeys)
			}
			var sa, sb []byte
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
					sa = txn.IncrementedInto(sa, va, ^uint64(0)) // -1
					sb = txn.IncrementedInto(sb, vb, 1)
					if err := c.Write(ka, sa); err != nil {
						return err
					}
					return c.Write(kb, sb)
				},
			}, nil
		}
	})
	return reg
}

func arenaCall(t testing.TB, reg *txn.Registry, a, b uint64, op byte) txn.Txn {
	t.Helper()
	args := make([]byte, 17)
	binary.LittleEndian.PutUint64(args, a)
	binary.LittleEndian.PutUint64(args[8:], b)
	args[16] = op
	return reg.MustCall(arenaProc, args)
}

// TestValueArenaStress hammers payload-slab recycling: concurrent
// submitter streams mix scratch-reusing transfers, serializable scans,
// oversize writes, churn-table deletes (reaping) and aborts (copy-forward)
// over a small batch size with GC and periodic checkpointing on, while a
// separate goroutine performs inline snapshot Reads against the same
// chains. A slab freed while any of those readers could still reach a
// payload carved from it breaks a conserved sum, a length invariant — or
// trips the race detector, which is the mode CI runs this under.
func TestValueArenaStress(t *testing.T) {
	reg := arenaRegistry()
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
	for id := uint64(0); id < arenaKeys; id++ {
		if err := e.Load(key(id), txn.NewValue(16, 100)); err != nil {
			t.Fatal(err)
		}
	}

	// Inline reader: epoch-pinned point reads race the CC-side releases
	// directly. Account records always exist; churn-table records are
	// either a full oversize record or absent, never anything else.
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var buf []byte
		x := uint64(0x9e3779b97f4a7c15)
		for {
			select {
			case <-stop:
				return
			default:
			}
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if x&1 == 0 {
				v, err := e.Read(key(x%arenaKeys), buf)
				if err != nil {
					t.Errorf("inline read of account: %v", err)
					return
				}
				if len(v) < 8 {
					t.Errorf("inline read returned %d bytes", len(v))
					return
				}
				buf = v
			} else {
				v, err := e.Read(txn.Key{Table: 2, ID: x % arenaBigIDs}, buf)
				if err != nil && err != txn.ErrNotFound {
					t.Errorf("inline read of churn key: %v", err)
					return
				}
				if err == nil {
					if len(v) != arenaBigSize {
						t.Errorf("churn record has %d bytes, want %d", len(v), arenaBigSize)
						return
					}
					buf = v
				}
			}
		}
	}()

	const (
		streams = 4
		rounds  = 120
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
					switch next() % 8 {
					case 0:
						ts[i] = arenaCall(t, reg, next(), next(), arenaOpScan)
					case 1:
						ts[i] = arenaCall(t, reg, next(), next(), arenaOpBig)
					case 2:
						ts[i] = arenaCall(t, reg, next(), next(), arenaOpDrop)
					case 3:
						ts[i] = arenaCall(t, reg, next(), next(), arenaOpAbort)
					default:
						ts[i] = arenaCall(t, reg, next(), next(), arenaOpMove)
					}
				}
				for i, err := range e.ExecuteBatch(ts) {
					if err != nil && !errors.Is(err, txn.ErrAbort) {
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

	// Drive single-transaction batches until every arena mechanism has
	// provably engaged: a full slab drained back to the free list, dead
	// churn keys reaped, and checkpoints written over arena-held payloads.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := e.Stats()
		if st.ValueSlabsRecycled > 0 && st.KeysReaped > 0 && st.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("arena machinery did not engage: slabs=%d reaped=%d checkpoints=%d",
				st.ValueSlabsRecycled, st.KeysReaped, st.Checkpoints)
		}
		if res := e.ExecuteBatch([]txn.Txn{arenaCall(t, reg, 1, 2, arenaOpMove)}); res[0] != nil {
			t.Fatal(res[0])
		}
	}
	close(stop)
	readerWG.Wait()

	if st := e.Stats(); st.UserAborts == 0 {
		t.Error("no aborts ran: the copy-forward path was not exercised")
	}
	// Final consistency check from outside the pipeline.
	sum := uint64(0)
	for k, v := range dumpState(e) {
		if k.Table == 0 {
			sum += v
		}
	}
	if sum != arenaTotal {
		t.Errorf("final account sum = %d, want %d", sum, arenaTotal)
	}
}

// TestDisableValueArenaIdenticalResults runs the durability suite's
// deterministic mixed workload against an arena-backed and an
// arena-disabled engine and requires per-transaction outcomes and final
// states to match exactly: where payload bytes live must be invisible
// except in the allocation profile.
func TestDisableValueArenaIdenticalResults(t *testing.T) {
	run := func(disable bool) ([]string, map[txn.Key]uint64) {
		reg := durRegistry()
		cfg := DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 2
		cfg.BatchSize = 64
		cfg.Capacity = 1 << 12
		cfg.ablate.DisableValueArena = disable
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

	arenaRes, arenaState := run(false)
	plainRes, plainState := run(true)
	if len(arenaRes) != len(plainRes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(arenaRes), len(plainRes))
	}
	for i := range arenaRes {
		if arenaRes[i] != plainRes[i] {
			t.Fatalf("txn %d: arena %q vs DisableValueArena %q", i, arenaRes[i], plainRes[i])
		}
	}
	sameState(t, "arena vs DisableValueArena", arenaState, plainState)
}

// TestIdleReapDrain checks the idle reclamation tick end to end: a block
// of keys is inserted and tombstoned, submissions stop, and the directory
// must still drain to empty — the ticker's empty batches are the only
// thing advancing the watermark and running reap sweeps. The ablation arm
// checks the knob: with DisableIdleReap no tick ever fires and a quiescent
// engine's directory stops changing.
func TestIdleReapDrain(t *testing.T) {
	const side = 96
	build := func(disable bool) *Engine {
		cfg := DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 2
		cfg.BatchSize = 128 // both submissions land as single batches
		cfg.Capacity = 1 << 12
		cfg.GC = true
		cfg.ablate.DisableIdleReap = disable
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		puts := make([]txn.Txn, side)
		dels := make([]txn.Txn, side)
		for i := range puts {
			k := txn.Key{Table: 1, ID: uint64(i)}
			puts[i] = &txn.Proc{
				Writes: []txn.Key{k},
				Body:   func(c txn.Ctx) error { return c.Write(k, txn.NewValue(16, 1)) },
			}
			dels[i] = &txn.Proc{
				Writes: []txn.Key{k},
				Body:   func(c txn.Ctx) error { return c.Delete(k) },
			}
		}
		for _, res := range [][]error{e.ExecuteBatch(puts), e.ExecuteBatch(dels)} {
			for _, err := range res {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		return e
	}

	e := build(false)
	defer e.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := e.Stats()
		if e.DirectoryEntries() == 0 && st.IdleTicks > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle reap did not drain: %d entries, %d ticks", e.DirectoryEntries(), st.IdleTicks)
		}
		time.Sleep(time.Millisecond)
	}
	if reaped := e.Stats().KeysReaped; reaped < side {
		t.Errorf("reaped %d keys, want at least %d", reaped, side)
	}

	d := build(true)
	defer d.Close()
	// Give any in-flight lifecycle work time to settle, then require a
	// quiescent engine to be genuinely inert: no ticks, nothing moving.
	time.Sleep(100 * time.Millisecond)
	entries := d.DirectoryEntries()
	time.Sleep(200 * time.Millisecond)
	if got := d.DirectoryEntries(); got != entries {
		t.Errorf("disabled idle reap still reclaiming: %d entries then %d", entries, got)
	}
	if ticks := d.Stats().IdleTicks; ticks != 0 {
		t.Errorf("DisableIdleReap engine recorded %d idle ticks", ticks)
	}
}

// TestIdleTicksQuietUnderLoad checks that the idle ticker stays out of a
// busy engine's way: two submitters alternating small calls with short
// pauses leave the pipeline caught up between batches many times a
// millisecond, but never quiet for a whole tick window, so empty batches
// must stay a sliver of the batch stream.
func TestIdleTicksQuietUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Capacity = 1 << 12
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 1024; i++ {
		if err := e.Load(txn.Key{Table: 1, ID: uint64(i)}, txn.NewValue(16, 0)); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	stop := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				k := txn.Key{Table: 1, ID: uint64((i*2 + w) % 1024)}
				put := &txn.Proc{
					Writes: []txn.Key{k},
					Body:   func(c txn.Ctx) error { return c.Write(k, txn.NewValue(16, uint64(i))) },
				}
				if err := e.ExecuteBatch([]txn.Txn{put})[0]; err != nil {
					t.Error(err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	after := e.Stats()
	batches, ticks := after.Batches-before.Batches, after.IdleTicks-before.IdleTicks
	if batches == 0 || ticks*50 > batches {
		t.Fatalf("%d idle ticks in %d batches under load, want at most 2%%", ticks, batches)
	}
	t.Logf("%d idle ticks in %d batches", ticks, batches)
}

// TestIdleTicksDurableRecovery checks that the ticker's empty batches are
// sound in the command log: they append (and sync) as zero-transaction
// records, and recovery replays them as no-ops — twice, so the second
// epoch's log also starts above a tick tail.
func TestIdleTicksDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := durRegistry()
	e, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	loadInitial(t, e)
	if err := e.CheckpointNow(); err != nil {
		t.Fatalf("sealing loads: %v", err)
	}

	// waitTicks blocks until the idle ticker has appended at least one
	// empty batch past base — all log growth after the last ExecuteBatch
	// returned is ticks.
	waitTicks := func(e *Engine, label string, base uint64) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := e.Stats()
			if st.IdleTicks > 0 && st.LogBatches > base {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: no logged idle ticks (ticks=%d, log %d -> %d)", label, st.IdleTicks, base, st.LogBatches)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for i := 0; i < 6; i++ {
		e.ExecuteBatch(workloadBatch(t, reg, i))
	}
	base := e.Stats().LogBatches
	want := dumpState(e)
	waitTicks(e, "first epoch", base)
	e.Kill()

	r, err := Recover(durableConfig(dir), reg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	sameState(t, "recovered past idle ticks", dumpState(r), want)

	// The recovered engine keeps working, keeps ticking, and recovers
	// again with the new tick tail in its log.
	r.ExecuteBatch(workloadBatch(t, reg, 100))
	base = r.Stats().LogBatches
	after := dumpState(r)
	waitTicks(r, "second epoch", base)
	r.Kill()

	r2, err := Recover(durableConfig(dir), reg)
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	defer r2.Close()
	sameState(t, "re-recovered", dumpState(r2), after)
}
