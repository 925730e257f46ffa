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

// Tests for the read-only fast path: serializable snapshot reads that
// bypass the sequencer → CC → execution pipeline. The stress test is the
// load-bearing one — run under -race it checks that snapshot readers never
// observe a GC-cut or pool-recycled version while chains churn underneath
// them.

// roSum builds a read-only transaction summing the counters of ks through
// point reads, recording the observed sum and row count.
func roSum(ks []txn.Key, sum *uint64, rows *int) txn.Txn {
	return &txn.Proc{
		Reads: ks,
		Body: func(c txn.Ctx) error {
			var s uint64
			n := 0
			for _, k := range ks {
				v, err := c.Read(k)
				if errors.Is(err, txn.ErrNotFound) {
					continue
				}
				if err != nil {
					return err
				}
				s += txn.U64(v)
				n++
			}
			*sum, *rows = s, n
			return nil
		},
	}
}

// roScan builds a read-only transaction scanning r, recording sum and rows.
func roScan(r txn.KeyRange, sum *uint64, rows *int) txn.Txn {
	return &txn.Proc{
		Ranges: []txn.KeyRange{r},
		Body: func(c txn.Ctx) error {
			var s uint64
			n := 0
			err := c.ReadRange(r, func(_ txn.Key, v []byte) error {
				s += txn.U64(v)
				n++
				return nil
			})
			*sum, *rows = s, n
			return err
		},
	}
}

// TestFastPathServesReadOnly: read-only transactions take the fast path
// (counted by Stats.ReadOnlyFastPath), observe acknowledged writes, and
// commit like any other transaction.
func TestFastPathServesReadOnly(t *testing.T) {
	e := newTestEngine(t, DefaultConfig(), 4)
	for i := 0; i < 3; i++ {
		for _, err := range e.ExecuteBatch([]txn.Txn{incTxn(0), incTxn(1)}) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var sum uint64
	var rows int
	res := e.ExecuteBatch([]txn.Txn{roSum([]txn.Key{key(0), key(1), key(2)}, &sum, &rows)})
	if res[0] != nil {
		t.Fatal(res[0])
	}
	if sum != 6 || rows != 3 {
		t.Fatalf("fast-path sum = %d over %d rows, want 6 over 3", sum, rows)
	}
	var ssum uint64
	var srows int
	res = e.ExecuteReadOnly([]txn.Txn{roScan(txn.KeyRange{Table: 0, Lo: 0, Hi: 10}, &ssum, &srows)})
	if res[0] != nil {
		t.Fatal(res[0])
	}
	if ssum != 6 || srows != 4 {
		t.Fatalf("fast-path scan = %d over %d rows, want 6 over 4", ssum, srows)
	}
	s := e.Stats()
	if s.ReadOnlyFastPath != 2 {
		t.Errorf("ReadOnlyFastPath = %d, want 2", s.ReadOnlyFastPath)
	}
	if s.Committed < 8 {
		t.Errorf("Committed = %d, want >= 8 (fast-path commits counted)", s.Committed)
	}
}

// TestFastPathRecency: a fast-path read submitted after ExecuteBatch
// acknowledged a write must observe it — the recency gate holds the
// snapshot at or above every previously acknowledged batch. Exercised
// under churn (small batches, GC) through both ExecuteBatch and the
// inline Read API.
func TestFastPathRecency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 4
	cfg.CCWorkers = 2
	cfg.ExecWorkers = 2
	e := newTestEngine(t, cfg, 1)
	var buf []byte
	for i := uint64(1); i <= 300; i++ {
		if res := e.ExecuteBatch([]txn.Txn{incTxn(0)}); res[0] != nil {
			t.Fatal(res[0])
		}
		var sum uint64
		var rows int
		if res := e.ExecuteBatch([]txn.Txn{roSum([]txn.Key{key(0)}, &sum, &rows)}); res[0] != nil {
			t.Fatal(res[0])
		}
		if sum != i {
			t.Fatalf("round %d: fast-path read observed %d, want %d (missed an acknowledged write)", i, sum, i)
		}
		v, err := e.Read(key(0), buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := txn.U64(v); got != i {
			t.Fatalf("round %d: inline Read observed %d, want %d", i, got, i)
		}
		buf = v[:0]
	}
}

// TestReadAPI covers the inline point-read convenience: hits, misses,
// tombstones, buffer reuse, and the pipeline fallback under the ablation.
func TestReadAPI(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("disableFastPath=%v", disable), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.DisableReadOnlyFastPath = disable
			e := newTestEngine(t, cfg, 2)
			if res := e.ExecuteBatch([]txn.Txn{incTxn(0)}); res[0] != nil {
				t.Fatal(res[0])
			}
			buf := make([]byte, 0, 64)
			v, err := e.Read(key(0), buf)
			if err != nil {
				t.Fatal(err)
			}
			if txn.U64(v) != 1 {
				t.Fatalf("Read = %d, want 1", txn.U64(v))
			}
			if _, err := e.Read(key(99), nil); !errors.Is(err, txn.ErrNotFound) {
				t.Fatalf("missing key: %v, want ErrNotFound", err)
			}
			del := &txn.Proc{Writes: []txn.Key{key(1)}, Body: func(c txn.Ctx) error { return c.Delete(key(1)) }}
			if res := e.ExecuteBatch([]txn.Txn{del}); res[0] != nil {
				t.Fatal(res[0])
			}
			if _, err := e.Read(key(1), nil); !errors.Is(err, txn.ErrNotFound) {
				t.Fatalf("deleted key: %v, want ErrNotFound", err)
			}
		})
	}
}

// TestReadAPIDurableAblation: the inline Read works on a durable engine
// even under DisableReadOnlyFastPath — it serves from the snapshot
// directly and never needs a Loggable wrapper.
func TestReadAPIDurableAblation(t *testing.T) {
	reg := durRegistry()
	cfg := durableConfig(t.TempDir())
	cfg.DisableReadOnlyFastPath = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if res := e.ExecuteBatch([]txn.Txn{mutCall(t, reg, 5, 7, opIncrement)}); res[0] != nil {
		t.Fatal(res[0])
	}
	v, err := e.Read(key(5), nil)
	if err != nil {
		t.Fatalf("Read on durable ablation engine: %v", err)
	}
	if got := txn.U64(v); got != 7 {
		t.Fatalf("Read = %d, want 7", got)
	}
}

// TestExecuteReadOnlyRejectsWriters: transactions declaring writes are
// refused with ErrNotReadOnly; the rest of the submission proceeds.
func TestExecuteReadOnlyRejectsWriters(t *testing.T) {
	e := newTestEngine(t, DefaultConfig(), 2)
	var sum uint64
	var rows int
	res := e.ExecuteReadOnly([]txn.Txn{
		roSum([]txn.Key{key(0)}, &sum, &rows),
		incTxn(0),
	})
	if res[0] != nil {
		t.Fatalf("read-only slot: %v", res[0])
	}
	if !errors.Is(res[1], ErrNotReadOnly) {
		t.Fatalf("writer slot: %v, want ErrNotReadOnly", res[1])
	}
	if got := readCounter(t, e, 0); got != 0 {
		t.Fatalf("refused writer ran: counter = %d", got)
	}
}

// TestFastPathWriteAttemptAborts: a "read-only" transaction that writes
// anyway aborts with the same access-set violation the pipeline reports.
func TestFastPathWriteAttemptAborts(t *testing.T) {
	e := newTestEngine(t, DefaultConfig(), 1)
	rogue := &txn.Proc{Body: func(c txn.Ctx) error {
		_ = c.Write(key(0), txn.NewValue(8, 9))
		return nil
	}}
	res := e.ExecuteBatch([]txn.Txn{rogue})
	if res[0] == nil || res[0].Error() != fmt.Sprintf("bohm: write to key %+v outside declared write-set", key(0)) {
		t.Fatalf("rogue write result: %v", res[0])
	}
	if got := readCounter(t, e, 0); got != 0 {
		t.Fatalf("rogue write landed: %d", got)
	}
}

// TestDisableReadOnlyFastPathIdenticalResults drives a deterministic
// single-stream workload — non-commutative writes, deletes, aborts, and
// read-only point reads and scans whose observations are captured — with
// the fast path on and off, and requires every per-transaction outcome,
// every read-only observation, and the final state to match exactly. For
// sequential submitters the fast path's watermark serialization point is
// observationally identical to pipeline serialization (the recency gate
// covers every acknowledged write and nothing else is in flight).
func TestDisableReadOnlyFastPathIdenticalResults(t *testing.T) {
	const nkeys = 32
	all := txn.KeyRange{Table: 0, Lo: 0, Hi: nkeys}
	run := func(disable bool) ([]string, map[txn.Key]uint64) {
		reg := durRegistry()
		cfg := DefaultConfig()
		cfg.CCWorkers = 2
		cfg.ExecWorkers = 2
		cfg.BatchSize = 16
		cfg.Capacity = 1 << 12
		cfg.DisableReadOnlyFastPath = disable
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := uint64(0); i < nkeys; i++ {
			if err := e.Load(key(i), txn.NewValue(16, i)); err != nil {
				t.Fatal(err)
			}
		}
		var log []string
		x := uint64(0x9e3779b97f4a7c15)
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		for round := 0; round < 60; round++ {
			// A writing call: non-commutative mutations pin the order.
			muts := make([]txn.Txn, 4)
			for i := range muts {
				op := opIncrement
				switch next() % 8 {
				case 0:
					op = opDelete
				case 1:
					op = opAbort
				}
				muts[i] = mutCall(t, reg, next()%nkeys, next()%1000, byte(op))
			}
			for i, err := range e.ExecuteBatch(muts) {
				log = append(log, fmt.Sprintf("r%d.w%d:%v", round, i, err))
			}
			// A read-only call: point sums and a full scan, observations
			// logged. Sequential submission makes these deterministic.
			var psum, ssum uint64
			var prows, srows int
			ks := []txn.Key{key(next() % nkeys), key(next() % nkeys), key(next() % nkeys)}
			res := e.ExecuteBatch([]txn.Txn{roSum(ks, &psum, &prows), roScan(all, &ssum, &srows)})
			log = append(log, fmt.Sprintf("r%d.reads:%v,%v:point=%d/%d:scan=%d/%d",
				round, res[0], res[1], psum, prows, ssum, srows))
			// The inline Read, same determinism argument.
			v, err := e.Read(key(next()%nkeys), nil)
			got := uint64(0)
			if err == nil {
				got = txn.U64(v)
			}
			log = append(log, fmt.Sprintf("r%d.read:%v:%d", round, err, got))
		}
		return log, dumpState(e)
	}
	logOn, stateOn := run(false)
	logOff, stateOff := run(true)
	if len(logOn) != len(logOff) {
		t.Fatalf("log lengths differ: %d vs %d", len(logOn), len(logOff))
	}
	for i := range logOn {
		if logOn[i] != logOff[i] {
			t.Fatalf("outcome %d differs:\n  fast path: %s\n  pipeline:  %s", i, logOn[i], logOff[i])
		}
	}
	if len(stateOn) != len(stateOff) {
		t.Fatalf("final states differ in size: %d vs %d", len(stateOn), len(stateOff))
	}
	for k, v := range stateOn {
		if ov, ok := stateOff[k]; !ok || ov != v {
			t.Fatalf("final state differs at %+v: %d vs %d (present=%v)", k, v, ov, ok)
		}
	}
}

// TestReadOnlyFastPathStress hammers snapshot readers against everything
// that reclaims or recycles memory: concurrent conserved-sum transfers
// (pipelined writes with GC cutting chains into the version pools),
// side-table inserts (directory churn), periodic checkpointing (GC pin
// movement), and small batches (fast retire churn). Readers check the
// conserved sum through fast-path point reads, fast-path scans, and the
// inline Read API; a snapshot that ever observes a recycled or cut
// version breaks the sum — or trips the race detector, which is how CI
// runs this.
func TestReadOnlyFastPathStress(t *testing.T) {
	const (
		accounts = 64
		total    = uint64(accounts) * 100
	)
	reg := txn.NewRegistry()
	reg.Register("xfer", func(args []byte) (txn.Txn, error) {
		a := binary.LittleEndian.Uint64(args) % accounts
		b := binary.LittleEndian.Uint64(args[8:]) % accounts
		if a == b {
			b = (b + 1) % accounts
		}
		ka, kb := key(a), key(b)
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
	})
	reg.Register("ins", func(args []byte) (txn.Txn, error) {
		k := txn.Key{Table: 1, ID: binary.LittleEndian.Uint64(args)}
		return &txn.Proc{
			Writes: []txn.Key{k},
			Body:   func(c txn.Ctx) error { return c.Write(k, txn.NewValue(8, k.ID)) },
		}, nil
	})
	call := func(proc string, a, b uint64) txn.Txn {
		args := make([]byte, 16)
		binary.LittleEndian.PutUint64(args, a)
		binary.LittleEndian.PutUint64(args[8:], b)
		return reg.MustCall(proc, args)
	}

	cfg := DefaultConfig()
	cfg.CCWorkers = 2
	cfg.ExecWorkers = 2
	cfg.ReadWorkers = 2
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
	for i := uint64(0); i < accounts; i++ {
		if err := e.Load(key(i), txn.NewValue(16, 100)); err != nil {
			t.Fatal(err)
		}
	}
	allAccounts := txn.KeyRange{Table: 0, Lo: 0, Hi: accounts}
	allKeys := make([]txn.Key, accounts)
	for i := range allKeys {
		allKeys[i] = key(uint64(i))
	}

	const (
		writeStreams = 2
		readStreams  = 2
		rounds       = 120
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writeStreams+readStreams)
	for s := 0; s < writeStreams; s++ {
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
				ts := make([]txn.Txn, 16)
				for i := range ts {
					if next()%4 == 0 {
						ts[i] = call("ins", seed<<32|uint64(r)<<8|uint64(i), 0)
					} else {
						ts[i] = call("xfer", next(), next())
					}
				}
				for i, err := range e.ExecuteBatch(ts) {
					if err != nil {
						errCh <- fmt.Errorf("write stream %d round %d txn %d: %w", seed, r, i, err)
						return
					}
				}
			}
		}(uint64(s))
	}
	for s := 0; s < readStreams; s++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var buf []byte
			for r := 0; r < rounds; r++ {
				var ssum, psum uint64
				var srows, prows int
				res := e.ExecuteReadOnly([]txn.Txn{
					roScan(allAccounts, &ssum, &srows),
					roSum(allKeys, &psum, &prows),
				})
				for i, err := range res {
					if err != nil {
						errCh <- fmt.Errorf("read stream %d round %d txn %d: %w", seed, r, i, err)
						return
					}
				}
				if srows != accounts || ssum != total {
					errCh <- fmt.Errorf("read stream %d round %d: scan saw %d rows summing %d, want %d/%d",
						seed, r, srows, ssum, accounts, total)
					return
				}
				if prows != accounts || psum != total {
					errCh <- fmt.Errorf("read stream %d round %d: point reads saw %d rows summing %d, want %d/%d",
						seed, r, prows, psum, accounts, total)
					return
				}
				v, err := e.Read(key(uint64(r)%accounts), buf)
				if err != nil {
					errCh <- fmt.Errorf("read stream %d round %d: inline Read: %w", seed, r, err)
					return
				}
				buf = v[:0]
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	s := e.Stats()
	if s.ReadOnlyFastPath == 0 {
		t.Error("ReadOnlyFastPath = 0; the fast path never engaged")
	}
	// GC only cuts once the checkpointer has advanced the pin, which a
	// loaded host can starve for the whole concurrent phase; keep the
	// pipeline ticking until collection provably engaged (same pattern as
	// the pooling stress test).
	deadline := time.Now().Add(30 * time.Second)
	for e.Stats().VersionsCollected == 0 {
		if time.Now().After(deadline) {
			t.Error("VersionsCollected = 0; GC never ran against the readers")
			break
		}
		if res := e.ExecuteBatch([]txn.Txn{call("xfer", 1, 2)}); res[0] != nil {
			t.Fatal(res[0])
		}
	}
	sum := uint64(0)
	for k, v := range dumpState(e) {
		if k.Table == 0 {
			sum += v
		}
	}
	if sum != total {
		t.Errorf("final account sum = %d, want %d", sum, total)
	}
}

// TestFastPathMixedWithDuplicateRejection locks the result-slot mapping
// when a single call combines a duplicate-write-set rejection, pipelined
// writers, and diverted read-only transactions.
func TestFastPathMixedWithDuplicateRejection(t *testing.T) {
	e := newTestEngine(t, DefaultConfig(), 4)
	if res := e.ExecuteBatch([]txn.Txn{incTxn(2)}); res[0] != nil {
		t.Fatal(res[0])
	}
	dup := &txn.Proc{Writes: []txn.Key{key(0), key(0)}, Body: func(c txn.Ctx) error { return nil }}
	var s1, s2 uint64
	var r1, r2 int
	res := e.ExecuteBatch([]txn.Txn{
		roSum([]txn.Key{key(2)}, &s1, &r1), // a reader ahead of the rejected slot
		dup,
		incTxn(1),
		roSum([]txn.Key{key(2)}, &s2, &r2),
	})
	if !errors.Is(res[1], ErrDuplicateWriteKey) {
		t.Fatalf("dup slot: %v", res[1])
	}
	for _, i := range []int{0, 2, 3} {
		if res[i] != nil {
			t.Fatalf("slot %d: %v", i, res[i])
		}
	}
	if s1 != 1 || s2 != 1 || r1 != 1 || r2 != 1 {
		t.Fatalf("reads observed %d/%d over %d/%d rows, want 1/1 over 1/1", s1, s2, r1, r2)
	}
	if got := readCounter(t, e, 1); got != 1 {
		t.Fatalf("piped writer: key 1 = %d, want 1", got)
	}
	if got := readCounter(t, e, 0); got != 0 {
		t.Fatalf("rejected dup wrote: key 0 = %d", got)
	}
}

// TestFastPathReadsNeverExposeNonDurableState: under SyncByInterval a
// write can execute long before its fsync; a fast-path read must not
// return it until it is durable — otherwise the reader externalizes
// state a crash rolls back. The sequence below acknowledges nothing
// early: the reader's observation, once returned, must survive Kill +
// Recover.
func TestFastPathReadsNeverExposeNonDurableState(t *testing.T) {
	reg := durRegistry()
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.SyncPolicy = wal.SyncByInterval
	cfg.SyncInterval = 100 * time.Millisecond
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(key(1), txn.NewValue(16, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// The write executes quickly but becomes durable only at the next
	// interval sync; the concurrent read must block on the same bound.
	// The crash comes right after the read returns — anything the read
	// externalized must therefore survive it. (The writer may see a
	// "commit not durable" error if the kill lands before its sync;
	// that is the policy's contract, not a failure.)
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		_ = e.ExecuteBatch([]txn.Txn{mutCall(t, reg, 1, 3, opIncrement)})
	}()
	// Poll until the read observes the write (recency makes this converge
	// once the write has completed execution).
	var observed uint64
	for {
		v, err := e.Read(key(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if observed = txn.U64(v); observed == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The timing-free core assertion: the write sat in the log's buffer
	// until the interval sync, so a read returning it proves a sync
	// completed first — zero syncs here means the read externalized
	// state a crash would drop. (Engine.Kill alone cannot show that: its
	// shutdown drain lets the interval syncer finish the group commit.)
	if s := e.Stats().LogSyncs; s == 0 {
		t.Fatal("read returned a logged write before any log sync: externalized non-durable state")
	}
	e.Kill() // crash now: drops everything past the last sync
	<-writeDone

	r, err := Recover(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rv, err := r.Read(key(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := txn.U64(rv); got < observed {
		t.Fatalf("read externalized %d but recovery shows %d: a non-durable write escaped", observed, got)
	}
}
