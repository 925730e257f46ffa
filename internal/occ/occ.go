// Package occ implements the paper's single-version optimistic baseline: a
// direct implementation of Silo's commit protocol (Tu et al., SOSP 2013).
// Transactions read without writing any shared memory, buffer writes in a
// worker-local buffer reused across transactions, and validate at commit
// by locking the write-set in global key order and re-checking the TIDs of
// every record read. TID assignment is decentralized: each worker derives
// the next TID from the TIDs it observed, so there is no global counter.
// Aborted transactions retry after an exponential back-off, which is what
// lets Silo degrade gracefully under write contention (§4.2.1).
//
// Range scans follow Silo's node-set validation, with the ordered key
// directory playing the B-tree node's role: a scan records the key set
// the directory returned for the range, and commit revalidates that the
// set is unchanged (the directory is insert-only, so only phantom
// inserts can invalidate it) on top of the usual per-record TID checks.
package occ

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bohm/internal/engine"
	"bohm/internal/storage"
	"bohm/internal/txn"
)

// Config parameterizes the OCC engine.
type Config struct {
	// Workers is the number of transaction execution threads.
	Workers int
	// Capacity sizes the record store.
	Capacity int
	// MaxBackoffSpins caps the exponential back-off after an abort.
	MaxBackoffSpins int
}

// DefaultConfig returns a small general-purpose configuration.
func DefaultConfig() Config {
	return Config{Workers: 2, Capacity: 1 << 20, MaxBackoffSpins: 1 << 12}
}

// Engine is the Silo-style OCC engine.
type Engine struct {
	cfg   Config
	store *storage.SVStore

	// dir orders every key a record has ever been created for; range
	// scans walk it and revalidate at commit that no key appeared inside
	// a scanned range since the scan (Silo's node-set validation, with
	// the directory playing the tree-node role).
	dir *storage.Directory

	committed  atomic.Uint64
	userAborts atomic.Uint64
	ccAborts   atomic.Uint64
}

// New creates an OCC engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("occ: need at least one worker")
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1 << 20
	}
	if cfg.MaxBackoffSpins < 1 {
		cfg.MaxBackoffSpins = 1 << 12
	}
	return &Engine{cfg: cfg, store: storage.NewSVStore(cfg.Capacity), dir: storage.NewDirectory()}, nil
}

// Load implements engine.Engine.
func (e *Engine) Load(k txn.Key, v []byte) error {
	if err := e.store.Load(k, v); err != nil {
		return err
	}
	e.dir.Insert(k)
	return nil
}

// Close implements engine.Engine; the OCC engine has no background work.
func (e *Engine) Close() {}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	return engine.Stats{
		Committed:  e.committed.Load(),
		UserAborts: e.userAborts.Load(),
		CCAborts:   e.ccAborts.Load(),
	}
}

// errConflict signals a validation failure; the worker retries.
var errConflict = fmt.Errorf("occ: validation conflict")

// readEntry records one read for commit-time validation.
type readEntry struct {
	rec *storage.SVRecord
	tid uint64
}

// worker holds per-thread scratch state reused across transactions: the
// write buffer reuse is the cache-locality advantage the paper credits to
// OCC over multiversion systems (§4.2.1).
type worker struct {
	e       *Engine
	lastTID uint64
	reads   []readEntry
	absent  []txn.Key // keys read as never-existing, validated at commit
	scratch [][]byte  // per-read stable copies, buffers reused across txns
	nextBuf int
}

// occScan records one range scan for commit-time revalidation: the range
// and the directory keys observed, in key order. At validation the
// directory is rescanned; any key now in the range that was not observed
// (and is not the transaction's own insert) is a phantom.
type occScan struct {
	r    txn.KeyRange
	keys []txn.Key
}

// occCtx implements txn.Ctx for one execution attempt.
type occCtx struct {
	w      *worker
	writes []txn.Key
	recs   []*storage.SVRecord
	vals   [][]byte
	del    []bool
	wrote  []bool
	scans  []occScan
}

var _ txn.Ctx = (*occCtx)(nil)

func (w *worker) newCtx(writes []txn.Key) *occCtx {
	w.reads = w.reads[:0]
	w.absent = w.absent[:0]
	w.nextBuf = 0
	n := len(writes)
	return &occCtx{
		w:      w,
		writes: writes,
		recs:   make([]*storage.SVRecord, n),
		vals:   make([][]byte, n),
		del:    make([]bool, n),
		wrote:  make([]bool, n),
	}
}

// buf returns the worker's next reusable read buffer.
func (w *worker) buf() []byte {
	if w.nextBuf == len(w.scratch) {
		w.scratch = append(w.scratch, nil)
	}
	b := w.scratch[w.nextBuf]
	w.nextBuf++
	return b
}

// Read implements txn.Ctx: a seqlock-stable copy of the record plus a TID
// observation for commit-time validation. Reads write no shared memory.
func (c *occCtx) Read(k txn.Key) ([]byte, error) {
	for i, wk := range c.writes {
		if wk == k && c.wrote[i] {
			if c.del[i] {
				return nil, txn.ErrNotFound
			}
			return c.vals[i], nil
		}
	}
	rec := c.w.e.store.Get(k)
	if rec == nil {
		c.w.absent = append(c.w.absent, k)
		return nil, txn.ErrNotFound
	}
	slot := c.w.nextBuf
	buf, tid, deleted := rec.StableRead(c.w.buf())
	c.w.scratch[slot] = buf
	c.w.reads = append(c.w.reads, readEntry{rec: rec, tid: tid})
	if deleted {
		return nil, txn.ErrNotFound
	}
	return buf, nil
}

// ReadRange implements txn.Ctx: an ordered directory walk over r with
// seqlock-stable reads of each record, every record added to the read-set
// for TID validation and the observed key set recorded for phantom
// revalidation at commit. The transaction's own buffered writes inside r
// are overlaid (they are not in the directory until commit).
func (c *occCtx) ReadRange(r txn.KeyRange, fn func(k txn.Key, v []byte) error) error {
	if r.Empty() {
		return nil
	}
	sc := occScan{r: r}
	c.w.e.dir.AscendRange(r, func(k txn.Key) bool {
		sc.keys = append(sc.keys, k)
		return true
	})
	c.scans = append(c.scans, sc)

	own := c.stagedInRange(r)
	oi := 0
	emitOwn := func() error {
		k := own[oi]
		oi++
		for i, wk := range c.writes {
			if wk == k {
				if c.del[i] {
					return nil
				}
				return fn(k, c.vals[i])
			}
		}
		return nil
	}
	for _, k := range sc.keys {
		for oi < len(own) && own[oi].Less(k) {
			if err := emitOwn(); err != nil {
				return err
			}
		}
		if oi < len(own) && own[oi] == k {
			if err := emitOwn(); err != nil {
				return err
			}
			continue
		}
		rec := c.w.e.store.Get(k)
		if rec == nil {
			continue // directory racing the record insert; nothing to read
		}
		slot := c.w.nextBuf
		buf, tid, deleted := rec.StableRead(c.w.buf())
		c.w.scratch[slot] = buf
		c.w.reads = append(c.w.reads, readEntry{rec: rec, tid: tid})
		if deleted {
			continue
		}
		if err := fn(k, buf); err != nil {
			return err
		}
	}
	for oi < len(own) {
		if err := emitOwn(); err != nil {
			return err
		}
	}
	return nil
}

// stagedInRange returns the staged (written or deleted) keys inside r,
// sorted for the overlay merge.
func (c *occCtx) stagedInRange(r txn.KeyRange) []txn.Key {
	var ks []txn.Key
	for i, k := range c.writes {
		if c.wrote[i] && r.Contains(k) {
			ks = append(ks, k)
		}
	}
	txn.SortKeys(ks)
	return ks
}

// Write implements txn.Ctx, buffering the new value locally.
func (c *occCtx) Write(k txn.Key, v []byte) error { return c.stage(k, v, false) }

// Delete implements txn.Ctx.
func (c *occCtx) Delete(k txn.Key) error { return c.stage(k, nil, true) }

func (c *occCtx) stage(k txn.Key, v []byte, del bool) error {
	for i, wk := range c.writes {
		if wk == k {
			c.vals[i] = v
			c.del[i] = del
			c.wrote[i] = true
			return nil
		}
	}
	return fmt.Errorf("occ: write to key %+v outside declared write-set", k)
}

// commit runs Silo's three-phase commit: lock the write-set in global key
// order, validate the read-set, then install writes under a fresh TID.
func (c *occCtx) commit() error {
	type lockSlot struct {
		k   txn.Key
		idx int
	}
	slots := make([]lockSlot, 0, len(c.writes))
	for i := range c.writes {
		if c.wrote[i] {
			slots = append(slots, lockSlot{c.writes[i], i})
		}
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].k.Less(slots[b].k) })

	// Phase 1: lock the write-set.
	locked := make([]*storage.SVRecord, 0, len(slots))
	oldTIDs := make([]uint64, 0, len(slots))
	unlockAll := func() {
		for j := len(locked) - 1; j >= 0; j-- {
			locked[j].UnlockUnchanged(oldTIDs[j])
		}
	}
	maxTID := c.w.lastTID
	for _, s := range slots {
		rec, created, err := c.w.e.store.GetOrCreate(s.k)
		if err != nil {
			unlockAll()
			return err
		}
		if created {
			// Publish the insert in the directory before validation, so
			// any scanner that validates after this point sees the new
			// key in its rescan and aborts. Our own scans skip write-set
			// keys during revalidation below.
			c.w.e.dir.Insert(s.k)
		}
		c.recs[s.idx] = rec
		t := rec.Lock()
		locked = append(locked, rec)
		oldTIDs = append(oldTIDs, t)
		if t > maxTID {
			maxTID = t
		}
	}

	// Phase 2: validate the read-set. A read is valid if the record's TID
	// is unchanged and the record is not locked by another transaction.
	for _, r := range c.w.reads {
		cur := r.rec.TID()
		if cur&storage.TIDMask != r.tid {
			unlockAll()
			return errConflict
		}
		if cur&storage.TIDLockBit != 0 && !c.ownsLock(r.rec) {
			unlockAll()
			return errConflict
		}
		if r.tid > maxTID {
			maxTID = r.tid
		}
	}

	// A read of a never-existing key stays valid while nobody has
	// installed the record: it may have sprung into existence since (an
	// inserter's phase 1, or our own), but it must be uncommitted (TID 0)
	// and not locked by another transaction.
	for _, k := range c.w.absent {
		if rec := c.w.e.store.Get(k); rec != nil {
			cur := rec.TID()
			if cur&storage.TIDMask != 0 || cur&storage.TIDLockBit != 0 && !c.ownsLock(rec) {
				unlockAll()
				return errConflict
			}
		}
	}

	// Phase 2½: revalidate scanned ranges against the directory. A key
	// that appeared inside a scanned range since the scan is a phantom —
	// unless it is one of our own inserts (registered in phase 1). Keys
	// that were present at scan time are covered by the TID checks above;
	// the directory is insert-only, so disappearance is impossible.
	for _, sc := range c.scans {
		ok := true
		c.w.e.dir.AscendRange(sc.r, func(k txn.Key) bool {
			if txn.Contains(sc.keys, k) || c.ownsWriteKey(k) {
				return true
			}
			ok = false
			return false
		})
		if !ok {
			unlockAll()
			return errConflict
		}
	}

	// Phase 3: install writes under the new TID.
	newTID := maxTID + 1
	c.w.lastTID = newTID
	for j, rec := range locked {
		i := slots[j].idx
		if c.del[i] {
			rec.SetDeleted()
		} else {
			rec.Set(c.vals[i])
		}
		rec.Unlock(newTID)
	}
	return nil
}

// ownsWriteKey reports whether k is one of this transaction's staged
// writes (whose phase-1 insert must not count as a phantom).
func (c *occCtx) ownsWriteKey(k txn.Key) bool {
	for i, wk := range c.writes {
		if wk == k && c.wrote[i] {
			return true
		}
	}
	return false
}

func (c *occCtx) ownsLock(rec *storage.SVRecord) bool {
	for i, r := range c.recs {
		if r == rec && c.wrote[i] {
			return true
		}
	}
	return false
}

// ExecuteBatch implements engine.Engine.
func (e *Engine) ExecuteBatch(ts []txn.Txn) []error {
	res := make([]error, len(ts))
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := e.cfg.Workers
	if workers > len(ts) {
		workers = len(ts)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{e: e}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				res[i] = w.runWithRetry(ts[i])
			}
		}()
	}
	wg.Wait()
	return res
}

// runWithRetry executes t until it commits or aborts for a user-level
// reason, backing off exponentially after validation conflicts.
func (w *worker) runWithRetry(t txn.Txn) error {
	backoff := 4
	for {
		c := w.newCtx(t.WriteSet())
		err := txn.RunSafely(t, c)
		if err == nil {
			err = c.commit()
		}
		switch err {
		case nil:
			w.e.committed.Add(1)
			return nil
		case errConflict:
			w.e.ccAborts.Add(1)
			for i := 0; i < backoff; i++ {
				if i%256 == 255 {
					runtime.Gosched()
				}
			}
			if backoff >= 1024 {
				// Long back-offs park the thread so contended peers run.
				time.Sleep(time.Duration(backoff/1024) * time.Microsecond)
			}
			runtime.Gosched()
			if backoff < w.e.cfg.MaxBackoffSpins {
				backoff *= 2
			}
		default:
			w.e.userAborts.Add(1)
			return err
		}
	}
}
