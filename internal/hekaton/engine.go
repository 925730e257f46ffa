package hekaton

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bohm/internal/engine"
	"bohm/internal/storage"
	"bohm/internal/txn"
)

// Level selects the isolation level the engine enforces.
type Level int

const (
	// Serializable is Hekaton's optimistic serializable protocol: reads
	// are validated at commit time (read stability).
	Serializable Level = iota
	// Snapshot is snapshot isolation: transactions read as of their begin
	// timestamp and only write-write conflicts abort. This is the paper's
	// SI baseline, "implemented within our Hekaton codebase" (§4).
	Snapshot
)

// Config parameterizes the engine.
type Config struct {
	// Workers is the number of transaction execution threads.
	Workers int
	// Capacity sizes the record index.
	Capacity int
	// Level is the isolation level (Serializable or Snapshot).
	Level Level
	// TrimChains unlinks versions no longer visible to any active or
	// future transaction. The paper ran Hekaton and SI *without* garbage
	// collection (favoring them slightly); trimming defaults off in the
	// benchmarks but is available to bound memory in long runs.
	TrimChains bool
	// MaxRetries bounds internal retries of concurrency-control aborts;
	// 0 means retry forever (the paper's configuration).
	MaxRetries int
}

// DefaultConfig returns a small general-purpose configuration.
func DefaultConfig() Config { return Config{Workers: 2, Capacity: 1 << 20} }

// ErrTooManyRetries is returned when MaxRetries is exceeded.
var ErrTooManyRetries = fmt.Errorf("hekaton: transaction exceeded retry limit")

// errConflict marks concurrency-control-induced aborts (first-writer-wins
// write conflicts, validation failures, cascaded aborts); they are retried.
var errConflict = fmt.Errorf("hekaton: concurrency control conflict")

// Engine is the Hekaton-style optimistic multiversion engine.
type Engine struct {
	cfg Config
	idx *storage.Map[chain]

	// dir is the ordered key directory backing range scans: every key
	// ever given a chain is registered (at Load, or when a writer creates
	// the chain). Scans walk it in key order and apply the usual
	// visibility rules per key; the Serializable level revalidates each
	// scanned range at commit to catch phantoms, per Larson et al.'s
	// "repeat the scan at end of transaction" rule.
	dir *storage.Directory

	// counter is the global timestamp counter — the contended fetch-and-
	// increment this baseline is known for (§2.1).
	counter atomic.Uint64

	// active holds the begin timestamps of in-flight transactions (0 =
	// free slot); the minimum bounds chain trimming. Slots are claimed
	// with a CAS so concurrent ExecuteBatch calls never share one.
	active []atomic.Uint64
	// slotless counts in-flight transactions that found no free slot;
	// while any exist, trimming is disabled (minActive returns 0).
	slotless atomic.Int64

	committed  atomic.Uint64
	userAborts atomic.Uint64
	ccAborts   atomic.Uint64
	tsFetches  atomic.Uint64
	versions   atomic.Uint64
	collected  atomic.Uint64
}

var _ engine.Engine = (*Engine)(nil)

// New creates an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("hekaton: need at least one worker")
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1 << 20
	}
	e := &Engine{
		cfg: cfg,
		idx: storage.NewMap[chain](cfg.Capacity),
		dir: storage.NewDirectory(),
		// 8x headroom so several concurrent ExecuteBatch calls can all
		// register their in-flight transactions.
		active: make([]atomic.Uint64, 8*cfg.Workers),
	}
	e.counter.Store(1) // loaded versions have begin timestamp 1
	return e, nil
}

// Load implements engine.Engine.
func (e *Engine) Load(k txn.Key, v []byte) error {
	data := make([]byte, len(v))
	copy(data, v)
	ch := &chain{}
	ch.head.Store(newLoadedVersion(data))
	_, ok, err := e.idx.Insert(k, ch)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("hekaton: duplicate load of key %+v", k)
	}
	e.dir.Insert(k)
	return nil
}

// Close implements engine.Engine; there is no background work.
func (e *Engine) Close() {}

// Stats implements engine.Engine.
func (e *Engine) Stats() engine.Stats {
	return engine.Stats{
		Committed:         e.committed.Load(),
		UserAborts:        e.userAborts.Load(),
		CCAborts:          e.ccAborts.Load(),
		TimestampFetches:  e.tsFetches.Load(),
		VersionsCreated:   e.versions.Load(),
		VersionsCollected: e.collected.Load(),
	}
}

// nextTS atomically fetches the next timestamp from the global counter.
func (e *Engine) nextTS() uint64 {
	e.tsFetches.Add(1)
	return e.counter.Add(1)
}

// minActive returns the smallest begin timestamp of any in-flight
// transaction, or the current counter value if none are active. If any
// transaction is running unregistered (slot exhaustion), it returns 0 so
// nothing is trimmed.
func (e *Engine) minActive() uint64 {
	if e.slotless.Load() > 0 {
		return 0
	}
	min := e.counter.Load()
	for i := range e.active {
		if ts := e.active[i].Load(); ts != 0 && ts < min {
			min = ts
		}
	}
	return min
}

// claimSlot registers beginTS in a free active slot, returning its index
// or -1 (counted in slotless) when all slots are busy.
func (e *Engine) claimSlot(beginTS uint64) int {
	for i := range e.active {
		if e.active[i].Load() == 0 && e.active[i].CompareAndSwap(0, beginTS) {
			return i
		}
	}
	e.slotless.Add(1)
	return -1
}

// releaseSlot frees a slot claimed by claimSlot.
func (e *Engine) releaseSlot(slot int) {
	if slot < 0 {
		e.slotless.Add(-1)
		return
	}
	e.active[slot].Store(0)
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				res[i] = e.runWithRetry(ts[i])
			}
		}()
	}
	wg.Wait()
	return res
}

// runWithRetry executes t until commit or user abort, retrying
// concurrency-control aborts (the paper's configuration, §4).
func (e *Engine) runWithRetry(t txn.Txn) error {
	for attempt := 0; ; attempt++ {
		err := e.runOnce(t)
		if err != errConflict {
			if err != nil {
				e.userAborts.Add(1)
			} else {
				e.committed.Add(1)
			}
			return err
		}
		e.ccAborts.Add(1)
		if e.cfg.MaxRetries > 0 && attempt+1 >= e.cfg.MaxRetries {
			e.userAborts.Add(1)
			return ErrTooManyRetries
		}
		runtime.Gosched()
	}
}

// runOnce performs one attempt of t's logic plus the commit protocol.
func (e *Engine) runOnce(t txn.Txn) error {
	// Take an active slot before the begin timestamp. The placeholder (the
	// counter's current value) is at or below beginTS, so a concurrent
	// trim's minActive never misses this transaction: registering after
	// nextTS left a window in which a committer could cut the versions the
	// new snapshot still needs, surfacing as a spurious "not found".
	slot := e.claimSlot(e.counter.Load())
	r := &hTxn{beginTS: e.nextTS()}
	if slot >= 0 {
		e.active[slot].Store(r.beginTS)
	}
	defer e.releaseSlot(slot)

	c := &hCtx{e: e, r: r, writes: t.WriteSet()}
	err := txn.RunSafely(t, c)
	if c.conflict {
		e.abort(r)
		return errConflict
	}
	if err == nil && c.writeErr != nil {
		err = c.writeErr
	}
	if err != nil {
		e.abort(r)
		if r.cascade.Load() {
			// A speculative read fed the logic data from a transaction
			// that aborted; the user error is not trustworthy. Retry.
			return errConflict
		}
		return err
	}
	return e.commit(r)
}

// commit runs the commit protocol: acquire the end timestamp, validate
// reads (Serializable), wait out commit dependencies, then finalize all
// written and claimed versions.
func (e *Engine) commit(r *hTxn) error {
	// Leave txActive before fetching endTS: the counter orders that fetch
	// before any later begin timestamp, so a reader that began after
	// endTS sees txEnding or later and waits, instead of skipping r's
	// versions as Active and then finding their predecessors superseded.
	r.state.Store(txEnding)
	r.endTS = e.nextTS()
	r.state.Store(txPreparing)

	if e.cfg.Level == Serializable {
		if !e.validate(r) {
			e.abort(r)
			return errConflict
		}
	}

	// Wait for the preparing transactions we speculatively read from.
	for spins := 0; r.depCount.Load() > 0; spins++ {
		if r.cascade.Load() {
			break
		}
		if spins > 256 {
			time.Sleep(5 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	if r.cascade.Load() {
		e.abort(r)
		return errConflict
	}

	r.state.Store(txCommitted)
	for _, v := range r.written {
		v.begin.Store(r.endTS)
		v.writer.Store(nil)
	}
	for _, v := range r.claimed {
		v.end.Store(r.endTS)
		v.endTxn.Store(nil)
	}
	for _, ch := range r.chains {
		ch.insertClaim.Store(nil)
	}
	r.releaseDependents(false)

	if e.cfg.TrimChains {
		e.trim(r)
	}
	r.reads = nil
	return nil
}

// abort rolls back every effect of r: pushed versions are unlinked where
// possible (and remain skippable garbage otherwise), claims are released,
// and dependents cascade.
func (e *Engine) abort(r *hTxn) {
	r.state.Store(txAborted)
	for i := len(r.written) - 1; i >= 0; i-- {
		v := r.written[i]
		if ch := v.owner; ch != nil {
			ch.head.CompareAndSwap(v, v.prev.Load())
		}
	}
	for _, v := range r.claimed {
		v.endTxn.CompareAndSwap(r, nil)
	}
	for _, ch := range r.chains {
		ch.insertClaim.CompareAndSwap(r, nil)
	}
	r.releaseDependents(true)
	r.reads = nil
}

// trim unlinks versions invisible to every active and future transaction:
// once a committed version's begin timestamp is at or below the oldest
// active begin timestamp, nothing older on its chain can ever be read.
func (e *Engine) trim(r *hTxn) {
	oldest := e.minActive()
	for _, v := range r.claimed {
		// v is the version r superseded. Find the newest version at or
		// below the horizon and cut below it.
		for w := v; w != nil; w = w.prev.Load() {
			b := w.begin.Load()
			if b == 0 || b > oldest {
				continue
			}
			n := 0
			for x := w.prev.Load(); x != nil; x = x.prev.Load() {
				n++
			}
			if n > 0 {
				w.prev.Store(nil)
				e.collected.Add(uint64(n))
			}
			break
		}
	}
}
