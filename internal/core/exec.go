package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"bohm/internal/storage"
	"bohm/internal/txn"
)

// errDepBusy is the internal signal that a read dependency is currently
// being produced by another worker: the attempt is suspended, the
// transaction goes back to Unprocessed, and it is retried later (§3.3.1).
var errDepBusy = errors.New("bohm: read dependency busy")

// execWorker is one transaction execution thread. Worker w is responsible
// for nodes w, w+n, w+2n, … of every batch (§3.3.1); it may also execute
// other workers' transactions while chasing read dependencies, and other
// workers may execute its. It moves to the next batch only when all the
// transactions it is responsible for are Complete, then publishes the
// batch sequence as its garbage collection watermark contribution.
func (e *Engine) execWorker(w int) {
	defer e.execWG.Done()
	st := &e.execStats[w]
	n := e.cfg.ExecWorkers
	var sc *ctxPool
	if e.retireCh != nil {
		sc = &ctxPool{}
		if e.varenas != nil {
			sc.va = e.varenas[w]
		}
		sc.iters = make([]storage.DirIter, e.nparts)
		sc.iterTag = make([]uint64, e.nparts)
	}
	for b := range e.execIn[w] {
		if sc != nil {
			// New batch barrier: age out the scan-iterator fingers. A finger
			// is only resumed within the batch it was parked in (see
			// readRange), so each partition's first fallback scan per batch
			// pays one full descent and later scans resume in O(log
			// distance).
			sc.iterEpoch++
		}
		for {
			incomplete := false
			for i := w; i < len(b.nodes); i += n {
				nd := b.nodes[i]
				if nd.state.Load() == stComplete {
					continue
				}
				if nd.state.CompareAndSwap(stUnprocessed, stExecuting) {
					e.execute(nd, st, sc)
				}
				if nd.state.Load() != stComplete {
					incomplete = true
				}
			}
			if !incomplete {
				break
			}
			// All remaining responsibilities are blocked on other workers'
			// progress; park briefly instead of spinning.
			time.Sleep(5 * time.Microsecond)
		}
		// The timestamp boundary is published before the batch sequence:
		// anyone who observes execBatch[w] >= b.seq is then guaranteed to
		// read execTS[w] >= b.limitTS, so the fast path's snapshot
		// timestamp (min execTS) never lags the batch watermark its
		// reader epoch was published at.
		e.execTS[w].Store(b.limitTS)
		e.execBatch[w].Store(b.seq)
		// The last worker out folds the batch's stage timeline into the
		// histograms and pushes its flight record; the obs.done counter
		// orders every node's completion before that read. This precedes
		// the execDone increment below, so batch retirement (and hence
		// reuse) always waits for the recording to finish.
		if o := e.obs; o != nil && b.obs.done.Add(1) == int32(n) {
			e.obsRecordBatch(w, b, o)
		}
		if sc != nil && sc.va != nil {
			sc.va.MaybeTrim()
		}
		if e.retireCh != nil && b.execDone.Add(1) == int32(n) {
			// Last worker out retires the batch to the sequencer's
			// recycle ring. The send is non-blocking: if the ring is
			// full the batch is simply left to the runtime collector.
			select {
			case e.retireCh <- b:
			default:
			}
		}
	}
}

// ctxPool is one execution worker's free stack of execution contexts. A
// stack (not a single slot) because dependency resolution executes
// producer transactions recursively, so several contexts can be live on
// one worker at once. A nil pool allocates fresh contexts — the
// DisablePooling ablation.
//
// The pool doubles as the worker's per-batch amortization state: the
// payload arena the worker installs written values into, and the
// per-partition directory-iterator cache its fallback scans resume from
// (both nil/disabled under the respective ablations).
type ctxPool struct {
	free []*execCtx

	// va is the worker's payload arena; nil under DisableValueArena (or
	// DisablePooling), in which case installs heap-copy instead.
	va *storage.ValueArena

	// iters caches one directory iterator per partition, valid only for
	// fingers parked under the current iterEpoch (bumped per batch).
	// itersBusy marks the cache as claimed by an in-progress scan, so a
	// nested ReadRange — or a recursive producer execution issuing its own
	// scan — falls back to a scan-local iterator instead of repositioning
	// the outer scan's parked fingers.
	iters     []storage.DirIter
	iterTag   []uint64
	iterEpoch uint64
	itersBusy bool
}

// arena returns the worker's payload arena, nil-safe for the
// DisablePooling ablation (nil pool → nil arena → heap-copy installs).
func (p *ctxPool) arena() *storage.ValueArena {
	if p == nil {
		return nil
	}
	return p.va
}

func (p *ctxPool) get() *execCtx {
	if p == nil {
		return &execCtx{}
	}
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return c
	}
	return &execCtx{}
}

// put recycles c after an attempt. The context's slices are retained at
// capacity; get's user re-initializes lengths and contents. vals is
// cleared through its full capacity so a context that once staged large
// write-sets does not pin old record payloads while serving small ones.
func (p *ctxPool) put(c *execCtx) {
	if p == nil {
		return
	}
	c.nd = nil
	c.st = nil
	clear(c.vals[:cap(c.vals)])
	clear(c.srcs[:cap(c.srcs)])
	p.free = append(p.free, c)
}

// execute runs one attempt of nd. The caller must have won the
// Unprocessed→Executing CAS. Returns true when the transaction reached
// Complete, false when it was suspended on a busy dependency.
func (e *Engine) execute(nd *node, st *workerStats, sc *ctxPool) bool {
	err := e.runOnce(nd, st, sc)
	if err == errDepBusy {
		nd.state.Store(stUnprocessed)
		atomic.AddUint64(&st.requeues, 1)
		return false
	}
	nd.err = err
	nd.state.Store(stComplete)
	if err != nil {
		atomic.AddUint64(&st.userAborts, 1)
	} else {
		atomic.AddUint64(&st.committed, 1)
	}
	nd.sub.complete(nd)
	return true
}

// runOnce performs a single evaluation attempt of nd's logic and, on
// success, installs the produced data into the placeholder versions the CC
// phase created. Nothing is installed until every input the finalization
// needs is available, so a suspended attempt leaves no partial state. The
// execution context (and its staging slices) comes from the worker's pool
// and returns to it on every exit path.
func (e *Engine) runOnce(nd *node, st *workerStats, sc *ctxPool) error {
	c := sc.get()
	defer sc.put(c)
	c.e, c.nd, c.st, c.sc = e, nd, st, sc
	c.busy, c.writeErr, c.readCursor, c.nStaged = false, nil, 0, 0
	if n := len(nd.writes); n > 0 {
		if cap(c.vals) >= n {
			c.vals = c.vals[:n]
			c.wrote = c.wrote[:n]
			c.del = c.del[:n]
			c.srcs = c.srcs[:n]
			clear(c.vals)
			clear(c.wrote)
			clear(c.del)
			clear(c.srcs)
		} else {
			c.vals = make([][]byte, n)
			c.wrote = make([]bool, n)
			c.del = make([]bool, n)
			c.srcs = make([]*storage.Version, n)
		}
	} else {
		c.vals, c.wrote, c.del, c.srcs = c.vals[:0], c.wrote[:0], c.del[:0], c.srcs[:0]
	}
	err := txn.RunSafely(nd.t, c)
	if c.busy {
		return errDepBusy
	}
	if err == nil && c.writeErr != nil {
		err = c.writeErr
	}

	// Copy-forward pass: placeholder slots the body did not fill — every
	// slot on abort, undeclared-but-unwritten slots on commit — take the
	// preceding version's data so later readers observe the pre-state
	// (§3.3.1, write dependencies). Resolve all inputs before installing
	// anything, so a busy dependency suspends the attempt cleanly.
	aborted := err != nil
	for i := range nd.writes {
		if aborted || !c.wrote[i] {
			v := nd.writeVers[i]
			prev := v.Prev()
			if prev == nil {
				c.vals[i] = nil
				c.del[i] = true
				continue
			}
			data, tomb, rerr := c.resolve(prev)
			if rerr != nil {
				return errDepBusy
			}
			c.vals[i] = data
			c.del[i] = tomb
			c.srcs[i] = prev
		}
	}
	// Install: values the body staged are copied out — into the worker's
	// arena when it has one, a fresh heap slice otherwise — so the caller's
	// write buffer is reusable the moment execution finishes and the engine
	// owns every payload it serves. Copied-forward slots adopt their
	// predecessor's payload pointer instead (no copy) and take a reference
	// on its slab, so the shared bytes outlive whichever version retires
	// last.
	arena := c.sc.arena()
	for i := range nd.writes {
		if src := c.srcs[i]; src != nil {
			nd.writeVers[i].InstallShared(src, c.vals[i], c.del[i])
		} else {
			nd.writeVers[i].InstallValue(arena, c.vals[i], c.del[i])
		}
	}
	return err
}

// execCtx implements txn.Ctx for one execution attempt. Writes are
// buffered and installed at commit; reads resolve versions through the
// dependency machinery.
type execCtx struct {
	e  *Engine
	nd *node
	st *workerStats
	// sc is the owning worker's context pool, threaded through so that
	// recursive dependency execution draws from the same pool.
	sc *ctxPool

	vals  [][]byte
	wrote []bool
	del   []bool
	// srcs marks copy-forward slots: the predecessor version whose payload
	// the slot re-exposes (nil for body-staged slots). The install pass
	// dispatches on it — shared adoption versus arena copy-out.
	srcs []*storage.Version
	// nStaged counts distinct write slots the body has staged so far; scans
	// early-out of the own-write overlay when it is zero.
	nStaged int

	// sb is the context's scan scratch (merge sources, fallback buffers,
	// loser tree), detached while a scan runs so nesting stays safe.
	sb *scanBufs

	// busy poisons the attempt when a read hit an in-flight dependency;
	// checked by runOnce even if the transaction body swallowed the error.
	busy bool
	// writeErr records an access-set violation, turning into an abort.
	writeErr error
	// readCursor makes annotated-reference lookup O(1) for bodies that
	// read their declared read-set in order (the common stored-procedure
	// shape); out-of-order reads fall back to a linear scan.
	readCursor int
}

var _ txn.Ctx = (*execCtx)(nil)

// Read implements txn.Ctx: it returns nd's own buffered write if the
// transaction already wrote k, otherwise the value of the version visible
// at nd.ts — the newest version with Begin < ts (a transaction observes
// exactly the database state preceding its own timestamp).
func (c *execCtx) Read(k txn.Key) ([]byte, error) {
	for i, wk := range c.nd.writes {
		if wk == k && c.wrote[i] {
			if c.del[i] {
				return nil, txn.ErrNotFound
			}
			return c.vals[i], nil
		}
	}
	v := c.annotatedRef(k)
	if v == nil {
		chain := c.e.chainFor(k)
		if chain == nil {
			return nil, txn.ErrNotFound
		}
		for w := chain.Head(); w != nil; w = w.Prev() {
			atomic.AddUint64(&c.st.chainSteps, 1)
			if w.Begin < c.nd.ts {
				v = w
				break
			}
		}
		if v == nil {
			return nil, txn.ErrNotFound
		}
	}
	data, tomb, err := c.resolve(v)
	if err != nil {
		c.busy = true
		return nil, err
	}
	if tomb {
		return nil, txn.ErrNotFound
	}
	return data, nil
}

// annotatedRef returns the version reference the CC phase attached for k,
// if the read-reference optimization is on and k was in the declared
// read-set of a record that existed at CC time.
func (c *execCtx) annotatedRef(k txn.Key) *storage.Version {
	if c.nd.readRefs == nil {
		return nil
	}
	if cur := c.readCursor; cur < len(c.nd.reads) && c.nd.reads[cur] == k {
		c.readCursor++
		if v := c.nd.readRefs[cur]; v != nil {
			atomic.AddUint64(&c.st.readRefHits, 1)
			return v
		}
		return nil
	}
	for i, rk := range c.nd.reads {
		if rk == k {
			c.readCursor = i + 1
			if v := c.nd.readRefs[i]; v != nil {
				atomic.AddUint64(&c.st.readRefHits, 1)
				return v
			}
			return nil
		}
	}
	return nil
}

// resolve waits for v's data, recursively executing the producing
// transaction when it has not started. When another worker is
// mid-execution of the producer, resolve spin-waits briefly — the wait is
// deadlock-free because dependencies always point to strictly older
// timestamps, so the globally oldest executing transaction never waits —
// and suspends the attempt (errDepBusy) only if the producer stays busy,
// handing the transaction back to the scheduler per §3.3.1.
func (c *execCtx) resolve(v *storage.Version) (data []byte, tombstone bool, err error) {
	spins := 0
	for !v.Ready() {
		p, _ := v.Producer.(*node)
		if p == nil {
			// Loaded versions are born ready; an unready version always
			// has a producer. Yield and re-check.
			runtime.Gosched()
			continue
		}
		switch p.state.Load() {
		case stComplete:
			// Install precedes Complete; the next Ready check sees it.
			continue
		case stUnprocessed:
			if p.state.CompareAndSwap(stUnprocessed, stExecuting) {
				atomic.AddUint64(&c.st.recursiveExecs, 1)
				c.e.execute(p, c.st, c.sc)
			}
		default: // stExecuting on another worker
			spins++
			switch {
			case spins > 512:
				return nil, false, errDepBusy
			case spins > 32:
				// Oversubscribed hosts: a parked sleep releases the OS
				// thread, letting the producer's goroutine run instead of
				// burning a scheduler quantum on Gosched ping-pong.
				time.Sleep(5 * time.Microsecond)
			default:
				runtime.Gosched()
			}
		}
	}
	data, tombstone = v.Data()
	return data, tombstone, nil
}

// scanBufs is an execution context's reusable scan state: merge sources,
// per-partition entry buffers for the fallback walk, the own-write index
// scratch and the loser tree. It is detached from the context for the
// duration of a scan, so a nested ReadRange (issued from inside a scan's
// callback) falls back to fresh buffers instead of corrupting the outer
// scan.
type scanBufs struct {
	srcs [][]rangeEntry
	ents [][]rangeEntry
	own  []int
	lt   loserTree
}

// ReadRange implements txn.Ctx: a serializable scan of r at nd.ts. The
// scan is phantom-free by construction — every key any earlier-timestamped
// transaction will ever write was registered in the partition directories
// before this batch reached execution — so no read tracking and no
// revalidation exist here, mirroring BOHM's point-read design. When the
// range was declared (and read references are enabled), the CC phase has
// already resolved every key's visible version and the scan touches no
// chains at all; otherwise it walks the partition directories live and
// traverses chains. Keys created by later-timestamped transactions may
// appear in the directories but have no version below nd.ts and are
// skipped; keys reaped by the lifecycle sweep are gone entirely, which for
// every possible nd.ts means exactly what their tombstone meant. The
// transaction's own buffered writes inside r are merged in.
func (c *execCtx) ReadRange(r txn.KeyRange, fn func(k txn.Key, v []byte) error) error {
	if r.Empty() {
		return nil
	}
	sb := c.sb
	c.sb = nil
	if sb == nil {
		sb = &scanBufs{}
	}
	err := c.readRange(r, sb, fn)
	// Scrub entry references before parking the scratch: retained version
	// pointers would pin dead record payloads until the next scan.
	for i := range sb.srcs {
		sb.srcs[i] = nil
	}
	sb.srcs = sb.srcs[:0]
	for i := range sb.ents {
		clear(sb.ents[i])
		sb.ents[i] = sb.ents[i][:0]
	}
	sb.own = sb.own[:0]
	c.sb = sb
	return err
}

func (c *execCtx) readRange(r txn.KeyRange, sb *scanBufs, fn func(k txn.Key, v []byte) error) error {
	own := c.stagedInRange(r, sb)
	if ri := c.annotatedRangeIndex(r); ri >= 0 {
		srcs := sb.srcs[:0]
		for _, ents := range c.nd.rangeRefs[ri] {
			// The annotation covers the declared range; narrow each
			// partition's sorted slice to the requested sub-range.
			lo := sort.Search(len(ents), func(i int) bool { return !ents[i].k.Less(r.FirstKey()) })
			hi := sort.Search(len(ents), func(i int) bool { return !ents[i].k.Less(r.LimitKey()) })
			if lo < hi {
				srcs = append(srcs, ents[lo:hi])
			}
		}
		sb.srcs = srcs
		return c.mergeScan(srcs, own, true, sb, fn)
	}
	// Fallback (undeclared range, or DisableReadRefs): walk the partition
	// directories at execution time and resolve visibility per chain.
	//
	// Iterator amortization: the worker caches one iterator per partition
	// (ctxPool.iters), so repeat fallback scans within one batch resume
	// from the previous scan's finger in O(log distance) instead of a full
	// skiplist descent per partition per scan. The cache is keyed on the
	// batch barrier — fingers age out when the worker starts its next
	// batch — which keeps the correctness argument local: every key a scan
	// at any timestamp of batch b must see was inserted before b's CC
	// barrier, so nothing this batch's scans require appears between two of
	// its scans; later-batch inserts are above every nd.ts in b and may be
	// missed or seen indifferently. Fingers parked on reaped nodes are
	// caught by SeekGE's removed-flag validation (full-descent fallback),
	// and a removal landing after that check only hides keys whose
	// tombstone was already visible at nd.ts. Only the outermost scan on a
	// worker uses the cache: a nested ReadRange (from inside a scan
	// callback) or a recursive producer execution borrowing this worker
	// takes the scan-local iterator below, so it cannot reposition the
	// outer scan's parked fingers.
	nparts := len(c.e.parts)
	if cap(sb.ents) < nparts {
		sb.ents = make([][]rangeEntry, nparts)
	}
	sb.ents = sb.ents[:nparts]
	srcs := sb.srcs[:0]
	cached := c.sc != nil && c.sc.iters != nil && !c.sc.itersBusy
	if cached {
		c.sc.itersBusy = true
	}
	var local storage.DirIter
	limit := r.LimitKey()
	for p := 0; p < nparts; p++ {
		if c.e.dirs[p].ExcludesRange(r) {
			// The partition's key fences exclude the whole range; the
			// walk would visit nothing. Safe for the same reason the walk
			// is: every key an earlier-timestamped transaction will ever
			// write was fenced in before this batch reached execution.
			atomic.AddUint64(&c.st.rangeFenceSkips, 1)
			continue
		}
		it := &local
		if cached {
			it = &c.sc.iters[p]
			if c.sc.iterTag[p] != c.sc.iterEpoch {
				it.Invalidate()
				c.sc.iterTag[p] = c.sc.iterEpoch
			}
		}
		part := c.e.parts[p]
		ents := sb.ents[p][:0]
		for ok := it.SeekGE(c.e.dirs[p], r.FirstKey()); ok && it.Key().Less(limit); ok = it.Next() {
			if ch := part.Get(it.Key()); ch != nil {
				for w := ch.Head(); w != nil; w = w.Prev() {
					atomic.AddUint64(&c.st.chainSteps, 1)
					if w.Begin < c.nd.ts {
						ents = append(ents, rangeEntry{k: it.Key(), v: w})
						break
					}
				}
			}
		}
		sb.ents[p] = ents
		if len(ents) > 0 {
			srcs = append(srcs, ents)
		}
	}
	sb.srcs = srcs
	err := c.mergeScan(srcs, own, false, sb, fn)
	if cached {
		// Released only after the merge: resolve() may recursively execute
		// producers on this worker, and their scans must keep falling back
		// to scan-local iterators while the fingers above are parked.
		c.sc.itersBusy = false
	}
	return err
}

// stagedInRange collects the indices of nd.writes the body has already
// staged (written or deleted) that fall inside r, in key order; the scan
// overlays them so a transaction sees its own writes. Scan-only
// transactions (no staged writes) early-out without touching the scratch,
// and the index sort is an in-place insertion sort — the whole path
// allocates nothing in steady state.
func (c *execCtx) stagedInRange(r txn.KeyRange, sb *scanBufs) []int {
	if c.nStaged == 0 {
		return nil
	}
	idxs := sb.own[:0]
	for i, k := range c.nd.writes {
		if c.wrote[i] && r.Contains(k) {
			idxs = append(idxs, i)
		}
	}
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && c.nd.writes[idxs[j]].Less(c.nd.writes[idxs[j-1]]); j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	sb.own = idxs
	return idxs
}

// annotatedRangeIndex returns the index of a declared range covering r, or
// -1 when the scan must fall back to live directory traversal.
func (c *execCtx) annotatedRangeIndex(r txn.KeyRange) int {
	if c.nd.rangeRefs == nil {
		return -1
	}
	for i, d := range c.nd.ranges {
		if d.ContainsRange(r) {
			return i
		}
	}
	return -1
}

// mergeScan merges the per-partition sorted entry lists with the
// transaction's own staged writes (which shadow annotated entries for the
// same key) and emits live records in ascending key order. The
// per-partition lists merge through a loser tree — O(log partitions) per
// emitted key instead of the old linear min over every partition.
// Versions resolve through the same dependency machinery as point reads,
// so a busy producer suspends the attempt cleanly.
func (c *execCtx) mergeScan(sources [][]rangeEntry, own []int, annotated bool,
	sb *scanBufs, fn func(k txn.Key, v []byte) error) error {
	lt := &sb.lt
	lt.init(sources)
	oi := 0
	for {
		hasTree := lt.ok()
		if oi < len(own) {
			k := c.nd.writes[own[oi]]
			if !hasTree || !lt.head().k.Less(k) {
				if hasTree && lt.head().k == k {
					lt.pop() // shadowed by own write
				}
				i := own[oi]
				oi++
				if !c.del[i] {
					if err := fn(k, c.vals[i]); err != nil {
						return err
					}
				}
				continue
			}
		}
		if !hasTree {
			return nil
		}
		ent := lt.pop()
		data, tomb, err := c.resolve(ent.v)
		if err != nil {
			c.busy = true
			return err
		}
		if annotated {
			atomic.AddUint64(&c.st.rangeRefHits, 1)
		}
		if tomb {
			continue
		}
		if err := fn(ent.k, data); err != nil {
			return err
		}
	}
}

// Write implements txn.Ctx, buffering v as the new value of k. The buffer
// must stay unmodified until the transaction's Run returns (the staged
// pointer may be read back by the transaction's own reads and scans);
// install then copies it out — into the worker's payload arena, or a heap
// slice under the ablations — so the caller may reuse v across
// executions.
func (c *execCtx) Write(k txn.Key, v []byte) error {
	return c.stage(k, v, false)
}

// Delete implements txn.Ctx, buffering a tombstone for k.
func (c *execCtx) Delete(k txn.Key) error {
	return c.stage(k, nil, true)
}

func (c *execCtx) stage(k txn.Key, v []byte, del bool) error {
	for i, wk := range c.nd.writes {
		if wk == k {
			c.vals[i] = v
			c.del[i] = del
			if !c.wrote[i] {
				c.wrote[i] = true
				c.nStaged++
			}
			return nil
		}
	}
	err := fmt.Errorf("bohm: write to key %+v outside declared write-set", k)
	if c.writeErr == nil {
		c.writeErr = err
	}
	return err
}
