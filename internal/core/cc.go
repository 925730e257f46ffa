package core

import (
	"sync/atomic"

	"bohm/internal/storage"
	"bohm/internal/txn"
)

// ccWorker is one concurrency control thread (§3.2.2–§3.2.4). Worker w
// is the single writer of hash partition w for the engine's lifetime: for
// every transaction in every batch it inserts placeholder versions for the
// write-set keys the partition owns, annotates read-set keys with direct
// version references, and — with GC enabled — collects superseded versions
// below the execution watermark. Every key is hashed once; the same hash
// selects the partition, probes the per-batch hot-key memo and probes the
// hash table.
//
// CC workers process batches fully independently; the only coordination is
// the per-batch report to the forwarder, which hands a batch to the
// execution phase once every CC worker is done with it.
//
// Without pre-processing, every CC worker examines every transaction and
// filters by partition (the paper's base design); with pre-processing the
// worker walks a pre-computed, hash-carrying per-partition work list
// instead.
//
// The worker is also its partition's index-lifecycle owner: once per batch
// it sweeps a bounded slice of the ordered directory and reaps keys whose
// newest surviving version is a tombstone below the watermark — the single
// writer of a partition is the only goroutine that ever unlinks directory
// entries, deletes hash slots or detaches chains, so reaping adds no
// atomics to the write path and inherits the same epoch argument that
// protects chain GC.
func (e *Engine) ccWorker(w int) {
	defer e.ccWG.Done()
	reapOn := e.cfg.GC && !e.cfg.DisableReaping
	memo := newCCMemo()
	// grab is the worker's batched-placeholder scratch (planned path); it
	// grows to the largest per-partition write run and is reused forever.
	var grab []*storage.Version

	for b := range e.ccIn[w] {
		e.ccBatch(w, b, memo, &grab)
		// Stage stamps: the first worker to finish CASes the barrier-start
		// stamp, every worker maxes the barrier-end stamp. Metrics-off
		// engines skip both.
		if o := e.obs; o != nil {
			now := o.now()
			b.obs.ccFirst.CompareAndSwap(0, now)
			for {
				cur := b.obs.ccLast.Load()
				if now <= cur || b.obs.ccLast.CompareAndSwap(cur, now) {
					break
				}
			}
		}
		// Batch barrier (§3.2.4): report completion to the forwarder,
		// which releases the batch to the execution phase once every CC
		// worker has finished it.
		e.ccDone[w] <- b
		// Pool release and the reap sweep run after the barrier report,
		// overlapping the batch's execution phase instead of gating it.
		// The work is per-batch bookkeeping — nothing in this batch's CC
		// step depends on it (see partitionLifecycle for why it stays
		// correct).
		e.partitionLifecycle(w, b.seq, reapOn)
	}
	close(e.ccDone[w])
}

// ccBatch runs worker w's CC work for one batch: the preprocessed plan for
// partition w, or the full node scan filtered to it.
func (e *Engine) ccBatch(w int, b *batch, memo *ccMemo, grab *[]*storage.Version) {
	var wm uint64
	wmValid := false
	wmLookup := func() uint64 {
		if !wmValid {
			wm = e.watermark()
			wmValid = true
		}
		return wm
	}
	if b.ppOff != nil {
		e.runPlannedKernel(w, b, memo, wmLookup, grab)
	} else {
		e.runUnplanned(w, b, memo, wmLookup)
	}
}

// partitionLifecycle is partition p's per-batch lifecycle, run by its
// owning CC worker: version-pool release and the bounded reap sweep. It
// runs after the barrier report, where it overlaps the execution phase
// instead of sitting on the CC stage's critical path. Running it after
// the batch's CC step is safe on all three axes:
//
//   - Reaping after the CC step: a reapable key's newest version is a
//     ready tombstone at or below the watermark, which every transaction
//     in this batch reads as not-found either way — annotated references
//     resolve the still-intact tombstone (versions survive until the
//     retire epoch drains). A key this batch also wrote is simply not
//     reaped (its head is no longer a ready tombstone).
//   - Pool release: releases run between batch b's CC step and batch
//     b+1's, with a watermark at least as fresh as any earlier release
//     saw (safe: monotone).
//   - The memo: epoch-tagged by batch and private to the partition's
//     single owner, so a chain detached here is never consulted again —
//     the next batch's probes carry a new epoch.
//
// The sweep retires under the just-reported batch's sequence: it is an
// extended CC step of batch b, and its retires drain only once the
// watermark passes b by retireLag.
func (e *Engine) partitionLifecycle(p int, batchSeq uint64, reapOn bool) {
	pool := e.poolOf(p)
	if pool == nil && !reapOn {
		return
	}
	wm := e.watermark()
	if pool != nil && wm > retireLag {
		// Recycle versions whose retire epoch has drained: collected during
		// the CC step of a batch the watermark has passed by retireLag (see
		// the lifetime argument at retireLag).
		pool.Release(wm - retireLag)
	}
	if reapOn {
		e.reapSweep(p, e.parts[p], pool, &e.ccStats[p], &e.partCC[p], batchSeq, wm)
	}
}

// runUnplanned is the no-preprocessing CC path: every worker scans every
// node and keeps the keys that hash to its partition.
func (e *Engine) runUnplanned(p int, b *batch, memo *ccMemo, wmLookup func() uint64) {
	m := e.nparts
	part := e.parts[p]
	pool := e.poolOf(p)
	var ks kernelStats
	for _, nd := range b.nodes {
		// Reads and range annotations first: a read-modify-write must
		// observe the version preceding the transaction's own write, so
		// annotations must happen before this transaction's placeholders
		// land.
		if nd.readRefs != nil {
			for i, k := range nd.reads {
				h, kp := keyHashPart(k, m)
				if kp != p {
					continue
				}
				// Versions are pushed in timestamp order, so the head is
				// exactly the newest version with Begin < nd.ts.
				if ch := memo.lookup(part, h, k, b.seq); ch != nil {
					nd.readRefs[i] = ch.Head()
				}
			}
		}
		if nd.rangeRefs != nil {
			for r := range nd.ranges {
				e.annotateRange(p, b, nd, r)
			}
		}
		for i, k := range nd.writes {
			if h, kp := keyHashPart(k, m); kp == p {
				e.insertPlaceholderHashed(p, part, &ks, pool, memo, nd, i, h, b.seq, wmLookup, nil)
			}
		}
	}
	ks.flush(&e.ccStats[p])
}

// poolOf returns partition p's version pool, nil under DisablePooling.
func (e *Engine) poolOf(p int) *storage.VersionPool {
	if e.vpools == nil {
		return nil
	}
	return e.vpools[p]
}

// ccPartState is one partition's CC-side mutable state: the iterators and
// cursors that persist across batches. annoIter serves range annotation,
// reapIter the lifecycle sweep; both keep skiplist fingers so neither pays
// a full descent per use. Only the partition's owning CC worker touches
// the struct.
type ccPartState struct {
	annoIter   storage.DirIter
	reapIter   storage.DirIter
	reapCursor txn.Key
	// reapBudget is the adaptive sweep budget, scaled each sweep by the
	// tombstone hit rate the previous sweep observed (fixed at
	// reapSweepPerBatch under Config.DisableAdaptiveReap).
	reapBudget int32
}

// reapSweepPerBatch is the fixed per-partition sweep budget: how many
// directory keys one sweep examines, so the lifecycle work per batch is
// O(1) regardless of table size; the cursor wraps, covering the whole
// directory over successive batches. It is the adaptive budget's starting
// point and the constant budget under DisableAdaptiveReap.
const reapSweepPerBatch = 256

// Adaptive budget bounds: a mass delete doubles the budget geometrically
// up to reapBudgetMax (converging in O(log) sweeps instead of
// O(dead/256)), a quiescent directory decays to reapBudgetMin so
// steady-state batches pay less lifecycle work than the fixed baseline.
const (
	reapBudgetMin = 64
	reapBudgetMax = 4096
)

// nextReapBudget scales the sweep budget by the observed tombstone hit
// rate: reaping more than 1/8 of the examined keys doubles it, reaping
// nothing halves it, anything between holds it steady.
func nextReapBudget(cur int32, reaped, examined int) int32 {
	switch {
	case examined > 0 && reaped*8 >= examined:
		cur *= 2
	case reaped == 0:
		cur /= 2
	}
	if cur < reapBudgetMin {
		return reapBudgetMin
	}
	if cur > reapBudgetMax {
		return reapBudgetMax
	}
	return cur
}

// reapSweep is the index-lifecycle pass: it resumes the partition's sweep
// cursor and examines up to the partition's budget of directory keys,
// reaping each key whose chain head is a ready tombstone from a batch at
// or below the watermark. Such a key is invisible to every live and future
// reader — any transaction still executing (or any snapshot reader, whose
// epoch caps the watermark) has a timestamp above the tombstone — so
// unlinking the directory entry, freeing the hash slot and detaching the
// chain changes no observable result; the detached versions retire through
// the version-pool limbo under the batch's sequence, exactly like chain-GC
// cuts, and are not reused until the retireLag epoch drains.
func (e *Engine) reapSweep(p int, part *storage.Map[storage.Chain], pool *storage.VersionPool,
	st *workerStats, ps *ccPartState, batchSeq, wm uint64) {
	budget := int(ps.reapBudget)
	if e.cfg.DisableAdaptiveReap {
		budget = reapSweepPerBatch
	}
	d := e.dirs[p]
	it := &ps.reapIter
	if !it.SeekGE(d, ps.reapCursor) {
		// Past the end (or empty): wrap to the start for the next batch.
		ps.reapCursor = txn.Key{}
		return
	}
	examined, reaped := 0, 0
	next := txn.Key{} // wraps unless the budget runs out mid-directory
	for {
		k := it.Key()
		more := it.Next() // step off k before a reap unlinks its node
		examined++
		if e.maybeReap(p, part, pool, st, k, batchSeq, wm) {
			reaped++
		}
		if !more {
			break
		}
		if examined >= budget {
			next = it.Key()
			break
		}
	}
	ps.reapCursor = next
	if !e.cfg.DisableAdaptiveReap {
		ps.reapBudget = nextReapBudget(int32(budget), reaped, examined)
	}
}

// maybeReap reaps k if its record is proven dead: the chain's newest
// version is a ready tombstone created in a batch at or below wm. Reports
// whether it reaped — the signal the adaptive budget scales on.
func (e *Engine) maybeReap(p int, part *storage.Map[storage.Chain], pool *storage.VersionPool,
	st *workerStats, k txn.Key, batchSeq, wm uint64) bool {
	h := k.Hash()
	ch := part.GetHashed(k, h)
	if ch == nil {
		return false
	}
	head := ch.Head()
	if head == nil || !head.Ready() || head.Batch > wm {
		return false
	}
	if _, tomb := head.Data(); !tomb {
		return false
	}
	// Order matters for lock-free readers: the directory entry goes first
	// (scans stop finding k; point reads still resolve the tombstone),
	// then the hash slot (point reads go not-found), then the chain
	// detaches (readers that already hold it see the intact tombstone
	// until the retire epoch drains). Every path reports k dead, which is
	// what the tombstone already reported.
	dirBytes, _ := e.dirs[p].Remove(k)
	part.DeleteHashed(k, h)
	vers := ch.DetachAll()
	n := uint64(0)
	for v := vers; v != nil; v = v.Prev() {
		n++
	}
	if pool != nil {
		pool.Retire(vers, batchSeq)
	}
	atomic.AddUint64(&st.keysReaped, 1)
	atomic.AddUint64(&st.dirBytesReclaimed, dirBytes)
	atomic.AddUint64(&st.versionsCollected, n)
	return true
}

// insertPlaceholderHashed creates the uninitialized version for write slot
// i of nd — drawn from the partition's version pool when pooling is on —
// links it into the record's chain, registers first-ever keys in the
// partition's ordered directory, and opportunistically garbage collects
// the chain's tail below the execution watermark, handing collected
// versions back to the pool. The caller supplies the key's hash (computed
// once, at partition selection) and the per-batch memo: a memo hit on a
// live chain skips the hash-table probe entirely — the hot-key case under
// skew; a memoized absence or a miss falls through to one single-hash
// GetOrInsert and memoizes the result, upgrading a previously memoized
// absence in place. Stat counts accumulate into the caller's plain locals
// (st), flushed with one atomic add per partition instead of two per
// write.
func (e *Engine) insertPlaceholderHashed(p int, part *storage.Map[storage.Chain], st *kernelStats,
	pool *storage.VersionPool, memo *ccMemo, nd *node, i int, h uint64, batchSeq uint64,
	wmLookup func() uint64, v *storage.Version) {
	k := nd.writes[i]
	if v != nil {
		// Pre-grabbed by runPlannedKernel's batched acquisition; only
		// the per-write stamp remains.
		v.InitPlaceholder(nd.ts, batchSeq, nd)
	} else if pool != nil {
		v = pool.NewPlaceholder(nd.ts, batchSeq, nd)
	} else {
		v = storage.NewPlaceholder(nd.ts, batchSeq, nd)
	}
	chain, hit := memo.get(h, k, batchSeq)
	created := false
	if !hit || chain == nil {
		var err error
		chain, created, err = part.GetOrInsertHashed(k, h, func() *storage.Chain {
			return storage.NewChain(nil)
		})
		if err != nil {
			// Index full: fail the placeholder so the execution phase
			// aborts the transaction instead of hanging.
			v.Install(nil, true)
			nd.writeVers[i] = v
			return
		}
		memo.put(h, k, chain, batchSeq)
	}
	chain.Push(v)
	if created {
		// Directory maintenance happens here — at placeholder-insertion
		// time — which is what makes range scans phantom-free: the key
		// becomes scannable in the same pipeline step that fixes its
		// version's place in the serial order. The push above precedes
		// the directory insert, so a directory key always has a chain head
		// within this partition.
		e.dirs[p].Insert(k)
	}
	nd.writeVers[i] = v
	st.created++
	if e.cfg.GC {
		if head, n := chain.CollectReclaim(wmLookup()); n > 0 {
			st.collected += uint64(n)
			if pool != nil {
				// Park the cut sublist until the retire epoch of this batch
				// drains; without a pool the sublist is simply abandoned to
				// the runtime's collector.
				pool.Retire(head, batchSeq)
			}
		}
	}
}

// kernelStats is the CC path's per-partition stat accumulator:
// plain counters bumped per write, flushed to the shared workerStats with
// one atomic add per counter per partition.
type kernelStats struct {
	created   uint64
	collected uint64
}

// flush adds the accumulated counts to partition stats st and zeroes the
// accumulator.
func (ks *kernelStats) flush(st *workerStats) {
	if ks.created != 0 {
		atomic.AddUint64(&st.versionsCreated, ks.created)
	}
	if ks.collected != 0 {
		atomic.AddUint64(&st.versionsCollected, ks.collected)
	}
	*ks = kernelStats{}
}

// annotateRange fills nd.rangeRefs[r][p]: partition p's keys inside
// declared range r, each with its chain head at this point of the CC
// stream. Because the owning worker processes transactions in timestamp
// order and annotates before inserting nd's own placeholders, the head is
// exactly the newest version with Begin < nd.ts — the version a
// serializable scan at nd.ts must observe. Keys created by
// later-timestamped transactions are not yet in the directory, and keys
// created by earlier ones all are: the annotation is a phantom-free
// snapshot of the range by construction. (Keys reaped by this worker are
// equally consistent: reaping requires a tombstone below the watermark,
// which every transaction in this batch would have read as not-found
// anyway.)
//
// When the partition's key fences exclude the declared range outright the
// directory walk is skipped entirely — the annotation is the empty set by
// the same argument, since a fence admits every key inserted before this
// point of the CC stream. Otherwise the walk resumes the partition's
// persistent iterator, whose finger turns the per-range skiplist descent
// into an O(log distance) relocation.
func (e *Engine) annotateRange(p int, b *batch, nd *node, r int) {
	d := e.dirs[p]
	if d.ExcludesRange(nd.ranges[r]) {
		atomic.AddUint64(&e.ccStats[p].rangeFenceSkips, 1)
		nd.rangeRefs[r][p] = nil
		return
	}
	part := e.parts[p]
	it := &e.partCC[p].annoIter
	var ents []rangeEntry
	pooled := b.ents != nil
	if pooled {
		ents = b.ents[p].take()
	}
	limit := nd.ranges[r].LimitKey()
	for ok := it.SeekGE(d, nd.ranges[r].FirstKey()); ok && it.Key().Less(limit); ok = it.Next() {
		if c := part.Get(it.Key()); c != nil {
			if h := c.Head(); h != nil {
				ents = append(ents, rangeEntry{k: it.Key(), v: h})
			}
		}
	}
	if pooled {
		ents = b.ents[p].commit(ents)
	}
	nd.rangeRefs[r][p] = ents
}

// ownedKeys reports how many of ks belong to partition w; used by tests to
// validate the partitioning function's balance.
func (e *Engine) ownedKeys(ks []txn.Key, w int) int {
	n := 0
	for _, k := range ks {
		if e.partitionOf(k) == w {
			n++
		}
	}
	return n
}
