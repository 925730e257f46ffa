package core

import "bohm/internal/storage"

// The sequencer is BOHM's timestamp-assignment stage (§3.2.1): a single
// goroutine appends every incoming transaction to the logical transaction
// log. A transaction's timestamp is its position in the log, so timestamp
// assignment is an uncontended, counter-free operation.
//
// The sequencer is also the engine's allocator: with pooling on it owns
// the batch free list, drawing nodes and per-node slices from each batch's
// slab and arenas, and recycling retired batches once the watermark gate
// (retireLag) proves them unreachable. Keeping allocation and recycling on
// the one goroutine that already serializes admission makes the whole
// scheme lock-free.

// newBatch allocates a fresh batch — the cold path; pooled engines prefer
// recycled batches.
func (e *Engine) newBatch(seq uint64) *batch {
	b := &batch{seq: seq, nodes: make([]*node, 0, e.cfg.BatchSize)}
	if e.retireCh != nil {
		b.ents = make([]entArena, e.nparts)
	}
	return b
}

// sequencer consumes submissions, wraps their transactions into nodes with
// consecutive timestamps, groups them into batches of cfg.BatchSize, and
// fans each batch out to every CC worker. Partial batches flush as soon as
// no submission is waiting, so small workloads are never stuck behind the
// batch size.
func (e *Engine) sequencer() {
	defer e.seqWG.Done()
	defer func() {
		for _, ch := range e.seqOut {
			close(ch)
		}
	}()

	pooled := e.retireCh != nil
	// free and pending are the retire ring's sequencer side: pending holds
	// executed batches still inside the retireLag window, free holds
	// recycled ones ready for reuse. Plain locals — only this goroutine
	// touches them.
	var free, pending []*batch

	// recycle drains the retire ring and moves every batch past the
	// watermark gate onto the free list.
	recycle := func() {
	drain:
		for {
			select {
			case b := <-e.retireCh:
				pending = append(pending, b)
			default:
				break drain
			}
		}
		if len(pending) == 0 {
			return
		}
		wm := e.watermark()
		if wm <= retireLag {
			return
		}
		safe := wm - retireLag
		keep := pending[:0]
		for _, b := range pending {
			switch {
			case b.seq > safe:
				keep = append(keep, b)
			case len(free) < maxFreeBatches:
				e.arenaBytes.Add(b.resetForReuse())
				e.arenaBatches.Add(1)
				free = append(free, b)
			default:
				// Free list full: burst memory returns to the runtime.
			}
		}
		pending = keep
	}

	// acquire returns the next batch to fill, recycled when possible.
	acquire := func(seq uint64) *batch {
		if pooled {
			recycle()
			if n := len(free); n > 0 {
				b := free[n-1]
				free[n-1] = nil
				free = free[:n-1]
				b.seq = seq
				return b
			}
		}
		return e.newBatch(seq)
	}

	// Timestamps start at 1: timestamp 0 is reserved for loaded data,
	// and batch sequence seqBase is the "nothing executed yet" GC
	// watermark (seqBase is 0 on a fresh engine; after recovery it
	// continues the previous epoch's numbering).
	nextTS := uint64(1)
	nextBatch := e.seqBase + 1
	cur := acquire(nextBatch)

	// emit flushes cur unconditionally — including an empty batch, the
	// idle-tick case: a zero-node batch still runs every phase's
	// lifecycle (watermark advance, limbo release, reap sweep, trims)
	// and that lifecycle is exactly what an idle tick is for. flush, the
	// normal path, skips empties.
	var emit func()
	flush := func() {
		if len(cur.nodes) == 0 {
			return
		}
		emit()
	}
	emit = func() {
		cur.limitTS = nextTS
		if o := e.obs; o != nil {
			cur.obs.seq = o.now()
		}
		// Durability hook: append the batch to the command log before
		// fan-out. Under SyncEveryBatch this is also where the fsync
		// happens, so a batch entering the CC phase is already durable;
		// under the other policies the acknowledgement path waits on the
		// writer's durable mark instead. All submissions coalesced into
		// this batch share the one append (group commit).
		//
		// An append error means the writer exhausted its repair budget:
		// the batch was never logged, so it must never execute — recovery
		// replays only the log, and executing it here would expose state a
		// restart cannot reproduce. Degrade the engine, fail the batch's
		// transactions, and reuse the batch (same sequence) for whatever
		// comes next; batches.Add stays below the log hook so the batch
		// count never includes a dropped batch (waitQuiesce and the idle
		// loop compare it against the execution watermark).
		if e.logOn.Load() {
			logged := false
			if !e.degraded() {
				if err := e.logBatch(cur); err != nil {
					e.setDegraded(err)
				} else {
					logged = true
					if o := e.obs; o != nil {
						cur.obs.log = o.now()
					}
				}
			}
			if !logged && len(cur.nodes) > 0 {
				derr := e.durabilityLostError()
				for _, nd := range cur.nodes {
					// The submission's acknowledged-batch bump must not
					// run: this batch never executes, so raising the
					// recency floor to it would wedge later reads.
					nd.sub.noAck.Store(true)
					nd.sub.finish(nd.idx, derr)
				}
				nextTS = cur.limitTS - uint64(len(cur.nodes))
				_ = cur.resetForReuse()
				return
			}
			// A degraded empty batch (idle tick) proceeds unlogged: it
			// carries no transactions, so recovery is unaffected, and the
			// lifecycle work it drives keeps the degraded engine's read
			// side reclaiming.
		}
		e.batches.Add(1)
		if e.trackTS {
			e.recordBatchTS(cur.seq, nextTS)
		}
		if e.cfg.Preprocess && cur.ppOff == nil {
			// Plan spine: per-preprocessing-worker offset and cursor rows.
			// The per-worker item slabs size themselves on first fill; all
			// of it survives recycling.
			pp := e.cfg.PreprocessWorkers
			cur.ppItems = make([][]planItem, pp)
			cur.ppOff = make([][]int32, pp)
			cur.ppCur = make([][]int32, pp)
			cur.ppNW = make([][]int32, pp)
			for j := 0; j < pp; j++ {
				cur.ppOff[j] = make([]int32, e.nparts+1)
				cur.ppCur[j] = make([]int32, e.nparts)
				cur.ppNW[j] = make([]int32, e.nparts)
			}
		}
		for _, ch := range e.seqOut {
			ch <- cur
		}
		nextBatch++
		cur = acquire(nextBatch)
	}

	enqueue := func(sub *submission) {
		if e.logOn.Load() && e.degraded() {
			// The submission raced the ExecuteBatch health check and the
			// degradation. Fail it here, before it consumes timestamps.
			derr := e.durabilityLostError()
			sub.noAck.Store(true)
			for i := range sub.txns {
				sub.finish(sub.origIdx(i), derr)
			}
			return
		}
		for i, t := range sub.txns {
			// First stamp wins: submissions drain in arrival order, so the
			// batch's earliest-arrival stamp is the first one recorded into
			// it (a submission spanning a flush stamps the next batch too).
			if sub.obsT0 != 0 && cur.obs.submit == 0 {
				cur.obs.submit = sub.obsT0
			}
			var nd *node
			if pooled {
				nd = cur.newNode()
				// Full re-initialization: the slot may have carried a
				// transaction of an earlier epoch.
				nd.err = nil
				nd.state.Store(stUnprocessed)
			} else {
				nd = &node{}
			}
			nd.t = t
			nd.ts = nextTS
			nd.reads = t.ReadSet()
			nd.writes = t.WriteSet()
			nd.ranges = t.RangeSet()
			nd.writeVers, nd.readRefs, nd.rangeRefs = nil, nil, nil
			nd.sub = sub
			nd.idx = sub.origIdx(i)
			nextTS++
			// Slots are allocated here, before fan-out, because several
			// CC workers fill disjoint entries of the same slice
			// concurrently (intra-transaction parallelism, §3.2.2). With
			// pooling they are carved from the batch's arenas; arena
			// windows come back zeroed, which the CC phase relies on for
			// readRefs slots of never-written keys.
			if n := len(nd.writes); n > 0 {
				if pooled {
					nd.writeVers = cur.refs.carve(n)
				} else {
					nd.writeVers = make([]*storage.Version, n)
				}
			}
			if n := len(nd.reads); n > 0 && !e.cfg.DisableReadRefs {
				if pooled {
					nd.readRefs = cur.refs.carve(n)
				} else {
					nd.readRefs = make([]*storage.Version, n)
				}
			}
			if n := len(nd.ranges); n > 0 && !e.cfg.DisableReadRefs {
				// rangeRefs[r][p]: every CC worker annotates its own
				// partition's slice of every declared range.
				if pooled {
					nd.rangeRefs = cur.rangeSpines.carve(n)
					for r := range nd.rangeRefs {
						nd.rangeRefs[r] = cur.rangeRows.carve(e.nparts)
					}
				} else {
					nd.rangeRefs = make([][][]rangeEntry, n)
					for r := range nd.rangeRefs {
						nd.rangeRefs[r] = make([][]rangeEntry, e.nparts)
					}
				}
			}
			cur.nodes = append(cur.nodes, nd)
			// The newest batch holding one of the submission's
			// transactions; the acknowledgement path waits for it to be
			// durable. Written before fan-out, read after completion.
			sub.lastBatch = cur.seq
			if len(cur.nodes) == e.cfg.BatchSize {
				flush()
			}
		}
	}

	for sub := range e.subCh {
		if sub.tick {
			// Idle-reclamation tick. cur is always empty at the outer
			// receive (every path below flushes before looping back), so
			// this emits a pure-lifecycle empty batch.
			emit()
			continue
		}
		enqueue(sub)
		// Opportunistically drain whatever else is already queued, then
		// flush the partial batch so waiting submitters make progress.
	drain:
		for {
			select {
			case more, ok := <-e.subCh:
				if !ok {
					flush()
					return
				}
				if more.tick {
					// Real work is queued with it; the tick is moot.
					continue
				}
				enqueue(more)
			default:
				break drain
			}
		}
		flush()
	}
	flush()
}
