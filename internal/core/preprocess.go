package core

// Pre-processing (§3.2.2): with many CC threads, the fact that *every* CC
// thread examines *every* transaction becomes a serial component (Amdahl's
// law). The paper's remedy is a pre-processing layer that analyzes each
// transaction once and forwards per-partition work lists to the CC
// threads, and notes that the analysis is embarrassingly parallel.
//
// When Config.Preprocess is on, a pool of preprocessing workers sits
// between the sequencer and the CC stage. Worker j handles a contiguous
// stripe of each batch's transactions and bucket-sorts it into its own
// dense, partition-major slab of plan items — each carrying its key's
// precomputed hash — with a private two-pass counting sort (count,
// prefix-sum, fill; no staging buffer, no cross-worker synchronization). A
// CC worker walks one contiguous, cache-linear window per preprocessing
// worker for its partition, and every index touch reuses the carried hash.
//
// Timestamp order per partition is preserved: stripes are contiguous and
// ascending, and worker windows within a partition's slab are walked in
// stripe order.

import (
	"bohm/internal/storage"
)

// planItem kinds: insert a write placeholder, annotate a read reference,
// or annotate a declared range over the partition's directory.
const (
	itemWrite uint8 = iota
	itemRead
	itemRange
)

// planItem is one unit of CC work: annotate a read or a range, or insert
// a write placeholder, for key/range index keyIdx of node nd. hash is the
// key's precomputed 64-bit hash (for range items, a synthesized value
// whose high bits encode the target partition).
type planItem struct {
	nd     *node
	hash   uint64
	keyIdx int32
	kind   uint8
}

// partOfHash recovers the partition a plan item's carried hash routes to —
// the second half of keyHashPart, without re-hashing.
func partOfHash(h uint64, nparts int) int {
	return int((h >> 40) % uint64(nparts))
}

// rangeHash synthesizes a hash routing to partition p: range items carry
// no key, but the bucketing pass still needs their destination. p < nparts
// < 2^24, so (p<<40)>>40 % nparts == p.
func rangeHash(p int) uint64 { return uint64(p) << 40 }

// preprocWorker analyzes its stripe of every batch.
func (e *Engine) preprocWorker(j int) {
	p := e.cfg.PreprocessWorkers
	for b := range e.ppIn[j] {
		stripe := len(b.nodes) / p
		lo := j * stripe
		hi := lo + stripe
		if j == p-1 {
			hi = len(b.nodes)
		}
		e.preprocKernel(j, b, b.nodes[lo:hi])
		e.ppDone[j] <- b
	}
	close(e.ppDone[j])
}

// preprocKernel is the counting-sort plan builder: two passes over the
// stripe, all state private to this worker. Count pass: tally items per
// partition. Prefix-sum: turn tallies into this worker's slab offsets
// (ppOff[j]) and fill cursors (ppCur[j]). Fill pass: write each item at
// its final, partition-major position in the worker's own slab. Hashing
// twice (once per pass) costs a few ns per key and buys the absence of
// any staging buffer or cross-worker handshake — the slab is written
// exactly once, and the pp forwarder is the only barrier in the stage.
func (e *Engine) preprocKernel(j int, b *batch, nodes []*node) {
	m := e.nparts
	off := b.ppOff[j] // len m+1; off[p+1] doubles as partition p's tally
	for p := range off {
		off[p] = 0
	}
	nw := b.ppNW[j] // write items per partition: the placeholder grab count
	for p := range nw {
		nw[p] = 0
	}
	for _, nd := range nodes {
		if nd.readRefs != nil {
			for _, k := range nd.reads {
				_, part := keyHashPart(k, m)
				off[part+1]++
			}
		}
		if nd.rangeRefs != nil {
			// Keys are hash-partitioned, so a range overlaps every
			// partition: each CC worker annotates its own slice.
			n := int32(len(nd.ranges))
			for part := 0; part < m; part++ {
				off[part+1] += n
			}
		}
		for _, k := range nd.writes {
			_, part := keyHashPart(k, m)
			off[part+1]++
			nw[part]++
		}
	}
	cur := b.ppCur[j]
	for p := 0; p < m; p++ {
		off[p+1] += off[p]
		cur[p] = off[p]
	}
	items := b.ppItems[j]
	if total := int(off[m]); total > cap(items) {
		items = make([]planItem, total)
	} else {
		items = items[:total]
	}
	b.ppItems[j] = items // keep grown capacity for the next epoch
	for _, nd := range nodes {
		if nd.readRefs != nil {
			for i, k := range nd.reads {
				h, part := keyHashPart(k, m)
				items[cur[part]] = planItem{nd: nd, hash: h, keyIdx: int32(i), kind: itemRead}
				cur[part]++
			}
		}
		if nd.rangeRefs != nil {
			for r := range nd.ranges {
				for part := 0; part < m; part++ {
					items[cur[part]] = planItem{nd: nd, hash: rangeHash(part), keyIdx: int32(r), kind: itemRange}
					cur[part]++
				}
			}
		}
		for i, k := range nd.writes {
			h, part := keyHashPart(k, m)
			items[cur[part]] = planItem{nd: nd, hash: h, keyIdx: int32(i), kind: itemWrite}
			cur[part]++
		}
	}
}

// ppForwarder is the order-preserving barrier between preprocessing and
// concurrency control, mirroring the CC→execution forwarder.
func (e *Engine) ppForwarder() {
	for {
		var b *batch
		for j := range e.ppDone {
			bj, ok := <-e.ppDone[j]
			if !ok {
				for _, ch := range e.ccIn {
					close(ch)
				}
				return
			}
			if b == nil {
				b = bj
			} else if b != bj {
				panic("bohm: preprocessing workers emitted batches out of order")
			}
		}
		for _, ch := range e.ccIn {
			ch <- b
		}
	}
}

// runPlannedKernel is the pre-processed CC path for partition p: one
// dense, cache-linear window per preprocessing worker (walked in stripe
// order, so the partition stays in timestamp order), every probe reusing
// the carried hash through the per-worker memo — repeat touches of a hot
// key resolve in the 40KB memo instead of re-probing the DRAM-sized hash
// table, so under skew the slot loads a batch performs group into runs
// that stay in cache.
//
// Placeholder versions for the partition's writes are grabbed from the
// pool up front in one run (the preprocess stage counted them): each
// recycled version is an independent cold cache line, and the tight grab
// loop keeps several of those misses in flight where per-write allocation
// would serialize them behind the chain and index work. grab is the
// worker's reusable scratch for the grabbed run.
func (e *Engine) runPlannedKernel(p int, b *batch, memo *ccMemo, wmLookup func() uint64, grab *[]*storage.Version) {
	pool := e.poolOf(p)
	part := e.parts[p]
	var ks kernelStats
	var vs []*storage.Version
	if pool != nil {
		nw := 0
		for j := range b.ppNW {
			nw += int(b.ppNW[j][p])
		}
		if nw > 0 {
			vs = *grab
			if cap(vs) < nw {
				vs = make([]*storage.Version, nw)
				*grab = vs
			}
			vs = vs[:nw]
			pool.GrabPlaceholders(vs)
		}
	}
	wi := 0
	for j := range b.ppItems {
		items := b.ppItems[j][b.ppOff[j][p]:b.ppOff[j][p+1]]
		for i := range items {
			it := &items[i]
			nd := it.nd
			switch it.kind {
			case itemRead:
				if ch := memo.lookup(part, it.hash, nd.reads[it.keyIdx], b.seq); ch != nil {
					nd.readRefs[it.keyIdx] = ch.Head()
				}
			case itemRange:
				e.annotateRange(p, b, nd, int(it.keyIdx))
			default:
				var v *storage.Version
				if vs != nil {
					v = vs[wi]
					wi++
				}
				e.insertPlaceholderHashed(p, part, &ks, pool, memo, nd, int(it.keyIdx), it.hash, b.seq, wmLookup, v)
			}
		}
	}
	// The grabbed versions now live in chains; drop the scratch references
	// so the scratch can never pin a later-trimmed slab.
	clear(vs)
	ks.flush(&e.ccStats[p])
}
