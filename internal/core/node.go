// Package core implements BOHM, the concurrency control protocol of
// Faleiro & Abadi, "Rethinking serializable multiversion concurrency
// control" (VLDB 2015).
//
// A transaction flows through two phases run by two disjoint sets of
// goroutines (§3):
//
//  1. Concurrency control: a single sequencer assigns each transaction a
//     timestamp (its position in the transaction log), then m CC workers —
//     each owning a hash partition of the keyspace — insert uninitialized
//     placeholder versions for every write and annotate reads with direct
//     version references. CC workers never coordinate except at batch
//     boundaries.
//  2. Execution: n execution workers evaluate transaction logic, filling
//     in placeholder data. Read dependencies on unproduced versions are
//     resolved by recursively executing the producing transaction, or by
//     suspending and retrying when another worker holds it.
//
// Reads never block writes; no reads are tracked; no global counter is
// touched on the transaction execution path.
package core

import (
	"sync/atomic"
	"unsafe"

	"bohm/internal/storage"
	"bohm/internal/txn"
)

// Transaction execution states (§3.3.1).
const (
	stUnprocessed int32 = iota
	stExecuting
	stComplete
)

// node is the engine's per-transaction record: the user transaction plus
// everything the two phases attach to it.
type node struct {
	t  txn.Txn
	ts uint64

	// Cached access sets (Txn implementations may rebuild slices per
	// call; the engine reads them many times).
	reads  []txn.Key
	writes []txn.Key
	ranges []txn.KeyRange

	// writeVers[i] is the placeholder version the CC phase inserted for
	// writes[i]. Written by exactly one CC worker per slot, read by
	// execution workers after the batch barrier.
	writeVers []*storage.Version

	// readRefs[i] is the version reads[i] must observe, annotated by the
	// CC phase when the read-reference optimization is enabled (§3.2.3).
	// nil slots fall back to version-chain traversal.
	readRefs []*storage.Version

	// rangeRefs[r][p] is CC worker p's annotation of declared range
	// ranges[r]: the keys of partition p inside the range, in key order,
	// each with the version visible at nd.ts (the partition head at the
	// moment worker p processed this transaction — exactly the newest
	// version below nd.ts, by the same in-timestamp-order argument as
	// readRefs). Each [r][p] slot is written by exactly one CC worker and
	// read by execution workers after the batch barrier. nil when range
	// annotation is disabled; scans then walk the directories live.
	rangeRefs [][][]rangeEntry

	// state is the Unprocessed → Executing → Complete machine. The
	// worker that CASes Unprocessed→Executing owns the attempt; it either
	// finalizes to Complete or restores Unprocessed when suspended on a
	// busy dependency.
	state atomic.Int32

	// err is the transaction's outcome, written before state flips to
	// Complete.
	err error

	// sub points back to the submission this transaction arrived in, and
	// idx is its slot in the submission's result slice.
	sub *submission
	idx int
}

// rangeEntry is one key of a CC-time range annotation: the key and the
// version a scan at the annotated transaction's timestamp must observe.
type rangeEntry struct {
	k txn.Key
	v *storage.Version
}

// submission is one ExecuteBatch call: a slice of transactions awaiting
// results.
type submission struct {
	txns      []txn.Txn
	res       []error
	remaining atomic.Int64
	done      chan struct{}

	// tick marks an idle-reclamation nudge rather than a real submission
	// (see Engine.idleLoop): the sequencer answers it with an empty batch
	// — pure lifecycle work — when the pipeline is drained, and discards
	// it otherwise. Every other field is zero; nothing waits on done.
	tick bool

	// orig maps txns indices back to result slots when ExecuteBatch
	// rejected some transactions before submission (duplicate write-set
	// keys); nil means the identity mapping.
	orig []int

	// ackCh, when non-nil (durability enabled at submit time), receives
	// the submission once every transaction has completed; the acker
	// goroutine closes done only after lastBatch is durable. When nil,
	// complete closes done directly.
	ackCh chan *submission
	// lastBatch is the newest batch containing one of the submission's
	// transactions. The sequencer writes it before batch fan-out; the
	// acker reads it after execution completes, so the channel hand-offs
	// between the phases order the accesses. (A completing fast-path
	// reader may also load it, synchronized through the remaining
	// counter: the pipelined transactions' decrements order the
	// sequencer's store before the final decrement's load.) Zero for a
	// submission with no pipelined transactions.
	lastBatch uint64

	// obsT0 is the ExecuteBatch arrival stamp (nanoseconds on the obs
	// clock) when metrics are on, 0 otherwise; the sequencer copies it
	// into each batch's earliest-submission stamp.
	obsT0 int64

	// acked, when the read-only fast path is enabled, points at the
	// engine's acknowledged-batch high-water mark; see finish.
	acked *atomic.Uint64

	// noAck suppresses the acknowledged-batch bump: set by the sequencer
	// before failing a submission whose batch was dropped on a log
	// failure. The dropped batch never executes, so publishing its
	// sequence as the recency floor would make later reads wait on a
	// watermark that can never be reached. Atomic because the final
	// release may run on any worker.
	noAck atomic.Bool

	// recency is the acknowledged-batch bound loaded at submission time:
	// the fast path's snapshot must cover every batch acknowledged before
	// this submission arrived — and deliberately nothing newer, so reads
	// never queue behind writes acknowledged after them.
	recency uint64
}

// origIdx returns the result slot for txns[i].
func (s *submission) origIdx(i int) int {
	if s.orig == nil {
		return i
	}
	return s.orig[i]
}

// complete records the outcome of node nd and, if it is the submission's
// last outstanding transaction, wakes the submitter — directly, or via
// the durability acknowledgement queue when the engine is logging.
func (s *submission) complete(nd *node) {
	s.finish(nd.idx, nd.err)
}

// finish records err as the outcome of result slot idx.
func (s *submission) finish(idx int, err error) {
	s.res[idx] = err
	s.release(1)
}

// release retires n completed transactions. The last outstanding one
// publishes the submission's newest batch to the engine's
// acknowledged-batch bound (the read-only fast path's recency target)
// before waking the submitter, so a reader submitted after the wake never
// misses these writes. Result-slot writes by the retiring workers are
// ordered before the submitter's reads by the counter and the wake.
func (s *submission) release(n int64) {
	if s.remaining.Add(-n) == 0 {
		if s.acked != nil && s.lastBatch > 0 && !s.noAck.Load() {
			for {
				cur := s.acked.Load()
				if s.lastBatch <= cur || s.acked.CompareAndSwap(cur, s.lastBatch) {
					break
				}
			}
		}
		if s.ackCh != nil {
			s.ackCh <- s
		} else {
			close(s.done)
		}
	}
}

// batch is the unit of coordination between phases (§3.2.4): CC workers
// synchronize once per batch; a forwarder goroutine implements the batch
// barrier and hands batches to the execution phase in sequence order.
//
// With pooling enabled (the default), a batch is also the unit of memory
// recycling: its nodes live in a slab, its per-node slices are carved from
// per-batch arenas, and the whole object cycles back to the sequencer
// through the engine's retire ring once the execution watermark proves no
// reader can still touch it (see the retireLag argument below).
type batch struct {
	seq   uint64
	nodes []*node
	// limitTS is the first timestamp after the batch (exclusive upper
	// bound of its transactions' timestamps). The sequencer writes it at
	// flush time; execution workers republish it as their snapshot
	// boundary contribution when the batch completes, which is how the
	// read-only fast path converts the execution watermark from batch
	// space into timestamp space.
	limitTS uint64

	// Plan state, when pre-processing is enabled (§3.2.2): ppItems[j] is
	// preprocessing worker j's dense partition-major slab of hash-carrying
	// plan items, built by a private counting sort; ppOff[j][p]..
	// ppOff[j][p+1] is worker j's window of partition p's work, ppCur[j]
	// its fill cursors, and ppNW[j][p] the number of write items in that
	// window — the CC worker's batched-placeholder grab count (see
	// preprocKernel). Every row is touched by exactly one worker, so the
	// stage needs no shared state; all of it persists across batch epochs.
	ppItems [][]planItem
	ppOff   [][]int32
	ppCur   [][]int32
	ppNW    [][]int32

	// Arena state, populated only when pooling is on.
	//
	// nodeBuf is the slab backing the batch's nodes: node i of the batch
	// is &nodeBuf[i], so a steady-state batch allocates no node memory at
	// all. refs backs the writeVers and readRefs slices; rangeSpines and
	// rangeRows back the two outer levels of rangeRefs; ents[w] is CC
	// worker w's private arena for range-annotation entries. All are
	// reset — not freed — when the batch recycles.
	nodeBuf     []node
	refs        arena[*storage.Version]
	rangeSpines arena[[][]rangeEntry]
	rangeRows   arena[[]rangeEntry]
	ents        []entArena

	// execDone counts execution workers finished with the batch; the
	// worker that completes it pushes the batch into the retire ring.
	execDone atomic.Int32

	// obs carries the batch's stage timestamps when metrics are on; all
	// zero (and untouched) otherwise.
	obs batchObs
}

// batchObs is one batch's stage-timestamp record, nanoseconds on the
// engine's obs clock. submit/seq/log are written by the sequencer before
// fan-out (channel sends order them for all downstream readers); ccFirst
// and ccLast are racing CC-worker stamps, and done is the obs-private
// completion counter — distinct from execDone, which only exists under
// pooling — whose final increment elects the execution worker that folds
// the timeline into the histograms (obsRecordBatch).
type batchObs struct {
	submit  int64 // earliest submission arrival in the batch
	seq     int64 // sequencer flush
	log     int64 // command-log append returned (0 when not logging)
	ccFirst atomic.Int64
	ccLast  atomic.Int64
	done    atomic.Int32
}

// reset clears the stamps for the batch's next epoch. Only the sequencer
// calls it, after the retire gate proved the batch unreachable.
func (bo *batchObs) reset() {
	bo.submit, bo.seq, bo.log = 0, 0, 0
	bo.ccFirst.Store(0)
	bo.ccLast.Store(0)
	bo.done.Store(0)
}

// newNode returns the next node of the batch's slab. Only the sequencer
// calls it, and only when pooling is on.
func (b *batch) newNode() *node {
	if b.nodeBuf == nil {
		b.nodeBuf = make([]node, cap(b.nodes))
	}
	return &b.nodeBuf[len(b.nodes)]
}

// execQueueCap is the buffer depth of each execution input channel. The
// retire-ring lifetime argument depends on it; see retireLag.
const execQueueCap = 2

// retireLag is how far past a batch's sequence the execution watermark
// must advance before the batch's memory (nodes, arenas) and the versions
// superseded during its CC step may be reused.
//
// The hazard is a stale pointer: an execution worker resolves a read
// dependency by loading Version.Producer — a *node — but only when the
// version is not yet Ready, and placeholder versions of batch B all become
// Ready before the watermark reaches B (Install precedes Complete precedes
// the worker's watermark store). So after the watermark passes B, no NEW
// load can reach B's nodes; the only danger is a worker that loaded the
// pointer earlier — while some version of B was still unready — and is
// still executing. Such a worker's current batch C was in flight while B
// was: the forwarder releases batches to every worker in sequence order
// through channels of capacity execQueueCap, so while any worker is still
// executing B, the forwarder cannot have handed out any batch past
// B + execQueueCap + 1. Once the watermark reaches B + retireLag, every
// such C has fully drained and no stale pointer into B can exist.
//
// The same bound covers versions cut out of chains by GC during the CC
// step of batch b: a reader can hold a pointer into the cut sublist only
// if it loaded it before the cut, and at cut time execution had not
// reached b (CC precedes execution), so every such reader is in a batch
// ≤ b + retireLag - 1. Fresh traversals never enter a cut region at all —
// the newest superseded version s (which always stays linked) satisfies
// every live reader's and the checkpoint snapshotter's visibility bound,
// so walks stop at or above s.
//
// While periodic checkpointing is active the gate uses watermark(), which
// is additionally capped at the checkpoint pin, so recycling also trails
// the newest checkpoint exactly like garbage collection does.
const retireLag = execQueueCap + 1

// maxFreeBatches bounds the sequencer's batch free list. The pipeline
// holds only a handful of batches in flight (CC and execution queue
// depths plus retireLag), so anything above that is workload burst that
// should return to the runtime.
const maxFreeBatches = 8

// resetForReuse clears a retired batch for the next sequencer epoch and
// returns an estimate of the bytes made reusable. Only the sequencer calls
// it, and only after the watermark gate has proven the batch unreachable.
func (b *batch) resetForReuse() uint64 {
	bytes := uint64(len(b.nodes)) * nodeBytes
	for _, nd := range b.nodes {
		// Drop references eagerly so user transactions, submissions and
		// version slices become collectable now rather than when the slot
		// is next used.
		nd.t = nil
		nd.sub = nil
		nd.reads, nd.writes, nd.ranges = nil, nil, nil
		nd.writeVers, nd.readRefs, nd.rangeRefs = nil, nil, nil
		nd.err = nil
	}
	b.nodes = b.nodes[:0]
	b.execDone.Store(0)
	b.obs.reset()
	bytes += b.refs.reset()
	bytes += b.rangeSpines.reset()
	bytes += b.rangeRows.reset()
	for i := range b.ents {
		bytes += b.ents[i].reset()
	}
	for j := range b.ppItems {
		bytes += uint64(len(b.ppItems[j])) * planItemBytes
		b.ppItems[j] = b.ppItems[j][:0]
	}
	return bytes
}

// arena is a per-batch bump allocator: carve hands out fixed-size windows
// of a backing buffer, and reset clears the used prefix for the next
// epoch. When a batch's demand exceeds the buffer, carve falls back to a
// fresh chunk (earlier windows keep the old chunk alive until the batch
// retires) and reset grows the buffer to the observed demand, so a steady
// workload converges to zero allocations per batch.
type arena[T any] struct {
	buf    []T
	used   int
	demand int
}

// arenaMinChunk is the smallest chunk an arena allocates.
const arenaMinChunk = 1024

func (a *arena[T]) carve(n int) []T {
	a.demand += n
	if a.used+n > len(a.buf) {
		sz := n
		if sz < arenaMinChunk {
			sz = arenaMinChunk
		}
		a.buf = make([]T, sz)
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// reset prepares the arena for the next batch and returns the bytes of
// the recycled used prefix. Windows carved this epoch must be dead (the
// retire gate): the clear below severs their contents, and the next epoch
// reuses their memory.
func (a *arena[T]) reset() uint64 {
	var z T
	bytes := uint64(a.used) * uint64(unsafe.Sizeof(z))
	if a.demand > len(a.buf) {
		a.buf = make([]T, a.demand)
	} else {
		clear(a.buf[:a.used])
	}
	a.used, a.demand = 0, 0
	return bytes
}

// entArena is a per-CC-worker, per-batch arena for range-annotation
// entries. Unlike arena, allocation size is unknown up front — annotations
// grow by append — so the protocol is take (an empty window over the
// buffer's free tail), append at will, then commit (adopt the window into
// the buffer if the appends stayed in place, or record the overflow so
// reset can grow the buffer for the next epoch).
type entArena struct {
	buf      []rangeEntry
	overflow int
}

func (a *entArena) take() []rangeEntry { return a.buf[len(a.buf):] }

func (a *entArena) commit(s []rangeEntry) []rangeEntry {
	if n := len(a.buf) + len(s); n <= cap(a.buf) {
		// The appends never outgrew the tail, so s still aliases buf.
		a.buf = a.buf[:n]
	} else {
		a.overflow += len(s)
	}
	return s
}

func (a *entArena) reset() uint64 {
	bytes := uint64(len(a.buf)) * entBytes
	if a.overflow > 0 {
		n := cap(a.buf) + a.overflow
		if n < arenaMinChunk {
			n = arenaMinChunk
		}
		a.buf = make([]rangeEntry, 0, n)
		a.overflow = 0
	} else {
		// Clear through cap: an overflowing append may have written
		// entries into the tail before escaping.
		clear(a.buf[:cap(a.buf)])
		a.buf = a.buf[:0]
	}
	return bytes
}

// Struct sizes for the bytes-recycled estimate.
var (
	nodeBytes     = uint64(unsafe.Sizeof(node{}))
	entBytes      = uint64(unsafe.Sizeof(rangeEntry{}))
	planItemBytes = uint64(unsafe.Sizeof(planItem{}))
)
