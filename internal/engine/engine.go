// Package engine defines the interface every concurrency control engine in
// this repository implements, plus the statistics snapshot they report.
// The benchmark harness and the public facade program against this
// interface, so BOHM and the four baselines (Hekaton, SI, OCC, 2PL) are
// interchangeable.
package engine

import "bohm/internal/txn"

// Engine is a transaction processing engine over an in-memory store.
//
// Load populates the database before transaction processing starts; it is
// not safe to call concurrently with ExecuteBatch. ExecuteBatch submits a
// set of transactions and blocks until all of them have committed or
// aborted, returning one error slot per transaction (nil = committed).
// Engines with internal retry (the optimistic ones) retry concurrency-
// control-induced aborts internally and only surface user aborts.
type Engine interface {
	Load(k txn.Key, v []byte) error
	ExecuteBatch(ts []txn.Txn) []error
	Stats() Stats
	Close()
}

// Stats is a point-in-time snapshot of an engine's counters. Fields not
// meaningful for a given engine are zero.
type Stats struct {
	// Committed counts transactions that committed.
	Committed uint64
	// UserAborts counts transactions whose logic returned an error.
	UserAborts uint64
	// CCAborts counts concurrency-control-induced aborts (validation
	// failures, write-write conflicts). Retried executions count once per
	// abort.
	CCAborts uint64
	// VersionsCreated counts multiversion placeholder/version allocations.
	VersionsCreated uint64
	// VersionsCollected counts versions reclaimed by garbage collection.
	VersionsCollected uint64
	// ReadRefHits counts reads served through BOHM's read-reference
	// annotation without traversing the version chain.
	ReadRefHits uint64
	// RangeRefHits counts range-scan entries served through BOHM's
	// CC-time range annotation: the version was resolved directly, with
	// no chain traversal.
	RangeRefHits uint64
	// ChainSteps counts version-chain hops performed by reads.
	ChainSteps uint64
	// Requeues counts BOHM executions suspended because a read dependency
	// was being produced by another thread.
	Requeues uint64
	// RecursiveExecs counts transactions executed by a thread other than
	// the one responsible for them (BOHM's cooperative execution).
	RecursiveExecs uint64
	// Batches counts concurrency-control batches processed.
	Batches uint64
	// ArenaBatchesRecycled counts batch objects (node slabs plus their
	// slice arenas) recycled through BOHM's watermark-gated retire ring
	// instead of being handed to the runtime's garbage collector.
	ArenaBatchesRecycled uint64
	// VersionsPooled counts placeholder versions served from a partition's
	// recycled-version free list rather than freshly allocated.
	VersionsPooled uint64
	// BytesRecycled estimates the bytes of engine memory reused through
	// pooling (node slabs, arena windows, recycled version structs).
	BytesRecycled uint64
	// RangeFenceSkips counts partition range walks skipped because the
	// partition directory's min/max key fence excluded the whole range.
	RangeFenceSkips uint64
	// ReadOnlyFastPath counts read-only transactions served by BOHM's
	// snapshot-read fast path — they bypassed the sequencer → CC →
	// execution pipeline entirely and read the multiversion store at the
	// execution watermark. Zero for other engines; under
	// Config.DisableReadOnlyFastPath only the inline Read API (which
	// always serves from the snapshot) still counts here.
	ReadOnlyFastPath uint64
	// KeysReaped counts dead keys fully reclaimed by BOHM's index
	// lifecycle: the newest surviving version was a tombstone below the
	// execution watermark, so the reaper unlinked the directory entry,
	// deleted the hash-index slot and retired the version chain.
	KeysReaped uint64
	// DirBytesReclaimed estimates the ordered-directory bytes (skiplist
	// nodes and towers) unlinked by reaping.
	DirBytesReclaimed uint64
	// PoolBlocksTrimmed counts block-equivalents of surplus recycled
	// versions released back to the runtime by the version pools'
	// high-watermark trim, so RSS tracks the steady-state working set
	// after a burst.
	PoolBlocksTrimmed uint64
	// ValueSlabsRecycled counts payload slabs whose carved values all
	// drained through the version-pool epoch gate and that returned to
	// their execution worker's value arena for reuse.
	ValueSlabsRecycled uint64
	// ValueSlabsTrimmed counts surplus recycled payload slabs released
	// back to the runtime by the value arenas' high-watermark trim.
	ValueSlabsTrimmed uint64
	// IdleTicks counts empty lifecycle batches a quiescent BOHM engine
	// injected to finish reclamation (see Config.DisableIdleReap).
	IdleTicks uint64
	// TimestampFetches counts atomic fetch-and-increment operations on a
	// global timestamp counter (Hekaton/SI; zero for BOHM by design).
	TimestampFetches uint64
	// LogBatches counts batches appended to the command log (BOHM with
	// durability enabled; zero otherwise).
	LogBatches uint64
	// LogBytes counts bytes appended to the command log.
	LogBytes uint64
	// LogSyncs counts fsync calls issued by the command log writer.
	LogSyncs uint64
	// LogRetries counts command-log write-hole repair attempts: a failed
	// append or fsync retained the un-durable frames, rotated to a fresh
	// segment and replayed them. Non-zero with zero client-visible errors
	// means transient storage faults were healed in place.
	LogRetries uint64
	// CheckpointRetries counts checkpoint attempts re-run after a failed
	// try (each retried attempt counts once, whatever its outcome).
	CheckpointRetries uint64
	// DegradedSince is the unix-nanosecond time the engine stepped down
	// to its degraded read-only mode after exhausting log repair; 0 while
	// fully healthy. Not a counter, but carried here so the degradation
	// is visible on any stats export.
	DegradedSince uint64
	// Checkpoints counts consistent checkpoints written.
	Checkpoints uint64
	// CheckpointFailures counts background checkpoint attempts that
	// failed (and will be retried). A growing value means the log is not
	// being truncated and version garbage collection is pinned.
	CheckpointFailures uint64
}

// Sub returns the element-wise difference s - o, for measuring an
// interval between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Committed:            s.Committed - o.Committed,
		UserAborts:           s.UserAborts - o.UserAborts,
		CCAborts:             s.CCAborts - o.CCAborts,
		VersionsCreated:      s.VersionsCreated - o.VersionsCreated,
		VersionsCollected:    s.VersionsCollected - o.VersionsCollected,
		ReadRefHits:          s.ReadRefHits - o.ReadRefHits,
		RangeRefHits:         s.RangeRefHits - o.RangeRefHits,
		ChainSteps:           s.ChainSteps - o.ChainSteps,
		Requeues:             s.Requeues - o.Requeues,
		RecursiveExecs:       s.RecursiveExecs - o.RecursiveExecs,
		Batches:              s.Batches - o.Batches,
		ArenaBatchesRecycled: s.ArenaBatchesRecycled - o.ArenaBatchesRecycled,
		VersionsPooled:       s.VersionsPooled - o.VersionsPooled,
		BytesRecycled:        s.BytesRecycled - o.BytesRecycled,
		RangeFenceSkips:      s.RangeFenceSkips - o.RangeFenceSkips,
		ReadOnlyFastPath:     s.ReadOnlyFastPath - o.ReadOnlyFastPath,
		KeysReaped:           s.KeysReaped - o.KeysReaped,
		DirBytesReclaimed:    s.DirBytesReclaimed - o.DirBytesReclaimed,
		PoolBlocksTrimmed:    s.PoolBlocksTrimmed - o.PoolBlocksTrimmed,
		ValueSlabsRecycled:   s.ValueSlabsRecycled - o.ValueSlabsRecycled,
		ValueSlabsTrimmed:    s.ValueSlabsTrimmed - o.ValueSlabsTrimmed,
		IdleTicks:            s.IdleTicks - o.IdleTicks,
		TimestampFetches:     s.TimestampFetches - o.TimestampFetches,
		LogBatches:           s.LogBatches - o.LogBatches,
		LogBytes:             s.LogBytes - o.LogBytes,
		LogSyncs:             s.LogSyncs - o.LogSyncs,
		LogRetries:           s.LogRetries - o.LogRetries,
		CheckpointRetries:    s.CheckpointRetries - o.CheckpointRetries,
		DegradedSince:        s.DegradedSince - o.DegradedSince,
		Checkpoints:          s.Checkpoints - o.Checkpoints,
		CheckpointFailures:   s.CheckpointFailures - o.CheckpointFailures,
	}
}
