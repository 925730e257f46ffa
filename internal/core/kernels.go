package core

// CC-phase kernels: the amortization machinery the concurrency control
// inner loop runs on, with or without pre-processing.
//
//   - keyHashPart is the single partition-selection function. Every site
//     that routes a key to a partition (preprocessing, CC filtering, the
//     engine's partitionOf) goes through it, and it returns the hash it
//     computed so index probes can reuse it (Map.GetHashed and friends)
//     instead of re-running the finalizer per touch.
//   - ccMemo is a per-CC-worker, per-batch key→chain memo. Under zipfian
//     skew the same hot chain is probed hundreds of times per batch; the
//     memo replaces the DRAM-sized hash-table probe with a few loads from
//     a fixed 40KB table that stays cache-resident.

import (
	"bohm/internal/storage"
	"bohm/internal/txn"
)

// keyHashPart routes key k to one of nparts hash partitions and returns
// the 64-bit hash it used. Partition selection uses the high hash bits;
// the per-partition hash index probes with the low bits (Map.GetHashed),
// so the two placements stay independent. This is the one place the
// partition function lives — preprocess.go and partitionOf must never
// diverge from it (pinned by TestPartitionSelectionShared).
func keyHashPart(k txn.Key, nparts int) (uint64, int) {
	h := k.Hash()
	return h, int((h >> 40) % uint64(nparts))
}

// Memo geometry: a power-of-two direct-mapped table with a short linear
// probe window. 1024 entries × 40 bytes ≈ 40KB per CC worker — small
// enough to stay L2-resident, large enough that a 1024-transaction batch
// of 10-key write-sets under heavy skew keeps its hot set memoized.
const (
	memoSlots = 1024
	memoMask  = memoSlots - 1
	memoProbe = 4
)

// memoEnt is one memo slot. epoch is the batch sequence the entry was
// written under: entries of any other epoch are dead, which is how the
// memo is cleared in O(1) at every batch boundary — no wipe pass, no
// allocation, and a chain pointer memoized in batch b can never be
// returned in batch b+1 (batch sequences are unique and monotone).
type memoEnt struct {
	h     uint64
	k     txn.Key
	ch    *storage.Chain
	epoch uint64
}

// ccMemo is one CC worker's private key→chain memo. Only that worker
// touches it, so there is no synchronization anywhere.
//
// Safety of caching *Chain for a whole batch: the owning worker is its
// partition's single writer for the engine's lifetime, so within the
// batch's CC step nothing else can bind or unbind a key's chain; the reap
// sweep (the only operation that unbinds a key from its chain) runs in the
// same goroutine after the batch's barrier report, and every entry it
// could invalidate is tagged with that batch's epoch, so the next batch's
// probes never see it; and the hash table's compaction moves slots, never
// chains. A key's chain mapping observed anywhere in the batch's CC step
// is therefore the mapping for the entire step. A memoized nil records
// "key absent", which the write path upgrades in place when it creates
// the chain.
type ccMemo struct {
	ents [memoSlots]memoEnt
}

func newCCMemo() *ccMemo { return &ccMemo{} }

// get returns the memoized chain for (h, k) in the given epoch. The
// second result distinguishes a memoized absence (nil, true) from a miss
// (nil, false).
func (m *ccMemo) get(h uint64, k txn.Key, epoch uint64) (*storage.Chain, bool) {
	i := h & memoMask
	for j := uint64(0); j < memoProbe; j++ {
		e := &m.ents[(i+j)&memoMask]
		if e.epoch == epoch && e.h == h && e.k == k {
			return e.ch, true
		}
	}
	return nil, false
}

// lookup resolves k's chain in partition part through the memo, probing
// the hash table with the carried hash h only on a miss and memoizing the
// answer — including an absence — for the rest of the epoch.
func (m *ccMemo) lookup(part *storage.Map[storage.Chain], h uint64, k txn.Key, epoch uint64) *storage.Chain {
	ch, hit := m.get(h, k, epoch)
	if !hit {
		ch = part.GetHashed(k, h)
		m.put(h, k, ch, epoch)
	}
	return ch
}

// put memoizes ch for (h, k) in the given epoch, preferring a dead slot
// (stale epoch) in the probe window and overwriting the home slot when
// the window is full of live entries.
func (m *ccMemo) put(h uint64, k txn.Key, ch *storage.Chain, epoch uint64) {
	i := h & memoMask
	slot := &m.ents[i]
	for j := uint64(0); j < memoProbe; j++ {
		e := &m.ents[(i+j)&memoMask]
		if e.epoch != epoch || (e.h == h && e.k == k) {
			slot = e
			break
		}
	}
	*slot = memoEnt{h: h, k: k, ch: ch, epoch: epoch}
}
