// Package hekaton implements the paper's main multiversion comparison
// points: the optimistic concurrency control protocol of Larson et al.,
// "High-performance concurrency control mechanisms for main-memory
// databases" (PVLDB 2011) — the protocol behind Microsoft Hekaton — and,
// via the Snapshot isolation level, the SI baseline the paper implemented
// inside its Hekaton codebase.
//
// The defining properties reproduced here:
//
//   - a global 64-bit timestamp counter incremented with an atomic
//     fetch-and-increment at least twice per transaction (begin and end),
//     which is the scalability bottleneck the paper demonstrates in
//     Figures 6, 7, and 10;
//   - versions with begin/end timestamp pairs, where in-flight versions
//     carry a reference to their writer and visibility consults the
//     writer's state;
//   - first-writer-wins write-write conflict detection by claiming the
//     end field of the predecessor version;
//   - commit dependencies: a reader may speculatively read a version whose
//     writer is preparing (end timestamp assigned, validation pending) and
//     registers a dependency that defers its own commit, cascading aborts;
//   - serializable validation by re-checking read visibility at the end
//     timestamp (Serializable level), or no read validation at all
//     (Snapshot level).
package hekaton

import (
	"sync"
	"sync/atomic"

	"bohm/internal/storage"
	"bohm/internal/txn"
)

// Transaction states, per Larson et al. §2, plus txEnding: the short
// window in which a committer is fetching its end timestamp. A reader that
// began after that fetch must not judge the committer Active, so readers
// wait txEnding out (see beginVisible/endVisible).
const (
	txActive int32 = iota
	txEnding
	txPreparing
	txCommitted
	txAborted
)

// version is one entry in a record's version chain, newest first.
//
// begin is 0 while the creating transaction is in flight (consult writer);
// after commit it holds the creator's end timestamp. end is TsInfinity
// until a superseding transaction commits; an in-flight claim is held in
// endTxn. Loaded versions have begin=1 and writer=nil.
type version struct {
	begin  atomic.Uint64
	end    atomic.Uint64
	writer atomic.Pointer[hTxn]
	endTxn atomic.Pointer[hTxn]
	prev   atomic.Pointer[version]
	owner  *chain // back-pointer for unlinking aborted versions
	data   []byte
	tomb   bool
}

func newLoadedVersion(data []byte) *version {
	v := &version{data: data}
	v.begin.Store(1)
	v.end.Store(storage.TsInfinity)
	return v
}

// chain is a record's version list. Pushing is serialized by the
// first-writer-wins claim on the predecessor version, so the head is a
// simple atomic pointer.
type chain struct {
	head atomic.Pointer[version]
	// insertClaim serializes transactions that insert the record's very
	// first version (no predecessor to claim).
	insertClaim atomic.Pointer[hTxn]
}

// hTxn is the engine's per-transaction-attempt state.
type hTxn struct {
	beginTS uint64
	endTS   uint64
	state   atomic.Int32

	// Commit dependencies (Larson et al. §2.7): depCount is the number of
	// preparing transactions this transaction speculatively read from;
	// dependents are transactions waiting on this one. cascade marks this
	// transaction for abort because a dependency aborted.
	depCount   atomic.Int32
	cascade    atomic.Bool
	depMu      sync.Mutex
	dependents []*hTxn

	reads     []hReadEntry
	scans     []hScanEntry // ranges scanned, for phantom revalidation
	written   []*version   // versions this transaction pushed
	claimed   []*version   // predecessor versions whose end this txn claimed
	chains    []*chain     // chains where this txn holds the insert claim
	specReads bool         // whether any read was speculative
}

// hScanEntry records one range scan for serializable validation: the range
// and the directory keys the scan examined (in key order). Validation
// rescans the directory; a key absent from keys whose chain has a visible
// version at the end timestamp is a phantom.
type hScanEntry struct {
	r    txn.KeyRange
	keys []txn.Key
}

// hReadEntry records a read for serializable validation: the key, the
// chain, and the version that was visible at beginTS (nil version when
// the read observed "not found"; nil chain when the record had no chain
// at all at read time).
type hReadEntry struct {
	ch *chain
	k  txn.Key
	v  *version
}

// registerDependent adds r as a commit dependent of w if w is still
// preparing, incrementing r's dependency count. Returns false if w has
// already reached a final state (the caller re-evaluates visibility).
func (w *hTxn) registerDependent(r *hTxn) bool {
	w.depMu.Lock()
	defer w.depMu.Unlock()
	if w.state.Load() != txPreparing {
		return false
	}
	r.depCount.Add(1)
	w.dependents = append(w.dependents, r)
	return true
}

// releaseDependents wakes every dependent after w reaches a final state,
// cascading aborts when w aborted.
func (w *hTxn) releaseDependents(aborted bool) {
	w.depMu.Lock()
	deps := w.dependents
	w.dependents = nil
	w.depMu.Unlock()
	for _, r := range deps {
		if aborted {
			r.cascade.Store(true)
		}
		r.depCount.Add(-1)
	}
}
