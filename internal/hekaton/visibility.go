package hekaton

import (
	"runtime"

	"bohm/internal/storage"
	"bohm/internal/txn"
)

// visible walks ch newest-first and returns the version a transaction r
// observes at timestamp ts, or nil when no version is visible. It
// implements Larson et al.'s visibility rules, consulting writer state for
// in-flight begin fields and claimer state for in-flight end fields, and
// registering commit dependencies for decisions that speculate on a
// preparing transaction's outcome.
//
// skipOwn excludes versions written by r itself — used during
// serializable validation, where a read is judged against the version a
// *different* transaction would see at r's end timestamp.
func (e *Engine) visible(ch *chain, ts uint64, r *hTxn, skipOwn bool) *version {
	for v := ch.head.Load(); v != nil; {
		switch e.beginVisible(v, ts, r, skipOwn) {
		case beginRetry:
			continue
		case beginSkip:
			v = v.prev.Load()
			continue
		}
		if e.endVisible(v, ts, r) {
			return v
		}
		v = v.prev.Load()
	}
	return nil
}

type beginResult int

const (
	beginOK beginResult = iota
	beginSkip
	beginRetry
)

// beginVisible decides whether v's begin field admits visibility at ts.
func (e *Engine) beginVisible(v *version, ts uint64, r *hTxn, skipOwn bool) beginResult {
	b := v.begin.Load()
	if b == 0 {
		w := v.writer.Load()
		if w == nil {
			// Finalized between the two loads; re-read.
			if v.begin.Load() == 0 {
				runtime.Gosched()
			}
			return beginRetry
		}
		if w == r {
			if skipOwn {
				return beginSkip
			}
			return beginOK // own writes are always visible to self
		}
		switch w.state.Load() {
		case txActive:
			return beginSkip // uncommitted data of an active transaction
		case txEnding:
			runtime.Gosched() // w is fetching its end timestamp
			return beginRetry
		case txPreparing:
			// Speculative visibility (commit dependency): if w commits,
			// this version's begin becomes w.endTS.
			if ts >= w.endTS {
				if !w.registerDependent(r) {
					return beginRetry // w reached a final state; re-evaluate
				}
				r.specReads = true
				return beginOK
			}
			return beginSkip
		case txCommitted:
			b = w.endTS // begin finalization is lazy
		default: // txAborted
			return beginSkip
		}
	}
	if b > ts {
		return beginSkip
	}
	return beginOK
}

// endVisible decides whether v's end field admits visibility at ts.
func (e *Engine) endVisible(v *version, ts uint64, r *hTxn) bool {
	en := v.end.Load()
	if en != storage.TsInfinity {
		return ts < en
	}
	c := v.endTxn.Load()
	if c == nil {
		// Re-check: the claimer may have finalized between the loads.
		if en2 := v.end.Load(); en2 != storage.TsInfinity {
			return ts < en2
		}
		return true
	}
	if c == r {
		return true // r claimed v; v is r's own pre-image
	}
	switch c.state.Load() {
	case txActive:
		return true // invalidation not committed yet
	case txEnding:
		runtime.Gosched() // c is fetching its end timestamp
		return e.endVisible(v, ts, r)
	case txPreparing:
		if ts >= c.endTS {
			// Speculatively superseded if c commits.
			if !c.registerDependent(r) {
				return e.endVisible(v, ts, r) // re-evaluate final state
			}
			r.specReads = true
			return false
		}
		return true
	case txCommitted:
		return ts < c.endTS
	default: // txAborted: the claim is void
		return true
	}
}

// validate implements serializable read validation: every read must
// observe the same version at the end timestamp as it did at the begin
// timestamp (read stability; with point accesses this also covers the
// repeatable "not found" case), and every scanned range must contain no
// phantom — no key outside the scan's observed key set may have a version
// visible at the end timestamp (Larson et al.'s repeat-the-scan rule,
// restricted to the keys the original scan did not already cover, which
// the per-key read entries revalidate above).
func (e *Engine) validate(r *hTxn) bool {
	for _, re := range r.reads {
		if re.v != nil && re.v.writer.Load() == r {
			// The transaction read its own in-flight write (a scan over a
			// range it inserted into, or a read after write). Own writes
			// are private until commit and cannot be invalidated; they
			// are not reads of committed state and need no validation —
			// comparing them against the skipOwn visibility below would
			// spuriously (and permanently) fail.
			continue
		}
		ch := re.ch
		if ch == nil {
			// The record had no chain at read time; an insert may have
			// created one since.
			ch = e.idx.Get(re.k)
			if ch == nil {
				continue
			}
		}
		v := e.visible(ch, r.endTS, r, true)
		if v != re.v && !(re.v == nil && v != nil && v.tomb) {
			return false
		}
	}
	for _, sc := range r.scans {
		ok := true
		e.dir.AscendRange(sc.r, func(k txn.Key) bool {
			if txn.Contains(sc.keys, k) {
				return true // revalidated by its read entry
			}
			ch := e.idx.Get(k)
			if ch == nil {
				return true
			}
			// skipOwn: our own insert into a range we scanned is not a
			// phantom — we see our writes, others serialize around us.
			if v := e.visible(ch, r.endTS, r, true); v != nil && !v.tomb {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}
