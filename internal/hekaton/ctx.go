package hekaton

import (
	"fmt"

	"bohm/internal/storage"
	"bohm/internal/txn"
)

// hCtx implements txn.Ctx for one execution attempt. Reads record entries
// for validation; writes install in-flight versions immediately (visible
// only through the commit-dependency rules), per Larson et al.
type hCtx struct {
	e      *Engine
	r      *hTxn
	writes []txn.Key
	// conflict poisons the attempt on a first-writer-wins conflict even
	// if the transaction body swallows the returned error.
	conflict bool
	writeErr error
}

var _ txn.Ctx = (*hCtx)(nil)

// Read implements txn.Ctx: it returns the value visible at the
// transaction's begin timestamp (own writes included) and records the
// observation for serializable validation.
func (c *hCtx) Read(k txn.Key) ([]byte, error) {
	ch := c.e.idx.Get(k)
	if ch == nil {
		c.r.reads = append(c.r.reads, hReadEntry{k: k})
		return nil, txn.ErrNotFound
	}
	v := c.e.visible(ch, c.r.beginTS, c.r, false)
	c.r.reads = append(c.r.reads, hReadEntry{ch: ch, k: k, v: v})
	if v == nil || v.tomb {
		return nil, txn.ErrNotFound
	}
	return v.data, nil
}

// ReadRange implements txn.Ctx: it walks the ordered directory over r and
// applies the usual visibility rules to each key's chain at the begin
// timestamp. Own in-flight writes are installed in the chains (and the
// directory) immediately, so a transaction's scans see its own inserts
// without any overlay. Every examined key is recorded as a read entry for
// serializable validation, and the range itself is recorded so validation
// can rescan it for phantoms (keys that gained a visible version between
// begin and end timestamps).
func (c *hCtx) ReadRange(r txn.KeyRange, fn func(k txn.Key, v []byte) error) error {
	if r.Empty() {
		return nil
	}
	sc := hScanEntry{r: r}
	var ferr error
	c.e.dir.AscendRange(r, func(k txn.Key) bool {
		ch := c.e.idx.Get(k)
		if ch == nil {
			return true // directory entry racing the chain insert; no version yet
		}
		v := c.e.visible(ch, c.r.beginTS, c.r, false)
		c.r.reads = append(c.r.reads, hReadEntry{ch: ch, k: k, v: v})
		sc.keys = append(sc.keys, k)
		if v == nil || v.tomb {
			return true
		}
		if err := fn(k, v.data); err != nil {
			ferr = err
			return false
		}
		return true
	})
	c.r.scans = append(c.r.scans, sc)
	return ferr
}

// Write implements txn.Ctx.
func (c *hCtx) Write(k txn.Key, v []byte) error { return c.install(k, v, false) }

// Delete implements txn.Ctx.
func (c *hCtx) Delete(k txn.Key) error { return c.install(k, nil, true) }

// install pushes an in-flight version for k, claiming the predecessor's
// end field (first-writer-wins: a predecessor already claimed or
// concurrently superseded aborts this transaction).
func (c *hCtx) install(k txn.Key, val []byte, tomb bool) error {
	if !txn.ContainsLinear(c.writes, k) {
		err := fmt.Errorf("hekaton: write to key %+v outside declared write-set", k)
		if c.writeErr == nil {
			c.writeErr = err
		}
		return err
	}
	ch, created, err := c.e.idx.GetOrInsert(k, func() *chain { return &chain{} })
	if err != nil {
		if c.writeErr == nil {
			c.writeErr = err
		}
		return err
	}
	if created {
		// Register first-ever keys in the ordered directory immediately —
		// before the version is even installed — so a concurrent
		// serializable scanner's commit-time rescan can see the insert
		// and abort. Aborted inserts leave a harmless directory entry
		// with no visible version, like the insert-only hash index.
		c.e.dir.Insert(k)
	}

	// Repeated write by the same transaction: update the in-flight
	// version in place (it is visible only to us).
	if head := ch.head.Load(); head != nil && head.writer.Load() == c.r {
		head.data = val
		head.tomb = tomb
		return nil
	}

	target := c.claimTarget(ch)
	if target == nil && !c.conflict {
		// Inserting the record's first (live) version: serialize against
		// concurrent inserters with the chain-level claim.
		if !ch.insertClaim.CompareAndSwap(nil, c.r) {
			c.conflict = true
		} else {
			c.r.chains = append(c.r.chains, ch)
		}
	}
	if c.conflict {
		return errConflict
	}
	if target != nil {
		if !target.endTxn.CompareAndSwap(nil, c.r) {
			c.conflict = true
			return errConflict
		}
		// claimTarget read end before endTxn; a committer that superseded
		// target in between stored end before releasing endTxn, so a
		// successful CAS may still have claimed a superseded version.
		if target.end.Load() != storage.TsInfinity {
			target.endTxn.CompareAndSwap(c.r, nil)
			c.conflict = true
			return errConflict
		}
		c.r.claimed = append(c.r.claimed, target)
	}

	nv := &version{owner: ch, data: val, tomb: tomb}
	nv.end.Store(storage.TsInfinity)
	nv.writer.Store(c.r)
	nv.prev.Store(ch.head.Load())
	ch.head.Store(nv)
	c.r.written = append(c.r.written, nv)
	c.e.versions.Add(1)
	return nil
}

// claimTarget finds the committed version whose end field must be claimed
// to supersede the record: the newest committed version with infinite end.
// It sets c.conflict when the record is being written by another in-flight
// transaction or was superseded by a transaction concurrent with us.
func (c *hCtx) claimTarget(ch *chain) *version {
	for v := ch.head.Load(); v != nil; v = v.prev.Load() {
		b := v.begin.Load()
		if b == 0 {
			w := v.writer.Load()
			if w == nil {
				// Finalized between the two loads; re-read the begin
				// field, which is now committed.
				b = v.begin.Load()
			} else if w == c.r {
				// Own in-flight version below the head is impossible
				// while we hold the predecessor claim; treat it as a
				// conflict defensively.
				c.conflict = true
				return nil
			} else if w.state.Load() == txAborted {
				continue // skippable garbage
			} else {
				// Another transaction is writing this record right now:
				// first-writer-wins.
				c.conflict = true
				return nil
			}
		}
		if b > c.r.beginTS {
			// Superseding version committed after we began: write-write
			// conflict with a concurrent transaction.
			c.conflict = true
			return nil
		}
		if v.end.Load() != storage.TsInfinity {
			// Already superseded by a committed transaction; with
			// b <= beginTS handled above this means our snapshot is
			// stale for writing.
			c.conflict = true
			return nil
		}
		if claimer := v.endTxn.Load(); claimer != nil && claimer != c.r {
			c.conflict = true
			return nil
		}
		return v
	}
	return nil
}
