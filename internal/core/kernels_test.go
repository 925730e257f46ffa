package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bohm/internal/storage"
	"bohm/internal/txn"
)

// Tests for the CC-phase kernels: the shared partition-selection function,
// the per-batch hot-key memo's epoch isolation, and the -race stress
// interleaving hot-key RMW storms with scans, reaping and GC. The two CC
// dispatchers are checked against each other by
// TestPreprocessMatchesBaseline.

// TestPartitionSelectionShared pins every partition-routing site to the
// one shared function: for random keys, keyHashPart, partOfHash over the
// returned hash, and the engine's partitionOf must all agree, and the
// hash returned must be the key's own hash (so index probes may reuse
// it). rangeHash must round-trip a partition number through partOfHash.
func TestPartitionSelectionShared(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CCWorkers = 3
	cfg.ExecWorkers = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.nparts != cfg.CCWorkers {
		t.Fatalf("nparts = %d, want %d", e.nparts, cfg.CCWorkers)
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 10000; i++ {
		k := txn.Key{Table: uint32(next() % 5), ID: next()}
		h, p := keyHashPart(k, e.nparts)
		if h != k.Hash() {
			t.Fatalf("keyHashPart hash %#x != key hash %#x", h, k.Hash())
		}
		if p < 0 || p >= e.nparts {
			t.Fatalf("partition %d out of range [0,%d)", p, e.nparts)
		}
		if got := partOfHash(h, e.nparts); got != p {
			t.Fatalf("partOfHash(%#x) = %d, keyHashPart said %d", h, got, p)
		}
		if got := e.partitionOf(k); got != p {
			t.Fatalf("partitionOf(%+v) = %d, keyHashPart said %d", k, got, p)
		}
	}
	for p := 0; p < e.nparts; p++ {
		if got := partOfHash(rangeHash(p), e.nparts); got != p {
			t.Fatalf("rangeHash(%d) routes to partition %d", p, got)
		}
	}
}

// TestMemoEpochProperty is the memo's isolation property: a chain pointer
// memoized under one epoch is never returned under any other, whatever
// the key/hash collision pattern — the O(1) "clear" at a batch boundary
// is real. Entries re-put under the new epoch are served again.
func TestMemoEpochProperty(t *testing.T) {
	m := newCCMemo()
	x := uint64(12345)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Every put under epoch ep carries that epoch's sentinel chain, so any
	// get that hits can be checked against the epoch it claims: a hit
	// under epoch E must return E's sentinel, whatever collision pattern
	// the small key range (heavy inter-epoch slot reuse) produced.
	const epochs = 6
	sentinel := make([]*storage.Chain, epochs+1)
	for ep := 1; ep <= epochs; ep++ {
		sentinel[ep] = storage.NewChain(nil)
	}
	for ep := uint64(1); ep <= epochs; ep++ {
		for i := 0; i < 4*memoSlots; i++ {
			k := txn.Key{ID: next() % 512}
			m.put(k.Hash(), k, sentinel[ep], ep)
		}
		for id := uint64(0); id < 512; id++ {
			k := txn.Key{ID: id}
			h := k.Hash()
			for q := uint64(1); q <= epochs; q++ {
				if ch, hit := m.get(h, k, q); hit && ch != sentinel[q] {
					t.Fatalf("get under epoch %d returned another epoch's chain (current epoch %d)", q, ep)
				}
			}
		}
	}
	// A distinguishable payload check: memoized chains come back for the
	// epoch that put them, not for any other.
	k := txn.Key{ID: 7}
	h := k.Hash()
	m.put(h, k, nil, 100)
	if ch, hit := m.get(h, k, 100); !hit || ch != nil {
		t.Fatalf("same-epoch get = (%v, %v), want memoized absence", ch, hit)
	}
	if _, hit := m.get(h, k, 101); hit {
		t.Fatal("next-epoch get hit a stale entry")
	}
}

// TestCCKernelsStress hammers the kernel path where the memo earns its
// keep: hot-key RMW storms (a handful of keys touched by nearly every
// transaction in a batch), interleaved with conserved-sum transfers,
// range scans, insert/delete churn that keeps the reaper unlinking keys
// the memo has served, and chain GC, under concurrent submitters. CI runs
// it under -race; conserved sums and value-checked churn rows catch any
// stale chain a memoization bug could serve. Runs both preprocessed and
// unpreprocessed so both kernel dispatch paths see the storm.
func TestCCKernelsStress(t *testing.T) {
	for _, pp := range []bool{false, true} {
		t.Run(fmt.Sprintf("preprocess=%v", pp), func(t *testing.T) {
			reg := reapStressRegistry()
			cfg := DefaultConfig()
			cfg.CCWorkers = 3
			cfg.ExecWorkers = 2
			cfg.BatchSize = 32
			cfg.Capacity = 1 << 14
			cfg.GC = true
			cfg.Preprocess = pp
			cfg.PreprocessWorkers = 2
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for id := uint64(0); id < reapKeys; id++ {
				if err := e.Load(key(id), txn.NewValue(8, 100)); err != nil {
					t.Fatal(err)
				}
			}
			const (
				streams = 4
				rounds  = 80
				perSub  = 24
				hotKeys = 3 // the storm: most RMWs hit these
			)
			var wg sync.WaitGroup
			errCh := make(chan error, streams)
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					x := seed*2654435761 + 7
					next := func() uint64 {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						return x
					}
					churnID := seed * 1000
					for r := 0; r < rounds; r++ {
						ts := make([]txn.Txn, perSub)
						for i := range ts {
							switch next() % 8 {
							case 0:
								ts[i] = reapCall(t, reg, next(), next(), reapOpScan)
							case 1:
								ts[i] = reapCall(t, reg, next(), next(), reapOpChurnScn)
							case 2:
								churnID++
								ts[i] = reapCall(t, reg, churnID, 0, reapOpChurnIns)
							case 3:
								ts[i] = reapCall(t, reg, churnID, 0, reapOpChurnDel)
							default:
								// Hot-key RMW: both endpoints drawn from the
								// tiny hot set, so one batch carries dozens of
								// placeholder inserts and read annotations for
								// the same few chains — the memo's hot path.
								ts[i] = reapCall(t, reg, next()%hotKeys, next()%hotKeys, reapOpMove)
							}
						}
						for i, err := range e.ExecuteBatch(ts) {
							if err != nil {
								errCh <- fmt.Errorf("stream %d round %d txn %d: %w", seed, r, i, err)
								return
							}
						}
					}
				}(uint64(s))
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			// Tick until reaping has provably engaged, so the run is known
			// to have interleaved memoized probes with key reclamation.
			deadline := time.Now().Add(30 * time.Second)
			for e.Stats().KeysReaped == 0 {
				if time.Now().After(deadline) {
					t.Fatal("churn produced no reaped keys; stress never exercised reap/memo interleaving")
				}
				if res := e.ExecuteBatch([]txn.Txn{reapCall(t, reg, 1, 2, reapOpMove)}); res[0] != nil {
					t.Fatal(res[0])
				}
			}
			sum := uint64(0)
			for k, v := range dumpState(e) {
				if k.Table == 0 {
					sum += v
				}
			}
			if sum != reapTotal {
				t.Errorf("final account sum = %d, want %d", sum, reapTotal)
			}
		})
	}
}
