package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bohm/client"
	"bohm/internal/core"
	"bohm/internal/txn"
	"bohm/internal/vfs"
	"bohm/internal/wire"
	"bohm/internal/workload"
)

const (
	accountTable   = 1
	counterTable   = 2 // ycsb.rmw counters, 8-byte records
	accounts       = 64
	initialBalance = uint64(1000)
)

func acct(id uint64) txn.Key { return txn.Key{Table: accountTable, ID: id} }

// startServer builds an engine + registry (KV procedures, and YCSB's over
// 8-byte records) + server on a loopback port and registers cleanup in
// dependency order: server first, then engine.
func startServer(t *testing.T, cfg core.Config, scfg Config) (*core.Engine, *txn.Registry, *Server) {
	t.Helper()
	reg := txn.NewRegistry()
	workload.RegisterKV(reg)
	workload.RegisterYCSB(reg, 8)
	var (
		eng *core.Engine
		err error
	)
	if cfg.LogDir != "" {
		eng, err = core.Recover(cfg, reg)
	} else {
		eng, err = core.New(cfg)
	}
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	scfg.Addr = "127.0.0.1:0"
	srv, err := New(eng, reg, scfg)
	if err != nil {
		eng.Close()
		t.Fatalf("server: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		eng.Close()
	})
	return eng, reg, srv
}

// loadAccounts seeds the balances through the wire, like any client.
func loadAccounts(t *testing.T, reg *txn.Registry, addr string) {
	t.Helper()
	c, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var bal [8]byte
	txn.PutU64(bal[:], initialBalance)
	ts := make([]txn.Txn, accounts)
	for i := range ts {
		ts[i] = reg.MustCall(workload.ProcKVPut, workload.KVPutArgs(acct(uint64(i)), bal[:]))
	}
	for i, err := range c.ExecuteBatch(ts) {
		if err != nil {
			t.Fatalf("loading account %d: %v", i, err)
		}
	}
}

// readBalances sums every account through the read-only path on a fresh
// connection that has observed tok.
func readBalances(t *testing.T, reg *txn.Registry, addr string, tok uint64) uint64 {
	t.Helper()
	c, err := client.Dial(addr, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.ObserveToken(tok)
	var sum uint64
	ps := make([]*client.Pending, accounts)
	for i := range ps {
		p, err := c.SubmitReadOnly(reg.MustCall(workload.ProcKVGet, workload.KVGetArgs(acct(uint64(i)))))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		ps[i] = p
	}
	for i, p := range ps {
		if err := p.Wait(); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		sum += txn.U64(p.Result())
	}
	return sum
}

// TestLoopbackSmokeConservedTransfers floods the server from concurrent
// goroutine clients mixing kv.transfer and ycsb.rmw writes with kv.get
// reads on the read lane, all on a few hot keys, so every connection's
// request slots keep switching between procedures and rebuilding
// transactions in place. The invariants — transfers conserve the total,
// RMW counters sum to exactly two per acknowledged RMW, every read
// returns an 8-byte balance — catch lost, duplicated or misordered
// executions and a slot reused while still in flight; the fill
// histogram proves transactions from different connections actually
// shared batches.
func TestLoopbackSmokeConservedTransfers(t *testing.T) {
	cfg := core.DefaultConfig()
	_, reg, srv := startServer(t, cfg, Config{PipelineDepth: 8})
	loadAccounts(t, reg, srv.Addr())

	const (
		clients = 8
		rounds  = 25
		chunk   = 16
		hot     = 4 // accounts and counters the traffic contends on
	)
	counter := func(id uint64) txn.Key { return txn.Key{Table: counterTable, ID: id} }
	loader, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]txn.Txn, hot)
	for i := range zeros {
		zeros[i] = reg.MustCall(workload.ProcKVPut, workload.KVPutArgs(counter(uint64(i)), make([]byte, 8)))
	}
	for _, err := range loader.ExecuteBatch(zeros) {
		if err != nil {
			t.Fatal(err)
		}
	}
	loadTok := loader.Token()
	_ = loader.Close()

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		maxTok uint64
		rmws   uint64 // acknowledged ycsb.rmw calls
	)
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr(), &client.Options{PipelineDepth: 8})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			c.ObserveToken(loadTok)
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			var acked uint64
			for r := 0; r < rounds; r++ {
				ps := make([]*client.Pending, chunk)
				kinds := make([]int, chunk)
				for i := range ps {
					from := uint64(rng.Intn(hot))
					to := uint64(rng.Intn(hot - 1))
					if to >= from {
						to++ // from == to would be a duplicate write key
					}
					var p *client.Pending
					switch kinds[i] = rng.Intn(3); kinds[i] {
					case 0:
						p, err = c.Submit(reg.MustCall(workload.ProcKVTransfer,
							workload.KVTransferArgs(acct(from), acct(to), uint64(rng.Intn(10)+1))))
					case 1:
						p, err = c.SubmitReadOnly(reg.MustCall(workload.ProcKVGet, workload.KVGetArgs(acct(from))))
					default:
						p, err = c.Submit(reg.MustCall(workload.ProcRMW,
							workload.EncodeKeys([]txn.Key{counter(from), counter(to)})))
					}
					if err != nil {
						errCh <- fmt.Errorf("client %d round %d submit %d: %w", ci, r, i, err)
						return
					}
					ps[i] = p
				}
				for i, p := range ps {
					err := p.Wait()
					switch {
					case kinds[i] == 0 && errors.Is(err, txn.ErrAbort):
						// Insufficient funds is a legal abort.
					case err != nil:
						errCh <- fmt.Errorf("client %d round %d txn %d (kind %d): %w", ci, r, i, kinds[i], err)
						return
					case kinds[i] == 1 && len(p.Result()) != 8:
						errCh <- fmt.Errorf("client %d round %d: kv.get returned %d bytes, want 8", ci, r, len(p.Result()))
						return
					case kinds[i] == 2:
						acked++
					}
				}
			}
			mu.Lock()
			maxTok = max(maxTok, c.Token())
			rmws += acked
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got, want := readBalances(t, reg, srv.Addr(), maxTok), initialBalance*accounts; got != want {
		t.Fatalf("balance sum after concurrent transfers = %d, want %d", got, want)
	}
	c, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ObserveToken(maxTok)
	var sum uint64
	for i := uint64(0); i < hot; i++ {
		p, err := c.SubmitReadOnly(reg.MustCall(workload.ProcKVGet, workload.KVGetArgs(counter(i))))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Wait(); err != nil {
			t.Fatalf("counter %d: %v", i, err)
		}
		sum += txn.U64(p.Result())
	}
	if sum != 2*rmws {
		t.Fatalf("RMW counters sum to %d after %d acknowledged RMWs, want %d", sum, rmws, 2*rmws)
	}
	if snap := srv.m.fill.Snapshot(); snap.Max < 2 {
		t.Errorf("group batcher never coalesced: max batch fill %d", snap.Max)
	}
}

// TestLargeFrameNotRetained writes and reads back an 8 MiB value: once
// both responses are written, no request slot may keep a buffer above
// maxRetainedFrame — not the frame, not the decoded args, not the
// transaction built from them or its result.
func TestLargeFrameNotRetained(t *testing.T) {
	_, reg, srv := startServer(t, core.DefaultConfig(), Config{})
	c, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 8<<20)
	big[len(big)-1] = 1
	p, err := c.Submit(reg.MustCall(workload.ProcKVPut, workload.KVPutArgs(acct(0), big)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if p, err = c.SubmitReadOnly(reg.MustCall(workload.ProcKVGet, workload.KVGetArgs(acct(0)))); err != nil {
		t.Fatal(err)
	}
	if err := p.Wait(); err != nil || !bytes.Equal(p.Result(), big) {
		t.Fatalf("reading the big value back: %d bytes, %v", len(p.Result()), err)
	}

	srv.mu.Lock()
	var sc *conn
	for x := range srv.conns {
		sc = x
	}
	srv.mu.Unlock()
	// The reader holds one slot while it waits for the next frame. Taking
	// every other slot off the free list orders this goroutine after the
	// writer recycled them.
	held := make([]*request, len(sc.slots)-1)
	for i := range held {
		held[i] = <-sc.free
	}
	defer func() {
		for _, r := range held {
			sc.free <- r
		}
	}()
	for i, r := range held {
		sizes := []int{cap(r.frame), cap(r.q.Rec.Args), cap(r.resp.Result)}
		switch x := r.w.inner.(type) {
		case *workload.KVPutTxn:
			sizes = append(sizes, cap(x.V))
		case *workload.KVGetTxn:
			sizes = append(sizes, cap(x.Result()))
		}
		for _, n := range sizes {
			if n > maxRetainedFrame {
				t.Errorf("slot %d keeps a %d-byte buffer (%T), cap %d", i, n, r.w.inner, maxRetainedFrame)
			}
		}
	}
}

// TestCloseDrainsInFlight pushes a pipeline of unacknowledged
// submissions and closes the server concurrently: every pending must
// resolve (committed, aborted, or refused as closed) — none may hang —
// and the engine must still be healthy afterwards.
func TestCloseDrainsInFlight(t *testing.T) {
	cfg := core.DefaultConfig()
	eng, reg, srv := startServer(t, cfg, Config{PipelineDepth: 32})
	loadAccounts(t, reg, srv.Addr())

	c, err := client.Dial(srv.Addr(), &client.Options{PipelineDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var ps []*client.Pending
	for i := 0; i < 200; i++ {
		from, to := uint64(i%accounts), uint64((i+1)%accounts)
		p, err := c.Submit(reg.MustCall(workload.ProcKVTransfer,
			workload.KVTransferArgs(acct(from), acct(to), 1)))
		if err != nil {
			break // connection torn down mid-close: already resolved below
		}
		ps = append(ps, p)
		if i == 100 {
			go func() { _ = srv.Close() }()
		}
	}
	_ = c.Flush()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, p := range ps {
			err := p.Wait()
			if err != nil && !errors.Is(err, txn.ErrAbort) &&
				!errors.Is(err, core.ErrClosed) && !errors.Is(err, client.ErrConnClosed) {
				t.Errorf("pending %d resolved with unexpected error: %v", i, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown did not drain in-flight submissions within 30s")
	}
	if h, cause := eng.Health(); h != core.Healthy {
		t.Fatalf("engine health after server close = %v (%v), want Healthy", h, cause)
	}
}

// TestDegradedEngineRejectsWritesOnWire walks the PR 9 ladder over the
// network: a persistent log-sync fault degrades the engine; writes must
// then fail fast with a typed StatusDurabilityLost the client maps back
// to ErrDurabilityLost, while reads keep serving the durable snapshot.
func TestDegradedEngineRejectsWritesOnWire(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(nil)
	cfg := core.DefaultConfig()
	cfg.BatchSize = 8
	cfg.LogDir = dir
	cfg.FS = fsys
	cfg.CheckpointEveryBatches = 1000
	cfg.LogRetry = core.RetryPolicy{Attempts: 2, Backoff: 200 * time.Microsecond}
	eng, reg, srv := startServer(t, cfg, Config{})
	loadAccounts(t, reg, srv.Addr())

	fsys.AddFault(vfs.Fault{Op: vfs.OpSync, Path: "wal-", After: 4, Count: -1, DropUnsynced: true})

	c, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	degraded := false
	var bal [8]byte
	txn.PutU64(bal[:], 1)
	for i := 0; i < 200 && !degraded; i++ {
		p, err := c.Submit(reg.MustCall(workload.ProcKVPut, workload.KVPutArgs(acct(uint64(i%accounts)), bal[:])))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if werr := p.Wait(); werr != nil {
			if !errors.Is(werr, core.ErrDurabilityLost) {
				t.Fatalf("write %d failed with %v, want ErrDurabilityLost", i, werr)
			}
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("persistent log fault never surfaced ErrDurabilityLost on the wire")
	}
	if h, _ := eng.Health(); h != core.LogDegraded {
		t.Fatalf("engine health = %v, want LogDegraded", h)
	}

	// Later writes are refused fast on the server's admission path.
	rejectedBefore := srv.m.rejected.Load()
	p, err := c.Submit(reg.MustCall(workload.ProcKVPut, workload.KVPutArgs(acct(0), bal[:])))
	if err != nil {
		t.Fatal(err)
	}
	if werr := p.Wait(); !errors.Is(werr, core.ErrDurabilityLost) {
		t.Fatalf("degraded write = %v, want ErrDurabilityLost", werr)
	}
	if srv.m.rejected.Load() == rejectedBefore {
		t.Error("degraded write was not refused on the fail-fast path")
	}

	// Reads keep serving the last durable snapshot.
	rp, err := c.SubmitReadOnly(reg.MustCall(workload.ProcKVGet, workload.KVGetArgs(acct(0))))
	if err != nil {
		t.Fatal(err)
	}
	if rerr := rp.Wait(); rerr != nil {
		t.Fatalf("degraded read = %v, want success", rerr)
	}
	if got := txn.U64(rp.Result()); got == 0 {
		t.Fatal("degraded read returned an empty balance")
	}
}

// TestWireStatusesAndMetrics covers the remaining typed wire errors and
// the /metrics exposition carrying bohm_server_* next to the engine
// family.
func TestWireStatusesAndMetrics(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Metrics = true
	cfg.DebugAddr = "127.0.0.1:0"
	eng, reg, srv := startServer(t, cfg, Config{})
	loadAccounts(t, reg, srv.Addr())

	c, err := client.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Unknown procedure.
	p, err := c.Submit(&fakeCall{proc: "no.such.proc"})
	if err != nil {
		t.Fatal(err)
	}
	if werr := p.Wait(); !errors.Is(werr, wire.ErrUnknownProc) {
		t.Fatalf("unknown proc = %v, want ErrUnknownProc", werr)
	}

	// Read-only flag on a writing transaction.
	p, err = c.SubmitReadOnly(reg.MustCall(workload.ProcKVTransfer,
		workload.KVTransferArgs(acct(0), acct(1), 1)))
	if err != nil {
		t.Fatal(err)
	}
	if werr := p.Wait(); !errors.Is(werr, core.ErrNotReadOnly) {
		t.Fatalf("read-only transfer = %v, want ErrNotReadOnly", werr)
	}

	// Missing record.
	p, err = c.SubmitReadOnly(reg.MustCall(workload.ProcKVGet, workload.KVGetArgs(txn.Key{Table: 9, ID: 9})))
	if err != nil {
		t.Fatal(err)
	}
	if werr := p.Wait(); !errors.Is(werr, txn.ErrNotFound) {
		t.Fatalf("missing record = %v, want ErrNotFound", werr)
	}

	// Result round-trip.
	p, err = c.SubmitReadOnly(reg.MustCall(workload.ProcKVGet, workload.KVGetArgs(acct(3))))
	if err != nil {
		t.Fatal(err)
	}
	if werr := p.Wait(); werr != nil {
		t.Fatal(werr)
	}
	if got := txn.U64(p.Result()); got != initialBalance {
		t.Fatalf("kv.get result = %d, want %d", got, initialBalance)
	}

	// Non-loggable transactions are refused client-side.
	if _, err := c.Submit(&txn.Proc{}); !errors.Is(err, core.ErrNotLoggable) {
		t.Fatalf("non-loggable submit = %v, want ErrNotLoggable", err)
	}

	resp, err := http.Get("http://" + eng.DebugListenAddr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bohm_engine_health",
		"bohm_server_connections",
		"bohm_server_inflight_batches",
		"bohm_server_queued_txns",
		"bohm_server_batch_fill_bucket",
		"bohm_server_batch_wait_seconds_bucket",
		"bohm_server_txns_submitted_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// fakeCall is a Loggable whose procedure id the server does not know.
type fakeCall struct {
	txn.Proc
	proc string
}

func (f *fakeCall) Procedure() (string, []byte) { return f.proc, nil }
