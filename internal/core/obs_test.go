package core

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bohm/internal/obs"
	"bohm/internal/txn"
)

// TestObsDisabledNil: with Config.Metrics off nothing is observable —
// the accessors return nil — and the pipeline runs exactly as before.
func TestObsDisabledNil(t *testing.T) {
	e := newTestEngine(t, DefaultConfig(), 4)
	if e.Metrics() != nil {
		t.Error("Metrics() != nil with metrics disabled")
	}
	if e.FlightRecords() != nil {
		t.Error("FlightRecords() != nil with metrics disabled")
	}
	if e.DebugHandler() != nil {
		t.Error("DebugHandler() != nil with metrics disabled")
	}
	if e.DebugListenAddr() != "" {
		t.Error("DebugListenAddr() non-empty with metrics disabled")
	}
	for _, err := range e.ExecuteBatch([]txn.Txn{incTxn(0), incTxn(1)}) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := readCounter(t, e, 0); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
}

// TestObsStageTimeline drives a durable engine and checks every stage of
// the batch timeline landed in its histogram, that per-transaction
// submit and read-path latencies were recorded, and that the flight
// recorder holds ordered, plausible lifecycle records.
func TestObsStageTimeline(t *testing.T) {
	reg := txn.NewRegistry()
	reg.Register("inc", func(args []byte) (txn.Txn, error) {
		return incTxn(txn.U64(args)), nil
	})
	cfg := DefaultConfig()
	cfg.Metrics = true
	cfg.LogDir = t.TempDir()
	// The exact-count assertions below need every sequenced batch to be a
	// test submission; keep the idle ticker's empty batches out.
	cfg.ablate.DisableIdleReap = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := uint64(0); i < 8; i++ {
		if err := e.Load(key(i), txn.NewValue(8, 0)); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 10
	var writes uint64
	for c := 0; c < calls; c++ {
		ts := []txn.Txn{
			reg.MustCall("inc", txn.NewValue(8, uint64(c)%8)),
			reg.MustCall("inc", txn.NewValue(8, uint64(c+1)%8)),
		}
		writes += uint64(len(ts))
		for _, err := range e.ExecuteBatch(ts) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var sum uint64
	var rows int
	if res := e.ExecuteBatch([]txn.Txn{roSum([]txn.Key{key(0), key(1)}, &sum, &rows)}); res[0] != nil {
		t.Fatal(res[0])
	}
	if _, err := e.Read(key(0), nil); err != nil {
		t.Fatal(err)
	}

	m := e.Metrics()
	if m == nil {
		t.Fatal("Metrics() == nil with metrics enabled")
	}
	batches := e.Stats().Batches
	if batches == 0 {
		t.Fatal("no batches processed")
	}
	for _, s := range []obs.Stage{obs.StageSeqWait, obs.StageLogAppend, obs.StageCC, obs.StageBarrier, obs.StageExec} {
		snap := m.Stages[s].Snapshot()
		if snap.Count != batches {
			t.Errorf("stage %s count = %d, want %d (one per batch)", obs.StageName(s), snap.Count, batches)
		}
	}
	if got := m.Stages[obs.StageSubmit].Snapshot().Count; got != writes+1 {
		t.Errorf("submit count = %d, want %d (one per pipelined txn)", got, writes+1)
	}
	if got := m.Stages[obs.StageRORead].Snapshot().Count; got != 2 {
		t.Errorf("ro_read count = %d, want 2 (1 fast-path reader + 1 inline read)", got)
	}
	if got := m.Stages[obs.StageDurableWait].Snapshot().Count; got == 0 {
		t.Error("durable_wait never recorded on a durable engine")
	}

	recs := e.FlightRecords()
	if uint64(len(recs)) != batches {
		t.Fatalf("flight records = %d, want %d", len(recs), batches)
	}
	var prevSeq uint64
	for _, r := range recs {
		if r.Seq <= prevSeq {
			t.Fatalf("flight records out of order: %d after %d", r.Seq, prevSeq)
		}
		prevSeq = r.Seq
		if r.Txns <= 0 || r.Aborts != 0 {
			t.Errorf("record %d: txns=%d aborts=%d", r.Seq, r.Txns, r.Aborts)
		}
		if !(r.SubmitNS > 0 && r.SubmitNS <= r.SequencedNS &&
			r.SequencedNS <= r.LoggedNS && r.LoggedNS <= r.CCLastNS &&
			r.CCFirstNS > 0 && r.CCFirstNS <= r.CCLastNS &&
			r.CCLastNS <= r.ExecDoneNS) {
			t.Errorf("record %d stamps out of order: %+v", r.Seq, r)
		}
	}

	// Reset clears everything for a fresh measurement interval.
	m.Reset()
	if got := m.Stages[obs.StageSubmit].Snapshot().Count; got != 0 {
		t.Errorf("after reset submit count = %d", got)
	}
	if got := len(e.FlightRecords()); got != 0 {
		t.Errorf("after reset flight records = %d", got)
	}
}

// TestDebugEndpoint exercises the debug HTTP surface end to end: once
// through httptest against DebugHandler, and once over a real listener
// bound via Config.DebugAddr.
func TestDebugEndpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DebugAddr = "127.0.0.1:0" // implies Metrics
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := uint64(0); i < 4; i++ {
		if err := e.Load(key(i), txn.NewValue(8, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 5; c++ {
		for _, err := range e.ExecuteBatch([]txn.Txn{incTxn(0), incTxn(1)}) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	srv := httptest.NewServer(e.DebugHandler())
	defer srv.Close()
	addr := e.DebugListenAddr()
	if addr == "" {
		t.Fatal("DebugListenAddr empty with DebugAddr set")
	}
	get := func(base, path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return string(body)
	}

	for _, base := range []string{srv.URL, "http://" + addr} {
		metrics := get(base, "/metrics")
		for _, want := range []string{
			"bohm_committed_total",
			"bohm_batches_total",
			"bohm_sequencer_queue_depth",
			"bohm_exec_watermark",
			"bohm_stage_duration_seconds_bucket{stage=\"exec\",le=",
			"bohm_stage_duration_seconds_count{stage=\"submit\"}",
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("%s/metrics missing %q", base, want)
			}
		}

		var dump struct {
			EngineStart time.Time         `json:"engine_start"`
			Records     []obs.BatchRecord `json:"records"`
		}
		if err := json.Unmarshal([]byte(get(base, "/debug/flight")), &dump); err != nil {
			t.Fatalf("flight dump not JSON: %v", err)
		}
		if len(dump.Records) == 0 {
			t.Error("flight dump has no records")
		}
		if dump.EngineStart.IsZero() {
			t.Error("flight dump missing engine_start")
		}

		if vars := get(base, "/debug/vars"); !strings.Contains(vars, "memstats") {
			t.Error("/debug/vars missing memstats")
		}
		if idx := get(base, "/debug/pprof/"); !strings.Contains(idx, "goroutine") {
			t.Error("/debug/pprof/ index missing goroutine profile")
		}
		if prof := get(base, "/debug/pprof/goroutine?debug=1"); !strings.Contains(prof, "goroutine") {
			t.Error("goroutine profile empty")
		}
	}
}

// TestLastCheckpointError: a failing checkpoint attempt is retained and
// surfaced — through the accessor and the flight dump — and cleared by
// the next success.
func TestLastCheckpointError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GC = false // CheckpointNow without periodic checkpointing
	cfg.Metrics = true
	cfg.LogDir = t.TempDir()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(key(0), txn.NewValue(8, 0)); err != nil {
		t.Fatal(err)
	}
	if got := e.LastCheckpointError(); got != nil {
		t.Fatalf("initial LastCheckpointError = %v", got)
	}

	boom := errors.New("disk on fire")
	e.ckptHook = func() error { return boom }
	if err := e.CheckpointNow(); !errors.Is(err, boom) {
		t.Fatalf("CheckpointNow = %v, want injected error", err)
	}
	if got := e.LastCheckpointError(); !errors.Is(got, boom) {
		t.Fatalf("LastCheckpointError = %v, want injected error", got)
	}

	rec := httptest.NewRecorder()
	e.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	var dump struct {
		LastCheckpointError string `json:"last_checkpoint_error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.LastCheckpointError, "disk on fire") {
		t.Errorf("flight dump error = %q, want the injected cause", dump.LastCheckpointError)
	}

	e.ckptHook = nil
	if err := e.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if got := e.LastCheckpointError(); got != nil {
		t.Errorf("LastCheckpointError after success = %v, want nil", got)
	}
}

// TestObsStress interleaves pipeline traffic, fast-path reads and inline
// reads with concurrent metric scrapes, flight snapshots and resets —
// the -race coverage for every instrumentation site recording while
// aggregation runs (satellite of the flight-recorder test plan; pattern
// of TestReadOnlyFastPathStress).
func TestObsStress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = true
	cfg.BatchSize = 32
	cfg.FlightRecorderSize = 16 // small ring so snapshots race wrap-around
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const accounts = 32
	for i := uint64(0); i < accounts; i++ {
		if err := e.Load(key(i), txn.NewValue(8, 0)); err != nil {
			t.Fatal(err)
		}
	}
	allKeys := make([]txn.Key, accounts)
	for i := range allKeys {
		allKeys[i] = key(uint64(i))
	}

	const rounds = 150
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := (seed + uint64(r)) % accounts
				e.ExecuteBatch([]txn.Txn{incTxn(a), incTxn((a + 7) % accounts)})
			}
		}(uint64(s) * 17)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var sum uint64
		var rows int
		for r := 0; r < rounds; r++ {
			e.ExecuteBatch([]txn.Txn{roSum(allKeys, &sum, &rows)})
			if _, err := e.Read(key(uint64(r)%accounts), nil); err != nil {
				t.Errorf("inline read: %v", err)
				return
			}
		}
	}()
	// Scrapers: Prometheus exposition, flight dumps, raw snapshots, and
	// periodic resets, all while the writers above are recording.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := e.DebugHandler()
			m := e.Metrics()
			for r := 0; r < 60; r++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
				for s := 0; s < obs.NumStages; s++ {
					m.Stages[s].Snapshot().Quantile(0.99)
				}
				e.FlightRecords()
				e.Stats()
				if g == 0 && r%20 == 19 {
					m.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
}
