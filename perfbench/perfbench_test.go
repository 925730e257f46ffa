package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"bohm/internal/txn"
	"bohm/internal/workload"
)

// small returns a cut-down copy of the named workload — same path through
// the program, a table small enough for a unit test.
func small(t *testing.T, name string) *spec {
	t.Helper()
	s := lookup(name)
	if s == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *s
	c.rows = 2000
	c.setups = 2
	return &c
}

func testOptions(t *testing.T) *options {
	return &options{seed: 7, seconds: 2, warmup: 100 * time.Millisecond, dataDir: t.TempDir()}
}

// declared reads BENCHMARK.json's metric names for one mode.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]json.RawMessage
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(bench[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func names(ms map[string]metric) []string {
	var ns []string
	for n := range ms {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func sameNames(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("metrics %v, BENCHMARK.json declares %v", got, want)
		}
	}
}

// TestSmoke runs every workload briefly in both modes: the audit passes,
// nothing fails, and each mode reports exactly the metrics BENCHMARK.json
// declares for it.
func TestSmoke(t *testing.T) {
	for _, w := range specs {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/plain", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				s := small(t, w.name)
				o := testOptions(t)
				o.trace = trace
				res, rec, err := run(s, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				key := "end_to_end"
				if trace {
					key = "per_layer"
				}
				sameNames(t, names(res.Metrics), declared(t, key))
				if rec.ThroughputTPS <= 0 || rec.LatencyP50us <= 0 || rec.LatencyP99us < rec.LatencyP50us || rec.CPUusPerTxn <= 0 {
					t.Errorf("recorded %+v", rec)
				}
				if !trace {
					for _, n := range []string{"alloc_bytes_per_txn", "rss_peak_mb", "setup_s"} {
						if res.Metrics[n].Value <= 0 {
							t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
						}
					}
					return
				}
				for _, n := range []string{"e2e.throughput_tps", "e2e.latency_p50_us", "e2e.cpu_us_per_txn", "core.run_us.p50", "core.admit_to_run_us.p50", "core.cc_us.p50", "trace.coverage"} {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
					}
				}
				if s.served {
					for _, n := range []string{"server.admit_us.p50", "server.ack_us.p50", "client.submit_us.p50", "wal.log_append_us.p50", "server.batch_fill.p50"} {
						if res.Metrics[n].Value <= 0 {
							t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
						}
					}
				}
				if s.readPct > 0 && res.Metrics["core.readpath.fast_path_frac"].Value <= 0.5 {
					t.Errorf("fast_path_frac = %v, want most reads on the fast path", res.Metrics["core.readpath.fast_path_frac"].Value)
				}
			})
		}
	}
}

// TestWorkloadsMatchBenchmarkJSON keeps BENCHMARK.json's workload list
// and reasons in step with the program's.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct{ Workloads []struct{ Name, Why string } }
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(specs))
	}
	for i, w := range bench.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
}

// TestAuditCatchesTamperedCounters commits one 10RMW the audit is not
// told about: the counters no longer sum to ten per counted transaction.
func TestAuditCatchesTamperedCounters(t *testing.T) {
	s := small(t, "embedded-rmw-hot")
	r, err := s.setup(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.close(); err != nil {
			t.Error(err)
		}
	}()
	streams := s.inputs(1)
	for _, err := range r.eng.ExecuteBatch(streams[0].txns[:pipelineDepth]) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := r.audit(pipelineDepth, 0); err != nil {
		t.Fatalf("untampered audit: %v", err)
	}
	extra := &workload.RMWTxn{Keys: keys([]uint64{1}), Size: s.rowSize}
	if err := r.eng.ExecuteBatch([]txn.Txn{extra})[0]; err != nil {
		t.Fatal(err)
	}
	if err := r.audit(pipelineDepth, 0); err == nil {
		t.Fatal("audit passed after an uncounted increment")
	}
}

// TestAuditCatchesTamperedBalance overwrites one account over the wire:
// the transfer total is no longer conserved. An empty read fails the
// audit too.
func TestAuditCatchesTamperedBalance(t *testing.T) {
	s := small(t, "served-read-mostly")
	r, err := s.setup(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.close(); err != nil {
			t.Error(err)
		}
	}()
	if err := r.audit(0, 0); err != nil {
		t.Fatalf("untampered audit: %v", err)
	}
	if err := r.audit(0, 1); err == nil {
		t.Fatal("audit passed with an empty read")
	}
	reg := s.registry(nil)
	put := reg.MustCall(workload.ProcKVPut, workload.KVPutArgs(key(3), txn.NewValue(8, 0)))
	if err := r.conns[0].ExecuteBatch([]txn.Txn{put})[0]; err != nil {
		t.Fatal(err)
	}
	if err := r.audit(0, 0); err == nil {
		t.Fatal("audit passed after a balance was overwritten")
	}
}

// TestErrorRateCountsRefusals gives one stream only a procedure the
// server does not know: every submission of it is refused, and each
// refusal counts as attempted and failed, never as committed.
func TestErrorRateCountsRefusals(t *testing.T) {
	s := small(t, "served-read-mostly")
	streams := s.inputs(1)
	reg := s.registry(nil)
	reg.Register("perfbench.unknown", func(args []byte) (txn.Txn, error) {
		return &workload.KVGetTxn{K: key(0)}, nil
	})
	for j := range streams[0].txns {
		streams[0].txns[j] = reg.MustCall("perfbench.unknown", nil)
		streams[0].read[j] = false
	}

	r, err := s.setup(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := measure(r, streams, 50*time.Millisecond, 1)
	if cerr := r.close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if m.audit != nil {
		t.Fatalf("audit: %v", m.audit)
	}
	if m.failed == 0 {
		t.Fatal("a refused submission was not counted as failed")
	}
	if want := float64(m.failed) / float64(m.attempted); m.errorRate() != want || want <= 0 {
		t.Fatalf("error rate %v, want failed/attempted = %v", m.errorRate(), want)
	}
	if m.committed != m.attempted-m.failed {
		t.Fatalf("committed %d, want attempted %d - failed %d", m.committed, m.attempted, m.failed)
	}
}

// TestParseProm reads a histogram back into the obs buckets it was
// written from, so windowed quantiles of scraped families are exact.
func TestParseProm(t *testing.T) {
	text := "# TYPE x counter\nbohm_server_txns_submitted_total 42\n" +
		"bohm_server_batch_fill_bucket{le=\"4\"} 3\n" +
		"bohm_server_batch_fill_bucket{le=\"34\"} 5\n" +
		"bohm_server_batch_fill_bucket{le=\"+Inf\"} 5\n" +
		"bohm_server_batch_fill_count 5\n" +
		"bohm_stage_duration_seconds_bucket{stage=\"cc\",le=\"1e-06\"} 1\n"
	counters, hists := parseProm(text)
	if counters["bohm_server_txns_submitted_total"] != 42 {
		t.Fatalf("counter = %v", counters["bohm_server_txns_submitted_total"])
	}
	h := hists["bohm_server_batch_fill"]
	if h == nil || h.Count != 5 || h.Counts[3] != 3 || h.Counts[bucketOf(34)] != 2 {
		t.Fatalf("histogram = %+v", h)
	}
	if _, ok := hists["bohm_stage_duration_seconds"]; ok {
		t.Fatal("labelled family parsed as an unlabelled histogram")
	}
	if q := histQuantile(h, 0.5); q < 3 || q >= 4 {
		t.Fatalf("p50 = %v, want within bucket [3, 4)", q)
	}
}
