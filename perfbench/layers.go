package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"

	"bohm/internal/engine"
	"bohm/internal/obs"
)

// layerSnap is the per-layer state read at one instant of a traced run:
// the engine's counters, its stage histograms (Config.Metrics), and the
// server's bohm_server_* families scraped through Engine.DebugHandler.
type layerSnap struct {
	stats    engine.Stats
	stages   [obs.NumStages]*obs.HistSnapshot
	counters map[string]float64
	hists    map[string]*obs.HistSnapshot
}

// layerDelta is what happened between two snapshots. Counters and
// histograms are cumulative, so the difference is exact.
type layerDelta layerSnap

func snapLayers(r *rig) *layerSnap {
	s := &layerSnap{stats: r.eng.Stats()}
	for i, h := range r.eng.Metrics().Stages {
		s.stages[i] = h.Snapshot()
	}
	if r.srv != nil {
		rec := httptest.NewRecorder()
		r.eng.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		s.counters, s.hists = parseProm(rec.Body.String())
	}
	return s
}

func (s *layerSnap) sub(before *layerSnap) *layerDelta {
	d := &layerDelta{stats: subStats(s.stats, before.stats), counters: map[string]float64{}, hists: map[string]*obs.HistSnapshot{}}
	for i, h := range s.stages {
		h.Sub(before.stages[i])
		d.stages[i] = h
	}
	for name, v := range s.counters {
		d.counters[name] = v - before.counters[name]
	}
	for name, h := range s.hists {
		if b := before.hists[name]; b != nil {
			h.Sub(b)
		}
		d.hists[name] = h
	}
	return d
}

// subStats subtracts the counters the per-layer metrics use.
func subStats(a, b engine.Stats) engine.Stats {
	return engine.Stats{
		Committed:         a.Committed - b.Committed,
		Requeues:          a.Requeues - b.Requeues,
		RecursiveExecs:    a.RecursiveExecs - b.RecursiveExecs,
		ReadRefHits:       a.ReadRefHits - b.ReadRefHits,
		ChainSteps:        a.ChainSteps - b.ChainSteps,
		ReadOnlyFastPath:  a.ReadOnlyFastPath - b.ReadOnlyFastPath,
		VersionsCreated:   a.VersionsCreated - b.VersionsCreated,
		VersionsPooled:    a.VersionsPooled - b.VersionsPooled,
		VersionsCollected: a.VersionsCollected - b.VersionsCollected,
		LogBatches:        a.LogBatches - b.LogBatches,
		LogBytes:          a.LogBytes - b.LogBytes,
		LogSyncs:          a.LogSyncs - b.LogSyncs,
	}
}

// layerMetrics computes the per-layer metrics of a traced measurement.
// A layer the workload does not reach reads 0.
func layerMetrics(s *spec, m *measurement) map[string]metric {
	d := m.layers
	st := d.stats
	committed := per(m.committed)
	us := func(x float64) float64 { return x / 1e3 }
	spanP50 := func(k int) float64 { return us(quantile(m.spans[k], 0.5)) }
	stage := func(k obs.Stage) float64 { return us(histQuantile(d.stages[k], 0.5)) }
	ratio := func(a, b uint64) float64 { return float64(a) / float64(max(b, 1)) }

	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	// The client and server layers exist only on the served workloads;
	// elsewhere they read 0.
	var submit, admit, ack, fill, hold, stalls, timerFrac float64
	if s.served {
		submit, admit, ack = spanP50(spanSubmit), spanP50(spanAdmit), spanP50(spanAck)
		fill = histQuantile(d.hists["bohm_server_batch_fill"], 0.5)
		hold = us(histQuantile(d.hists["bohm_server_batch_wait_seconds"], 0.5))
		stalls = 1e3 * d.counters["bohm_server_admission_stalls_total"] / math.Max(d.counters["bohm_server_txns_submitted_total"], 1)
		flushes, timer := 0.0, 0.0
		for name, v := range d.counters {
			if strings.HasPrefix(name, "bohm_server_batch_flush_") {
				flushes += v
				if strings.HasSuffix(name, "_timer_total") {
					timer += v
				}
			}
		}
		timerFrac = timer / math.Max(flushes, 1)
	}
	set("client.submit_us.p50", "us", submit)
	set("server.admit_us.p50", "us", admit)
	set("server.ack_us.p50", "us", ack)
	set("server.batch_fill.p50", "count", fill)
	set("server.batch_hold_us.p50", "us", hold)
	set("server.admission_stalls_per_ktxn", "count", stalls)
	set("server.flush_timer_frac", "ratio", timerFrac)

	set("core.seq_wait_us.p50", "us", stage(obs.StageSeqWait))
	set("core.cc_us.p50", "us", stage(obs.StageCC))
	set("core.barrier_us.p50", "us", stage(obs.StageBarrier))
	set("core.exec_us.p50", "us", stage(obs.StageExec))
	set("core.admit_to_run_us.p50", "us", spanP50(spanAdmitToRun))
	set("core.run_us.p50", "us", spanP50(spanRun))
	// Pipelined transactions per non-empty batch; the read lane's
	// fast-path reads never enter a batch.
	set("core.batch_txns.mean", "count", ratio(st.Committed-st.ReadOnlyFastPath, d.stages[obs.StageSeqWait].Count))
	set("core.requeues_per_txn", "count", float64(st.Requeues)/committed)
	set("core.recursive_execs_per_txn", "count", float64(st.RecursiveExecs)/committed)
	set("core.read_ref_hits_per_txn", "count", float64(st.ReadRefHits)/committed)
	set("core.chain_steps_per_txn", "count", float64(st.ChainSteps)/committed)
	set("core.readpath.ro_read_us.p50", "us", stage(obs.StageRORead))
	set("core.readpath.fast_path_frac", "ratio", float64(st.ReadOnlyFastPath)/committed)

	set("wal.log_append_us.p50", "us", stage(obs.StageLogAppend))
	set("wal.durable_wait_us.p50", "us", stage(obs.StageDurableWait))
	set("wal.syncs_per_batch", "count", ratio(st.LogSyncs, st.LogBatches))
	set("wal.bytes_per_txn", "B", float64(st.LogBytes)/per(m.writes))

	set("storage.versions_created_per_txn", "count", float64(st.VersionsCreated)/committed)
	set("storage.versions_pooled_frac", "ratio", ratio(st.VersionsPooled, st.VersionsCreated))
	set("storage.gc_collected_per_txn", "count", float64(st.VersionsCollected)/committed)

	// On the embedded workload the ack leg is the ExecuteBatch return.
	blocking := admit + spanP50(spanAdmitToRun) + spanP50(spanRun) + spanP50(spanAck)
	set("trace.coverage", "ratio", blocking/math.Max(us(quantile(m.lat, 0.5)), 1e-3))
	return out
}

// histQuantile estimates the q-quantile of a histogram snapshot,
// interpolating linearly inside the bucket that holds it (the engine's
// own Quantile reports the bucket's lower bound, which would read the
// same on run after run).
func histQuantile(s *obs.HistSnapshot, q float64) float64 {
	if s == nil {
		return 0
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	seen := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := float64(obs.BucketLow(i)), float64(obs.BucketHigh(i))
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(s.Max)
}

// parseProm reads a Prometheus text exposition: unlabelled samples into
// counters, and every unlabelled histogram back into an obs snapshot
// (bucket bounds map back to obs buckets; seconds are scaled back to
// nanoseconds).
func parseProm(text string) (map[string]float64, map[string]*obs.HistSnapshot) {
	counters := map[string]float64{}
	hists := map[string]*obs.HistSnapshot{}
	prev := map[string]uint64{} // cumulative count at the previous bucket line
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		base, le, ok := strings.Cut(name, `_bucket{le="`)
		if !ok {
			if !strings.Contains(name, "{") {
				counters[name] = v
			}
			continue
		}
		le = strings.TrimSuffix(le, `"}`)
		h := hists[base]
		if h == nil {
			h = &obs.HistSnapshot{}
			hists[base] = h
		}
		cum := uint64(v)
		if le == "+Inf" {
			h.Count = cum
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		scale := 1.0
		if strings.HasSuffix(base, "_seconds") {
			scale = 1e9
		}
		i := bucketOf(uint64(math.Round(bound * scale)))
		h.Counts[i] += cum - prev[base]
		prev[base] = cum
	}
	return counters, hists
}

// bucketOf returns the obs bucket whose exclusive upper bound is high.
func bucketOf(high uint64) int {
	n := len(obs.HistSnapshot{}.Counts)
	return sort.Search(n-1, func(i int) bool { return obs.BucketHigh(i) >= high })
}

// describe renders the per-layer metrics for the standard error summary.
func describe(ms map[string]metric) string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-36s %12.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	return b.String()
}
