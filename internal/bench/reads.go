package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"bohm/internal/core"
	"bohm/internal/engine"
	"bohm/internal/txn"
	"bohm/internal/workload"
)

// Reads measures the read-heavy YCSB mixes the read-only fast path is
// built for: single-key zipfian operations with the read fraction swept
// through YCSB-B (95/5) up to YCSB-C (100/0). The first table compares
// all five engines; the second isolates BOHM's fast path against the
// pipelined ablation (Config.DisableReadOnlyFastPath) on identical
// configurations — the committed BENCH_reads.json pins the speedup.
func Reads(s Scale) []*Table {
	engines := &Table{
		ID:    "reads",
		Title: fmt.Sprintf("YCSB-B/C single-key read mix at %d threads (zipfian theta=0.9)", s.MaxThreads),
		Param: "% reads",
		Notes: []string{
			hostNote(),
			"reads are single-key read-only transactions (YCSB-C = 100%); writes are single-key RMW",
			"BOHM serves the reads on its snapshot fast path (Stats.ReadOnlyFastPath in the JSON runs)",
		},
	}
	for _, k := range AllEngines {
		engines.Series = append(engines.Series, string(k))
	}
	for _, pct := range s.ReadMixPcts {
		var vals []float64
		for _, k := range AllEngines {
			e, err := MakeEngine(k, s.MaxThreads, s.Records)
			if err != nil {
				panic(err)
			}
			vals = append(vals, readMixPoint(k, e, s, pct))
		}
		engines.AddRow(fmt.Sprintf("%d%%", pct), vals...)
	}

	cc, exec := bohmSplit(s.MaxThreads)
	ablation := &Table{
		ID:    "reads-ablation",
		Title: fmt.Sprintf("BOHM read-only fast path vs pipeline (%d CC + %d exec workers)", cc, exec),
		Param: "% reads",
		Series: []string{
			"fast path", "pipeline", "speedup %",
		},
		Notes: []string{
			"identical configurations; \"pipeline\" sets Config.DisableReadOnlyFastPath",
			"speedup % is fast-path throughput over pipelined throughput at the same mix, in percent",
			"transactions are pre-built and resubmitted in a ring from a single submitter stream, so the numbers isolate the engine paths from driver-side generation and scheduler oversubscription",
			"the 100% row is YCSB-C: reads bypass the sequencer, CC partitions, batch barrier and execution scheduler entirely",
		},
	}
	for _, pct := range s.ReadMixPcts {
		once := func(disable bool) float64 {
			cfg := core.DefaultConfig()
			cfg.CCWorkers, cfg.ExecWorkers = cc, exec
			cfg.Capacity = s.Records
			cfg.DisableReadOnlyFastPath = disable
			e, err := core.New(cfg)
			if err != nil {
				panic(err)
			}
			defer e.Close()
			y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
			if err := y.LoadInto(e); err != nil {
				panic(err)
			}
			// No GOMAXPROCS override: the ablation measures the two engine
			// paths at the host's real parallelism; oversubscription noise
			// would swamp the per-operation delta.
			r := Run(Bohm, e, Options{Txns: s.Txns, Streams: 1},
				prebuiltMixGen(y, 0.9, pct, 8192))
			return r.Throughput
		}
		// Best of three: scheduler interference only ever subtracts, so
		// the maximum is the least-noisy estimate of each path's capacity.
		point := func(disable bool) float64 {
			best := 0.0
			for i := 0; i < 3; i++ {
				if v := once(disable); v > best {
					best = v
				}
			}
			return best
		}
		fast := point(false)
		piped := point(true)
		speedup := 0.0
		if piped > 0 {
			speedup = 100 * fast / piped
		}
		ablation.AddRow(fmt.Sprintf("%d%%", pct), fast, piped, speedup)
	}

	// The mixed-call table measures the split heuristic itself, so it
	// sweeps read fractions around the majority threshold rather than the
	// read-heavy YCSB-B/C region above.
	mixed := &Table{
		ID:    "reads-mixed",
		Title: fmt.Sprintf("BOHM mixed-call heuristic: majority split vs always split (%d CC + %d exec workers)", cc, exec),
		Param: "% reads",
		Series: []string{
			"heuristic", "always split", "heuristic %",
		},
		Notes: []string{
			"every submission mixes single-key reads and RMWs in one ExecuteBatch call; the heuristic diverts the reads to the snapshot fast path only when they are the strict majority of the call",
			"\"always split\" sets Config.DisableMixedPipelining — the unconditional diversion, which at read-minority mixes pays the two-path coordination cost for little fast-path work",
			"heuristic % is heuristic throughput over always-split throughput at the same mix, in percent; at and below 50% reads the heuristic keeps the reads pipelined and must not regress",
			"median of interleaved paired reps: the two arms alternate within each rep so scheduler drift hits both equally, and the median ratio discards the outlier runs a 1-core host produces",
		},
	}
	for _, pct := range []int{25, 50, 75} {
		once := func(alwaysSplit bool) float64 {
			cfg := core.DefaultConfig()
			cfg.CCWorkers, cfg.ExecWorkers = cc, exec
			cfg.Capacity = s.Records
			cfg.DisableMixedPipelining = alwaysSplit
			e, err := core.New(cfg)
			if err != nil {
				panic(err)
			}
			defer e.Close()
			y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
			if err := y.LoadInto(e); err != nil {
				panic(err)
			}
			r := Run(Bohm, e, Options{Txns: s.Txns, Streams: 1},
				prebuiltMixGen(y, 0.9, pct, 8192))
			return r.Throughput
		}
		// Interleaved paired reps, median ratio: best-of-N per arm assumes
		// noise only subtracts uniformly, but a 1-core host's interference
		// is bursty enough to starve one arm's entire run block. Pairing
		// the arms back-to-back inside each rep exposes both to the same
		// conditions; the median pair is the representative one.
		const reps = 5
		type pair struct{ heuristic, split float64 }
		pairs := make([]pair, reps)
		for i := range pairs {
			pairs[i] = pair{heuristic: once(false), split: once(true)}
		}
		sort.Slice(pairs, func(i, j int) bool {
			return pairs[i].heuristic/pairs[i].split < pairs[j].heuristic/pairs[j].split
		})
		med := pairs[reps/2]
		mixed.AddRow(fmt.Sprintf("%d%%", pct), med.heuristic, med.split,
			100*med.heuristic/med.split)
	}
	return []*Table{engines, ablation, mixed}
}

// readMixGen mixes single-key zipfian point reads and RMW updates at the
// given read percentage, one independent source and rng per stream.
func readMixGen(y workload.YCSB, theta float64, readPct int) func(stream int) func() txn.Txn {
	return func(stream int) func() txn.Txn {
		src := y.NewSource(int64(7000+stream*31337), theta)
		rng := rand.New(rand.NewSource(int64(41 + stream)))
		return func() txn.Txn {
			if rng.Intn(100) < readPct {
				return src.PointRead()
			}
			return src.RMW1()
		}
	}
}

// prebuiltMixGen pre-builds a per-stream ring of the read mix and cycles
// it: resubmission costs nothing on the driver side, so ablation points
// measure the engine paths alone. A stream never has the same transaction
// instance in flight twice (submission is synchronous per stream).
func prebuiltMixGen(y workload.YCSB, theta float64, readPct, ring int) func(stream int) func() txn.Txn {
	return func(stream int) func() txn.Txn {
		src := y.NewSource(int64(8000+stream*127), theta)
		rng := rand.New(rand.NewSource(int64(97 + stream)))
		txns := make([]txn.Txn, ring)
		for i := range txns {
			if rng.Intn(100) < readPct {
				txns[i] = src.PointRead()
			} else {
				txns[i] = src.RMW1()
			}
		}
		i := 0
		return func() txn.Txn {
			t := txns[i%ring]
			i++
			return t
		}
	}
}

// readMixPoint loads e, runs the mix, closes the engine, and returns the
// committed throughput.
func readMixPoint(kind EngineKind, e engine.Engine, s Scale, readPct int) float64 {
	defer e.Close()
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}
	if err := y.LoadInto(e); err != nil {
		panic(err)
	}
	r := Run(kind, e, Options{Txns: s.Txns, Procs: s.MaxThreads}, readMixGen(y, 0.9, readPct))
	return r.Throughput
}
