package bench

import (
	"fmt"
	"sync"
	"time"

	"bohm/client"
	"bohm/internal/core"
	"bohm/internal/obs"
	"bohm/internal/server"
	"bohm/internal/txn"
	"bohm/internal/workload"
)

// ServerSweep measures the network front-end on loopback TCP: closed-loop
// clients (each keeping `depth` submissions in flight) drive the uniform
// 10RMW workload through internal/server's group batcher, sweeping
// connection count x per-connection pipeline depth. The final series is
// the ablation — MaxBatch=1 disables the server's grouping, so every
// ExecuteBatch carries one transaction. Its in-flight cap is raised to
// every outstanding request, so the engine still sees them all at once
// and its sequencer merges concurrent calls into shared batches: the
// ablation removes the batcher's grouping and nothing else.
func ServerSweep(s Scale) []*Table {
	depths := s.ServerDepths
	maxDepth := depths[len(depths)-1]
	series := make([]string, 0, len(depths)+1)
	for _, d := range depths {
		series = append(series, fmt.Sprintf("depth=%d", d))
	}
	series = append(series, fmt.Sprintf("no-group d=%d", maxDepth))

	notes := []string{
		"loopback TCP, closed-loop clients; uniform 10RMW via the registered ycsb.rmw procedure",
		"no-group: server MaxBatch=1, one transaction per ExecuteBatch, MaxInFlight = connections x depth (grouping ablation; the sequencer still merges concurrent calls)",
		hostNote(),
	}
	tput := &Table{
		ID:     "server",
		Title:  "network front-end: cross-connection group batching (txns/sec)",
		Param:  "connections",
		Series: series,
		Notes:  notes,
	}
	p99 := &Table{
		ID:     "server-p99",
		Title:  "network front-end: p99 submit-to-ack latency (µs)",
		Param:  "connections",
		Series: series,
		Notes:  []string{"per-transaction latency from Submit to acknowledgement, pipeline wait included"},
	}

	for _, conns := range s.ServerConns {
		var tv, lv []float64
		for _, d := range depths {
			r := measureServer(s, conns, d, 0)
			tv = append(tv, r.Throughput)
			lv = append(lv, float64(r.P99.Microseconds()))
		}
		r := measureServer(s, conns, maxDepth, 1)
		tv = append(tv, r.Throughput)
		lv = append(lv, float64(r.P99.Microseconds()))
		tput.AddRow(fmt.Sprintf("%d", conns), tv...)
		p99.AddRow(fmt.Sprintf("%d", conns), lv...)
	}
	return []*Table{tput, p99}
}

// measureServer runs one (connections, depth) point: a fresh engine and
// server, `conns` client connections each holding `depth` transactions in
// flight, s.Txns measured transactions after a 10% warmup. Large grids
// raise the count so every point runs several multiples of its total
// outstanding window — 64 connections x depth 32 needs more than a
// handful of transactions per connection to reach steady state. maxBatch
// > 0 overrides the server's coalescing cap (1 = grouping off) and lifts
// the in-flight cap to every outstanding request.
func measureServer(s Scale, conns, depth, maxBatch int) Result {
	txns := s.Txns
	if m := conns * depth * 8; txns < m {
		txns = m
	}
	reg := txn.NewRegistry()
	workload.RegisterYCSB(reg, s.RecordSize)
	y := workload.YCSB{Records: s.Records, RecordSize: s.RecordSize}

	cc, exec := bohmSplit(s.MaxThreads)
	cfg := core.DefaultConfig()
	cfg.CCWorkers = cc
	cfg.ExecWorkers = exec
	cfg.Capacity = s.Records
	cfg.BatchSize = 1024
	cfg.GC = true
	eng, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	if err := y.LoadInto(eng); err != nil {
		panic(err)
	}

	scfg := server.Config{Addr: "127.0.0.1:0", PipelineDepth: depth}
	if maxBatch > 0 {
		scfg.MaxBatch = maxBatch
		scfg.MaxInFlight = conns * depth
	}
	srv, err := server.New(eng, reg, scfg)
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	clients := make([]*client.Conn, conns)
	for i := range clients {
		c, err := client.Dial(srv.Addr(), &client.Options{PipelineDepth: depth})
		if err != nil {
			panic(err)
		}
		clients[i] = c
		defer c.Close()
	}

	// drive pushes `total` transactions through the clients, each
	// connection a closed loop with at most `depth` outstanding; when hist
	// is non-nil every transaction's submit-to-ack duration is recorded.
	drive := func(total int, hist *obs.Histogram) {
		var wg sync.WaitGroup
		per := (total + conns - 1) / conns
		for i, c := range clients {
			wg.Add(1)
			go func(stream int, c *client.Conn) {
				defer wg.Done()
				src := y.NewSource(int64(4242+stream*7919), 0)
				type flight struct {
					p     *client.Pending
					start time.Time
				}
				settle := func(f flight) {
					if err := f.p.Wait(); err != nil {
						panic(fmt.Sprintf("bench: server submit failed: %v", err))
					}
					if hist != nil {
						hist.Record(stream, uint64(time.Since(f.start)))
					}
				}
				win := make([]flight, 0, per)
				head := 0
				for n := 0; n < per; n++ {
					if len(win)-head == depth {
						settle(win[head])
						head++
					}
					t := src.RMW10Call(reg)
					start := time.Now()
					p, err := c.Submit(t)
					if err != nil {
						panic(fmt.Sprintf("bench: submit: %v", err))
					}
					win = append(win, flight{p: p, start: start})
				}
				for ; head < len(win); head++ {
					settle(win[head])
				}
			}(i, c)
		}
		wg.Wait()
	}

	if warm := txns / 10; warm > 0 {
		drive(warm, nil)
	}
	before := eng.Stats()
	hist := obs.NewHistogram(conns)
	start := time.Now()
	drive(txns, hist)
	elapsed := time.Since(start)
	stats := eng.Stats().Sub(before)

	snap := hist.Snapshot()
	label := fmt.Sprintf("server,conns=%d,depth=%d", conns, depth)
	if maxBatch == 1 {
		label += ",nogroup"
	}
	res := Result{
		Txns:       txns,
		Elapsed:    elapsed,
		Throughput: float64(stats.Committed) / elapsed.Seconds(),
		Stats:      stats,
		Label:      label,
		P50:        time.Duration(snap.Quantile(0.50)),
		P99:        time.Duration(snap.Quantile(0.99)),
		P999:       time.Duration(snap.Quantile(0.999)),
		Max:        time.Duration(snap.Max),
	}
	recordRun(Bohm, res)
	return res
}
