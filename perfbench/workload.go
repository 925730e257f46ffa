package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bohm/client"
	"bohm/internal/core"
	"bohm/internal/server"
	"bohm/internal/txn"
	"bohm/internal/wal"
	"bohm/internal/workload"
)

// Load shape shared by the workloads: one process, two connections (or
// embedded submitters), each keeping pipelineDepth transactions in
// flight.
const (
	conns         = 2
	pipelineDepth = 64
	// ringPerStream is how many transactions each served stream
	// pre-generates and then cycles through. An embedded stream cycles
	// through pipelineDepth calls of pipelineDepth transactions; either
	// way no transaction is ever in flight twice.
	ringPerStream = 256
	// initialBalance funds every account of the transfer workload far
	// beyond any sum a run can move, so no transfer aborts.
	initialBalance = 1 << 40
	rmwKeys        = 10
)

// spec describes one workload.
type spec struct {
	name string
	why  string
	// served workloads run through server.New and client.Conn over
	// loopback TCP with a durable log; the others call
	// Engine.ExecuteBatch directly, with no log.
	served  bool
	rows    int
	rowSize int
	theta   float64 // zipfian skew of the keys; 0 is uniform
	// readPct is the percentage of kv.get reads in a kv workload; zero
	// means the workload is 10RMW (ycsb.rmw).
	readPct int
	setups  int // set-ups per plain run; setup_s is their median
}

var specs = []*spec{
	{
		name:   "served-rmw-durable",
		why:    "whole served path (client, wire, batcher, WAL fsync, exec, ack) at low contention over a 1M-row table larger than cache",
		served: true, rows: 1_000_000, rowSize: 100, setups: 3,
	},
	{
		name:   "embedded-rmw-hot",
		why:    "paper's high-contention 10RMW (zipf 0.9): sequencer, CC placeholder chains and cooperative exec; bypasses client, wire, server and WAL",
		served: false, rows: 100_000, rowSize: 100, theta: 0.9, setups: 5,
	},
	{
		name:   "served-read-mostly",
		why:    "95% kv.get on the read lane against keys 5% durable transfers are writing (zipf 0.9): reads never block writes",
		served: true, rows: 100_000, rowSize: 8, theta: 0.9, readPct: 95, setups: 5,
	},
}

func lookup(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func workloadNames() []string {
	var ns []string
	for _, s := range specs {
		ns = append(ns, s.name)
	}
	return ns
}

// streams is the number of closed-loop submitters.
func (s *spec) streams() int {
	if s.served {
		return conns * pipelineDepth
	}
	return conns
}

// stream is one submitter's pre-generated transactions.
type stream struct {
	txns []txn.Txn
	read []bool // served: submit on the read lane
}

// inputs generates every stream's transactions from seed. Served
// transactions are registry calls, built the way a client builds them;
// embedded ones are the plain workload transactions.
func (s *spec) inputs(seed int64) []stream {
	reg := s.registry(nil)
	rng := rand.New(rand.NewSource(seed))
	zipf := workload.NewZipfian(rng, uint64(s.rows), s.theta)
	n := ringPerStream
	if !s.served {
		n = pipelineDepth * pipelineDepth
	}
	ids := make([]uint64, rmwKeys)
	out := make([]stream, s.streams())
	for i := range out {
		st := &out[i]
		st.txns = make([]txn.Txn, n)
		st.read = make([]bool, n)
		for j := range st.txns {
			switch {
			case s.readPct == 0:
				zipf.NextDistinct(ids)
				ks := keys(ids)
				if s.served {
					st.txns[j] = reg.MustCall(workload.ProcRMW, workload.EncodeKeys(ks))
				} else {
					st.txns[j] = &workload.RMWTxn{Keys: ks, Size: s.rowSize}
				}
			case rng.Intn(100) < s.readPct:
				st.txns[j] = reg.MustCall(workload.ProcKVGet, workload.KVGetArgs(key(zipf.Next())))
				st.read[j] = true
			default:
				zipf.NextDistinct(ids[:2])
				amount := 1 + uint64(rng.Intn(100))
				st.txns[j] = reg.MustCall(workload.ProcKVTransfer, workload.KVTransferArgs(key(ids[0]), key(ids[1]), amount))
			}
		}
	}
	return out
}

func key(id uint64) txn.Key { return txn.Key{Table: workload.YCSBTable, ID: id} }

func keys(ids []uint64) []txn.Key {
	ks := make([]txn.Key, len(ids))
	for i, id := range ids {
		ks[i] = key(id)
	}
	return ks
}

// registry holds the workload's procedures and, when tr is set, the
// trace wrapper around them.
func (s *spec) registry(tr *tracer) *txn.Registry {
	reg := txn.NewRegistry()
	workload.RegisterYCSB(reg, s.rowSize)
	workload.RegisterKV(reg)
	if tr != nil {
		tr.register(reg)
	}
	return reg
}

// rig is one set-up instance of a workload.
type rig struct {
	spec      *spec
	eng       *core.Engine
	srv       *server.Server
	conns     []*client.Conn
	tr        *tracer       // nil when untraced
	dir       string        // log directory, removed by close
	setupTime time.Duration // wall clock
	setupCPU  time.Duration // process CPU
}

// setup builds the engine and loads the table. A served workload then
// starts the way cmd/bohm-server does, from its log directory: the table
// is loaded into an engine with garbage collection off (CheckpointNow
// seals a bulk load only while no batch has run, and a collecting
// engine's idle ticks start at once), checkpointed, closed, and
// recovered with the default configuration; then the server starts and
// the connections dial. setupTime and setupCPU cover all of it.
func (s *spec) setup(dataDir string, tr *tracer) (_ *rig, err error) {
	start, cpu0 := time.Now(), cpuNS()
	r := &rig{spec: s, tr: tr}
	defer func() {
		if err != nil {
			err = errors.Join(err, r.close())
		}
	}()
	cfg := core.DefaultConfig()
	cfg.Metrics = tr != nil
	if !s.served {
		if r.eng, err = core.New(cfg); err != nil {
			return nil, err
		}
		if err := s.load(r.eng); err != nil {
			return nil, err
		}
		r.setupTime, r.setupCPU = time.Since(start), time.Duration(cpuNS()-cpu0)
		return r, nil
	}

	if r.dir, err = os.MkdirTemp(dataDir, "wal-"); err != nil {
		return nil, err
	}
	cfg.LogDir = r.dir
	cfg.SyncPolicy = wal.SyncEveryBatch
	loadCfg := cfg
	loadCfg.GC = false
	if r.eng, err = core.New(loadCfg); err != nil {
		return nil, err
	}
	if err := s.load(r.eng); err != nil {
		return nil, err
	}
	if err := r.eng.CheckpointNow(); err != nil {
		return nil, fmt.Errorf("checkpoint after load: %w", err)
	}
	// A restarted server begins with an empty heap; collect the loading
	// engine before recovery allocates the serving one.
	r.eng.Close()
	r.eng = nil
	runtime.GC()
	reg := s.registry(tr)
	if r.eng, err = core.Recover(cfg, reg); err != nil {
		return nil, err
	}
	if r.srv, err = server.New(r.eng, reg, server.Config{Addr: "127.0.0.1:0"}); err != nil {
		return nil, err
	}
	for i := 0; i < conns; i++ {
		c, err := client.Dial(r.srv.Addr(), &client.Options{PipelineDepth: pipelineDepth})
		if err != nil {
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	r.setupTime, r.setupCPU = time.Since(start), time.Duration(cpuNS()-cpu0)
	return r, nil
}

// load fills the table: RMW rows start at a zero counter, accounts at
// initialBalance.
func (s *spec) load(eng *core.Engine) error {
	v := txn.NewValue(s.rowSize, 0)
	if s.readPct > 0 {
		v = txn.NewValue(s.rowSize, initialBalance)
	}
	for id := 0; id < s.rows; id++ {
		if err := eng.Load(key(uint64(id)), v); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

// close tears the rig down in dependency order — connections, server,
// engine, log directory — and returns the memory to the OS, so the next
// set-up starts from the same footprint.
func (r *rig) close() error {
	var errs []error
	for _, c := range r.conns {
		errs = append(errs, c.Close())
	}
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
	}
	if r.eng != nil {
		r.eng.Close()
	}
	if r.dir != "" {
		errs = append(errs, os.RemoveAll(r.dir))
	}
	*r = rig{spec: r.spec}
	runtime.GC()
	debug.FreeOSMemory()
	return errors.Join(errs...)
}

// audit checks the database against what the run acknowledged: for
// 10RMW, the counters sum to ten per committed transaction; for
// transfers, the balances sum to what was loaded and no read came back
// empty. It reads through Engine.Read after every submitter has
// finished.
func (r *rig) audit(committedWrites, emptyReads int64) error {
	s := r.spec
	var sum uint64
	var buf []byte
	for id := 0; id < s.rows; id++ {
		v, err := r.eng.Read(key(uint64(id)), buf)
		if err != nil {
			return fmt.Errorf("audit: read row %d: %w", id, err)
		}
		buf = v
		sum += txn.U64(v)
	}
	want := uint64(rmwKeys * committedWrites)
	if s.readPct > 0 {
		want = uint64(s.rows) * initialBalance
		if emptyReads > 0 {
			return fmt.Errorf("audit: %d kv.get results were empty", emptyReads)
		}
	}
	if sum != want {
		return fmt.Errorf("audit: rows sum to %d, want %d", sum, want)
	}
	return nil
}
