package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bohm/internal/engine"
	"bohm/internal/obs"
	"bohm/internal/storage"
	"bohm/internal/txn"
	"bohm/internal/vfs"
	"bohm/internal/wal"
)

// RetryPolicy bounds the retry/backoff loops of the durability
// subsystem's two storage writers (Config.LogRetry, CheckpointRetry).
type RetryPolicy = wal.RetryPolicy

// ErrClosed is returned by ExecuteBatch after Close.
var ErrClosed = errors.New("bohm: engine closed")

// ErrDuplicateWriteKey is reported (wrapped, with the offending key) for a
// transaction whose declared write-set contains the same key twice. Each
// write-set entry allocates one placeholder version; duplicates would make
// the later placeholder's predecessor the earlier one — an intra-
// transaction dependency the executor can never satisfy (it would wait on
// its own unfinished attempt, livelocking the batch). ExecuteBatch rejects
// such transactions at submission; the rest of the batch runs normally.
var ErrDuplicateWriteKey = errors.New("bohm: duplicate key in declared write-set")

// Config parameterizes a BOHM engine. The zero value is not usable; use
// DefaultConfig as a starting point.
type Config struct {
	// CCWorkers is the number of concurrency control threads (m in the
	// paper). Records are hash-partitioned across them.
	CCWorkers int
	// ExecWorkers is the number of transaction execution threads (n).
	ExecWorkers int
	// BatchSize is the number of transactions per coordination batch
	// (§3.2.4). Larger batches amortize the inter-phase barrier.
	BatchSize int
	// Capacity is the expected number of records across all tables; the
	// partitioned hash index is sized from it.
	Capacity int
	// GC enables incremental garbage collection of superseded versions
	// (§3.3.2, Condition 3).
	GC bool
	// DisableReadRefs turns off the read-reference annotation of §3.2.3,
	// forcing reads to traverse version chains (ablation).
	DisableReadRefs bool
	// DisablePooling turns off the engine's memory recycling (ablation):
	// batch, node and annotation memory is allocated per transaction and
	// abandoned to the runtime's garbage collector, and placeholder
	// versions are individually heap-allocated instead of drawn from
	// per-partition blocks. With pooling on (the default) the steady-state
	// transaction path performs no allocation: batches cycle through a
	// retire ring gated on the execution watermark (and the checkpoint
	// pin, when checkpointing), and versions collected by GC return to the
	// owning partition's pool under the same epoch argument. Results are
	// identical either way; only the allocation profile differs.
	DisablePooling bool
	// DisableReaping turns off the index lifecycle (ablation): dead keys —
	// records whose newest surviving version is a tombstone below the
	// execution watermark — keep their directory entries, hash slots and
	// version chains forever, the insert-only behaviour of the original
	// two-tier index. With reaping on (the default, when GC is on), each CC
	// worker sweeps a bounded slice of its partition's directory per batch
	// and fully reclaims proven-dead keys: the directory entry is unlinked
	// (shrinking the key fences), the hash slot is freed for reuse, and
	// the chain's versions retire through the version-pool limbo under the
	// same watermark epoch that gates chain GC. Results are identical
	// either way — a reaped key and a tombstoned key are equally invisible
	// — only memory and scan cost differ.
	DisableReaping bool
	// ReadWorkers sizes the snapshot-read pool serving the read-only fast
	// path (default: ExecWorkers). Read-only transactions never enter the
	// sequencer → CC → execution pipeline; they run on these workers
	// against the multiversion store at the execution watermark, where
	// every version is final.
	ReadWorkers int
	// DisableReadOnlyFastPath sends read-only transactions through the
	// full pipeline like any other transaction (ablation). The results
	// are identical for sequential submitters either way — the fast path
	// serializes a read-only transaction at the execution watermark,
	// which its recency gate keeps at or above every previously
	// acknowledged write — but concurrent submitters may observe
	// read-only transactions of a mixed ExecuteBatch call serializing
	// before, rather than after, that same call's writes. With the fast
	// path off, read-only transactions submitted to a durable engine must
	// be Loggable again (on the fast path they bypass the command log —
	// they contribute nothing to replay). The inline Read API is
	// unaffected: it always serves from the protected snapshot.
	DisableReadOnlyFastPath bool
	// Preprocess enables the §3.2.2 pre-processing layer: transactions
	// are analyzed once and per-partition work lists are forwarded to the
	// CC workers, so a CC worker no longer examines transactions that
	// write nothing in its partition.
	Preprocess bool
	// PreprocessWorkers sizes the pre-processing pool (default 1). The
	// analysis is embarrassingly parallel; each worker handles a
	// contiguous stripe of every batch.
	PreprocessWorkers int
	// DisableAdaptiveReap pins the index-lifecycle sweep budget at its
	// fixed default instead of scaling it by each sweep's observed
	// tombstone hit rate (ablation). Results are identical; only how fast
	// the directory converges after churn — and how much lifecycle work a
	// quiescent table pays per batch — differs.
	DisableAdaptiveReap bool
	// DisableValueArena turns off the payload arena (ablation): each
	// committed write's value is copied into a fresh heap allocation
	// abandoned to the runtime GC instead of being carved from the
	// executing worker's payload slab. The caller-buffer contract is
	// identical either way — install always copies the staged value, so a
	// transaction may reuse its write buffer the moment Run returns — and
	// results are bit-identical (pinned by
	// TestDisableValueArenaIdenticalResults); only the allocation profile
	// differs. Implied by DisablePooling: payload slabs recycle through
	// the version-pool limbo, so without version pooling there is no
	// epoch-gated release for the slabs to ride.
	DisableValueArena bool
	// DisableIdleReap turns off the idle reclamation tick (ablation): a
	// quiescent engine stops advancing reclamation the moment its last
	// submitted batch executes, leaving retired versions parked in limbo
	// and dead keys unswept until the next real submission arrives. With
	// the tick on (the default, when GC is on), an idle engine feeds
	// itself empty batches at a millisecond cadence — each one advances
	// the execution watermark, releases limbo generations, runs the
	// bounded reap sweep and trims pool blocks and payload slabs — until
	// a full directory sweep's worth of ticks passes without reclamation
	// progress. Results are unaffected; only how fast a quiescent
	// engine's memory converges to its live working set differs.
	DisableIdleReap bool
	// DisableMixedPipelining always splits a mixed ExecuteBatch call
	// (ablation): its read-only transactions divert to the snapshot-read
	// pool no matter how few they are. By default a mixed call whose
	// readers are not the majority keeps everything pipelined — the
	// split's bookkeeping and the half-empty batches it feeds the
	// sequencer cost more than the reads it relieves the pipeline of.
	// Serialization stays correct either way (pipelined reads serialize
	// in submission order, exactly as under DisableReadOnlyFastPath);
	// only the mixed call's throughput profile differs.
	DisableMixedPipelining bool

	// LogDir, when non-empty, enables the durability subsystem: every
	// batch is appended to a command log in LogDir before execution and
	// ExecuteBatch acknowledges a transaction only once its batch is
	// durable under SyncPolicy. Durability requires every submitted
	// transaction to implement txn.Loggable (see txn.Registry). New
	// demands an empty directory; Recover reopens an existing one.
	LogDir string
	// SyncPolicy selects when the command log is fsynced; the default,
	// wal.SyncEveryBatch, never loses an acknowledged transaction.
	SyncPolicy wal.SyncPolicy
	// SyncInterval is the group-commit period for wal.SyncByInterval
	// (default 2ms). Ignored under other policies.
	SyncInterval time.Duration
	// SegmentBytes caps a log segment file before rotation (default 16
	// MiB). Smaller segments truncate at finer grain after checkpoints.
	SegmentBytes int64
	// CheckpointEveryBatches, when > 0 with durability enabled, runs a
	// background checkpointer: every time that many batches have executed
	// it snapshots the database at a fixed batch watermark — concurrently
	// with execution, courtesy of the multiversion store — then truncates
	// the log below the checkpoint. While checkpointing is enabled the
	// garbage collector trails the newest checkpoint instead of the
	// execution watermark, so snapshot reads stay safe.
	CheckpointEveryBatches int
	// LogRetry bounds the command log's write-hole repair: a failed
	// append or fsync retains the un-durable frames in memory, rotates to
	// a fresh segment and replays them, retrying up to Attempts times
	// with exponential backoff from Backoff (defaults 4 and 1ms; a
	// negative Attempts disables repair). Only when the budget is
	// exhausted does the engine step down to LogDegraded — see
	// Engine.Health and ErrDurabilityLost.
	LogRetry RetryPolicy
	// CheckpointRetry bounds a checkpoint attempt the same way (defaults
	// 3 attempts, 2ms backoff). Exhaustion does not degrade the engine —
	// the log retains everything a checkpoint would have truncated and
	// the background checkpointer tries again later — it only surfaces
	// through LastCheckpointError and Stats.CheckpointFailures.
	CheckpointRetry RetryPolicy
	// FS overrides the filesystem under the durability subsystem (the
	// command log, checkpoints, recovery). Nil means the real filesystem;
	// tests and the torture harness inject vfs.FaultFS here.
	FS vfs.FS

	// Metrics enables the observability subsystem (internal/obs): per-stage
	// latency histograms over every batch's pipeline timeline, per-
	// transaction submission and fast-path read latency, and the flight
	// recorder of recent batch lifecycle records. The record path is
	// allocation-free and lock-free; with Metrics off the instrumentation
	// sites reduce to a nil check. Snapshot through Engine.Metrics,
	// Engine.FlightRecords, or the debug endpoint.
	Metrics bool
	// DebugAddr, when non-empty, serves the debug HTTP endpoint on that
	// address: /metrics (Prometheus text format), /debug/flight (JSON
	// flight-recorder dump), /debug/vars (expvar) and /debug/pprof/*.
	// Setting it implies Metrics. Use ":0" to bind an ephemeral port and
	// Engine.DebugListenAddr to discover it.
	DebugAddr string
	// FlightRecorderSize is the number of recent batch records the flight
	// recorder retains (default 256).
	FlightRecorderSize int
}

// DefaultConfig returns a small general-purpose configuration.
func DefaultConfig() Config {
	return Config{
		CCWorkers:   2,
		ExecWorkers: 2,
		BatchSize:   1024,
		Capacity:    1 << 20,
		GC:          true,
	}
}

func (c *Config) normalize() error {
	if c.CCWorkers < 1 || c.ExecWorkers < 1 {
		return fmt.Errorf("bohm: need at least one CC and one execution worker (got %d, %d)", c.CCWorkers, c.ExecWorkers)
	}
	if c.BatchSize < 1 {
		c.BatchSize = 1024
	}
	if c.Capacity < 1 {
		c.Capacity = 1 << 20
	}
	if c.Preprocess && c.PreprocessWorkers < 1 {
		c.PreprocessWorkers = 1
	}
	if c.ReadWorkers < 1 {
		c.ReadWorkers = c.ExecWorkers
	}
	if c.CheckpointEveryBatches < 0 {
		c.CheckpointEveryBatches = 0
	}
	if c.CheckpointRetry.Attempts == 0 {
		c.CheckpointRetry.Attempts = 3
	}
	if c.CheckpointRetry.Backoff <= 0 {
		c.CheckpointRetry.Backoff = 2 * time.Millisecond
	}
	if c.DebugAddr != "" {
		c.Metrics = true
	}
	if c.Metrics && c.FlightRecorderSize < 1 {
		c.FlightRecorderSize = 256
	}
	return nil
}

// fs returns the filesystem the durability subsystem runs on.
func (c *Config) fs() vfs.FS {
	if c.FS != nil {
		return c.FS
	}
	return vfs.OS
}

// pinActive reports whether the checkpoint GC pin is in force: with
// periodic checkpointing enabled, garbage collection is capped at the
// newest checkpoint so snapshot scans never race a chain truncation.
func (c *Config) pinActive() bool {
	return c.LogDir != "" && c.CheckpointEveryBatches > 0
}

// stats holds the engine's counters; padded alignment is not needed since
// hot-path counters are sharded per worker and folded on read.
type workerStats struct {
	committed         uint64
	userAborts        uint64
	readRefHits       uint64
	rangeRefHits      uint64
	chainSteps        uint64
	requeues          uint64
	recursiveExecs    uint64
	versionsCreated   uint64
	versionsCollected uint64
	rangeFenceSkips   uint64
	roFastPath        uint64
	keysReaped        uint64
	dirBytesReclaimed uint64
	_                 [6]uint64 // pad to a cache line to avoid false sharing
}

// Engine is a running BOHM instance. Create with New, feed with
// ExecuteBatch, and Close when done.
type Engine struct {
	cfg Config

	// nparts is the number of hash partitions, one per CC worker, fixed
	// for the engine's lifetime: CC worker w is the single writer of
	// partition w.
	nparts int

	// parts[p] is the version-chain index of hash partition p. Only the
	// partition's owning CC worker inserts; execution workers read
	// concurrently.
	parts []*storage.Map[storage.Chain]

	// dirs[p] is partition p's ordered key directory — the second tier of
	// the two-tier index. The owning worker registers every first-ever
	// key at placeholder-insertion time, so when a batch reaches
	// execution the directory already names every key any earlier-
	// timestamped transaction will ever write; a range scan that walks it
	// and resolves visible versions is phantom-free by construction.
	dirs []*storage.Directory

	// partCC[p] is partition p's cross-batch CC state (iterators, sweep
	// cursor, adaptive reap budget); owner-only access.
	partCC []ccPartState

	subCh   chan *submission
	seqOut  []chan *batch // sequencer's output stage: ppIn or ccIn
	ppIn    []chan *batch
	ppDone  []chan *batch
	ccIn    []chan *batch
	ccDone  []chan *batch
	execIn  []chan *batch
	ccWG    sync.WaitGroup
	execWG  sync.WaitGroup
	seqWG   sync.WaitGroup
	closed  atomic.Bool
	batches atomic.Uint64

	// seqBase offsets batch numbering: the first batch is seqBase+1.
	// Zero on a fresh engine; Recover sets it to the loaded checkpoint's
	// watermark so batch sequences — and therefore checkpoint watermarks
	// and log record numbering — stay monotone across crash epochs. A
	// checkpoint written after recovery can then never sort below a
	// stale pre-crash checkpoint left behind by an interrupted cleanup.
	seqBase uint64

	// execBatch[i] is the newest batch sequence fully handled by
	// execution worker i; the minimum over workers is the GC watermark.
	// Workers that have not yet finished a batch of this epoch read as
	// seqBase, not zero.
	execBatch []atomic.Uint64

	// execTS[i] is execution worker i's snapshot-boundary contribution:
	// the limit timestamp of its newest finished batch (stored before the
	// matching execBatch entry). The minimum over workers is a timestamp
	// at which every version is final — the read-only fast path's
	// snapshot point. Initialized to 1, the boundary that sees exactly
	// the loaded (or checkpoint-restored) records.
	execTS []atomic.Uint64

	// Read-only fast path state; see readpath.go. fastCh carries chunks
	// of read-only transactions to the snapshot-read workers; roEpochs
	// holds one published reader epoch per worker plus inlineROSlots
	// claimable slots for the inline Read API (inactiveEpoch when idle);
	// ackedBatch is the newest batch sequence containing an acknowledged
	// write, the fast path's recency floor. All nil/unused under
	// Config.DisableReadOnlyFastPath.
	fastCh     chan roJob
	roEpochs   []atomic.Uint64
	roWG       sync.WaitGroup
	ackedBatch atomic.Uint64

	ccStats   []workerStats // one per CC worker, owner-written
	execStats []workerStats // one per execution worker
	roStats   []workerStats // one per snapshot-read worker

	// Pooling state (nil / unused under Config.DisablePooling). vpools[p]
	// is CC worker p's version block allocator; retireCh carries executed
	// batches back to the sequencer, which recycles them once the
	// watermark gate (retireLag) passes. arenaBatches and arenaBytes are
	// the recycling observability counters.
	vpools       []*storage.VersionPool
	retireCh     chan *batch
	arenaBatches atomic.Uint64
	arenaBytes   atomic.Uint64

	// varenas[w] is execution worker w's payload arena (nil under
	// DisablePooling or DisableValueArena): install copies each written
	// value into the worker's current slab, and the slab's references
	// drop in VersionPool.Release under the same epoch gate that
	// recycles the versions holding them. See storage.ValueArena.
	varenas []*storage.ValueArena

	// Idle reclamation tick state (see idleLoop); idleStop is nil when
	// GC is off or DisableIdleReap is set. idleTicks counts empty
	// batches injected while quiescent — the observability counter the
	// idle-reap tests drain on.
	idleStop  chan struct{}
	idleWG    sync.WaitGroup
	idleTicks atomic.Uint64

	// Durability state; see durability.go. wal and ackCh are nil when
	// Config.LogDir is empty. logOn flips on only while the pipeline is
	// quiescent (at New, or at the end of Recover's replay).
	wal *wal.Writer
	// logRec is the reusable command-log record logBatch encodes into;
	// touched only by the sequencer goroutine.
	logRec  wal.Batch
	logOn   atomic.Bool
	ackCh   chan *submission
	ackWG   sync.WaitGroup
	trackTS bool // sequencer records batch-end timestamp boundaries

	// Durability health ladder (see health.go). health holds a Health
	// value; healthCause (under healthMu) is the storage error that
	// caused the step down; degradedSince is the transition's unix-nano
	// stamp (0 while Healthy). degradeTS is the timestamp boundary
	// degraded reads clamp to (0 when clamping is unsafe and reads must
	// fail instead) and degradePin caps the GC watermark at the degraded
	// snapshot's batch (^0 while Healthy).
	health        atomic.Int32
	degradedSince atomic.Int64
	degradeTS     atomic.Uint64
	degradePin    atomic.Uint64
	healthMu      sync.Mutex
	healthCause   error
	ckptRetries   atomic.Uint64

	// obs is the observability root (stage histograms, flight recorder,
	// debug endpoint); nil unless Config.Metrics is on, and every
	// instrumentation site in the pipeline is gated on that nil check.
	obs *obsState

	ckptStop chan struct{}
	ckptWG   sync.WaitGroup
	ckptMu   sync.Mutex    // serializes checkpoint writers
	ckptPin  atomic.Uint64 // GC cap (newest checkpoint); ^0 when inactive
	lastCkpt atomic.Uint64 // newest checkpointed batch watermark
	// ckptErr retains the most recent checkpoint attempt's outcome for
	// LastCheckpointError and the debug endpoint (nil after a success);
	// ckptHook, when set by tests, runs inside checkpointOnce to inject
	// failures. Both under ckptErrMu.
	ckptErrMu sync.Mutex
	ckptErr   error
	ckptHook  func() error
	// hasCkpt records that a checkpoint covering lastCkpt exists on disk
	// (written by this engine, or restored by Recover). Written under
	// ckptMu or before the engine's goroutines start.
	hasCkpt    bool
	ckptCount  atomic.Uint64
	ckptFailed atomic.Uint64

	batchTSMu sync.Mutex
	batchTS   map[uint64]uint64 // batch seq -> first timestamp after it
}

// New starts a BOHM engine with the given configuration: one sequencer
// goroutine, cfg.CCWorkers concurrency control goroutines and
// cfg.ExecWorkers execution goroutines. With cfg.LogDir set, New demands a
// directory without prior durable state — reopening an existing database
// goes through Recover.
func New(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.LogDir != "" {
		has, err := wal.HasStateFS(cfg.fs(), cfg.LogDir)
		if err != nil {
			return nil, err
		}
		if has {
			return nil, fmt.Errorf("bohm: %s holds an existing log or checkpoint; use Recover", cfg.LogDir)
		}
	}
	e := build(cfg)
	if err := e.startDebug(); err != nil {
		return nil, err
	}
	if cfg.LogDir != "" {
		if err := e.startDurability(); err != nil {
			e.stopDebug()
			return nil, err
		}
	}
	e.start()
	e.startIdle()
	return e, nil
}

// build allocates an engine's passive state: partitions, channels and
// counters, but no goroutines and no durability wiring.
func build(cfg Config) *Engine {
	// Keys are hash-partitioned once, at engine build, and never
	// repartitioned: one partition per CC worker.
	nparts := cfg.CCWorkers
	e := &Engine{
		cfg:       cfg,
		nparts:    nparts,
		parts:     make([]*storage.Map[storage.Chain], nparts),
		dirs:      make([]*storage.Directory, nparts),
		partCC:    make([]ccPartState, nparts),
		subCh:     make(chan *submission, 64),
		ccIn:      make([]chan *batch, nparts),
		ccDone:    make([]chan *batch, nparts),
		execIn:    make([]chan *batch, cfg.ExecWorkers),
		execBatch: make([]atomic.Uint64, cfg.ExecWorkers),
		execTS:    make([]atomic.Uint64, cfg.ExecWorkers),
		ccStats:   make([]workerStats, nparts),
		execStats: make([]workerStats, cfg.ExecWorkers),
	}
	e.degradePin.Store(^uint64(0))
	for i := range e.partCC {
		e.partCC[i].reapBudget = reapSweepPerBatch
	}
	for i := range e.execTS {
		e.execTS[i].Store(1)
	}
	// The epoch slots and their stats exist regardless of the ablation:
	// the inline Read API always reads at a protected snapshot (only
	// ExecuteBatch diversion is switched by DisableReadOnlyFastPath, via
	// fastCh below). Idle slots cost watermark() a handful of loads.
	e.roEpochs = make([]atomic.Uint64, cfg.ReadWorkers+inlineROSlots)
	for i := range e.roEpochs {
		e.roEpochs[i].Store(inactiveEpoch)
	}
	e.roStats = make([]workerStats, cfg.ReadWorkers+inlineROSlots)
	if !cfg.DisableReadOnlyFastPath {
		e.fastCh = make(chan roJob, 4*cfg.ReadWorkers)
	}
	perPart := cfg.Capacity/nparts + cfg.Capacity/(4*nparts) + 64
	for p := range e.parts {
		e.parts[p] = storage.NewMap[storage.Chain](perPart)
		e.dirs[p] = storage.NewDirectory()
	}
	for i := range e.ccIn {
		e.ccIn[i] = make(chan *batch, 2)
		e.ccDone[i] = make(chan *batch, 2)
	}
	for i := range e.execIn {
		// The buffer depth is part of the retire ring's lifetime argument;
		// see retireLag before changing it.
		e.execIn[i] = make(chan *batch, execQueueCap)
	}
	if !cfg.DisablePooling {
		e.vpools = make([]*storage.VersionPool, nparts)
		for p := range e.vpools {
			e.vpools[p] = storage.NewVersionPool()
		}
		// Sized past the free-list bound so execution workers never block
		// on retirement; overflow batches are simply dropped to the
		// runtime GC by the non-blocking send.
		e.retireCh = make(chan *batch, 2*maxFreeBatches)
		if !cfg.DisableValueArena {
			e.varenas = make([]*storage.ValueArena, cfg.ExecWorkers)
			for w := range e.varenas {
				e.varenas[w] = storage.NewValueArena()
			}
		}
	}
	e.seqOut = e.ccIn
	if cfg.Preprocess {
		e.ppIn = make([]chan *batch, cfg.PreprocessWorkers)
		e.ppDone = make([]chan *batch, cfg.PreprocessWorkers)
		for i := range e.ppIn {
			e.ppIn[i] = make(chan *batch, 2)
			e.ppDone[i] = make(chan *batch, 2)
		}
		e.seqOut = e.ppIn
	}
	if cfg.Metrics {
		e.obs = newObsState(&cfg)
	}
	e.ckptPin.Store(^uint64(0))
	if cfg.LogDir != "" {
		e.trackTS = true
		e.batchTS = make(map[uint64]uint64)
		if cfg.pinActive() {
			// GC trails the newest checkpoint; until the first one lands,
			// nothing is collected (bounded by the checkpoint interval).
			e.ckptPin.Store(0)
		}
	}
	return e
}

// start launches the pipeline goroutines. Durability wiring, when any,
// must be in place first: the sequencer reads e.wal.
func (e *Engine) start() {
	if e.cfg.Preprocess {
		for j := 0; j < e.cfg.PreprocessWorkers; j++ {
			go e.preprocWorker(j)
		}
		go e.ppForwarder()
	}
	e.seqWG.Add(1)
	go e.sequencer()
	for w := 0; w < e.nparts; w++ {
		e.ccWG.Add(1)
		go e.ccWorker(w)
	}
	go e.forwarder()
	for w := 0; w < e.cfg.ExecWorkers; w++ {
		e.execWG.Add(1)
		go e.execWorker(w)
	}
	if e.fastCh != nil {
		for w := 0; w < e.cfg.ReadWorkers; w++ {
			e.roWG.Add(1)
			go e.roWorker(w)
		}
	}
}

// startIdle launches the idle reclamation ticker. It is separate from
// start because recovery must not run it during replay: an idle tick
// injects an unlogged empty batch, and a batch sequence consumed without
// a matching log record would leave a gap the next recovery's
// contiguity check rejects. New calls it right after start; Recover
// calls it only once replay has drained and logging is re-enabled.
func (e *Engine) startIdle() {
	if !e.cfg.GC || e.cfg.DisableIdleReap {
		return
	}
	e.idleStop = make(chan struct{})
	e.idleWG.Add(1)
	go e.idleLoop()
}

// idleTickInterval is the idle loop's polling cadence; idleTickSlack is
// the extra ticks granted past one full directory sweep so the
// watermark can advance through retireLag and drain limbo even when the
// sweep itself finds nothing.
const (
	idleTickInterval = time.Millisecond
	idleTickSlack    = 8
)

// idleLoop drives reclamation on a quiescent engine. A busy pipeline
// finishes its own reclamation — every batch's CC lifecycle releases
// limbo generations and advances the bounded reap sweep — but the last
// few batches before quiescence leave work parked: generations under
// the retireLag gate, dead keys the sweep cursor has not reached, and
// arena slabs waiting for a trim check. The loop watches for quiescence
// (every submitted batch executed, nothing queued) and feeds the
// sequencer empty tick batches; each one runs the full CC lifecycle and
// execution-watermark advance with zero transactions, which is exactly
// the reclamation machinery with no work attached.
//
// Pacing: on each transition to idle the loop grants itself enough
// ticks for one full directory sweep (plus slack), renewed whenever a
// tick makes reclamation progress — so a converged engine goes quiet
// after one sweep's worth of empty batches instead of ticking forever,
// mirroring the demand-windowed high-watermark trims it drives.
func (e *Engine) idleLoop() {
	defer e.idleWG.Done()
	t := time.NewTicker(idleTickInterval)
	defer t.Stop()
	idle := false
	credit := 0
	var last uint64
	for {
		select {
		case <-e.idleStop:
			return
		case <-t.C:
		}
		if e.execWatermark() != e.seqBase+e.batches.Load() || len(e.subCh) != 0 {
			idle = false
			continue
		}
		if p := e.reclaimProgress(); !idle || p != last {
			idle, last = true, p
			credit = e.DirectoryEntries()/reapSweepPerBatch + idleTickSlack
		}
		if credit <= 0 {
			continue
		}
		credit--
		e.idleTicks.Add(1)
		select {
		case e.subCh <- &submission{tick: true}:
		case <-e.idleStop:
			return
		}
	}
}

// reclaimProgress folds every counter an idle tick can advance: keys
// reaped, versions collected into limbo, and versions recycled out of
// it. The idle loop renews its tick credit while this moves.
func (e *Engine) reclaimProgress() uint64 {
	var p uint64
	for i := range e.ccStats {
		p += atomic.LoadUint64(&e.ccStats[i].keysReaped)
		p += atomic.LoadUint64(&e.ccStats[i].versionsCollected)
	}
	for _, vp := range e.vpools {
		_, recycled, _ := vp.Stats()
		p += recycled
	}
	return p
}

// forwarder implements the batch barrier between the phases: it collects
// each batch's completion report from every CC worker (workers emit
// batches in sequence order) and releases the batch to every execution
// worker, preserving sequence order end-to-end.
func (e *Engine) forwarder() {
	for {
		var b *batch
		for w := range e.ccDone {
			bw, ok := <-e.ccDone[w]
			if !ok {
				for _, ch := range e.execIn {
					close(ch)
				}
				return
			}
			if b == nil {
				b = bw
			} else if b != bw {
				panic("bohm: CC workers emitted batches out of order")
			}
		}
		for _, ch := range e.execIn {
			ch <- b
		}
	}
}

// partitionOf returns the hash partition owning key k; it is the engine's
// view of the one shared partition function (keyHashPart).
func (e *Engine) partitionOf(k txn.Key) int {
	_, p := keyHashPart(k, e.nparts)
	return p
}

// chainFor returns the version chain of k, or nil if the record has never
// existed.
func (e *Engine) chainFor(k txn.Key) *storage.Chain {
	return e.parts[e.partitionOf(k)].Get(k)
}

// Load inserts an initial record visible to every transaction. It must be
// called before any ExecuteBatch and is not safe for concurrent use with
// transaction processing. Loads bypass the command log; with durability
// enabled, call CheckpointNow after the last Load to seal them into the
// first checkpoint, or recovery will replay against an empty database.
func (e *Engine) Load(k txn.Key, v []byte) error {
	data := make([]byte, len(v))
	copy(data, v)
	chain := storage.NewChain(storage.NewLoadedVersion(data))
	p := e.partitionOf(k)
	_, ok, err := e.parts[p].Insert(k, chain)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bohm: duplicate load of key %+v", k)
	}
	e.dirs[p].Insert(k)
	return nil
}

// ExecuteBatch submits transactions for serializable execution and blocks
// until every one has committed or aborted. The returned slice has one
// entry per transaction: nil for commit, the transaction's own error for a
// logic abort. The serialization order of the whole system is the
// submission order.
func (e *Engine) ExecuteBatch(ts []txn.Txn) []error {
	res := make([]error, len(ts))
	if len(ts) == 0 {
		return res
	}
	if e.closed.Load() {
		for i := range res {
			res[i] = ErrClosed
		}
		return res
	}
	// Submission arrival stamp: the sequencer copies it into the first
	// batch holding one of this call's transactions (seq_wait stage), and
	// the full call latency is recorded per transaction on return.
	o := e.obs
	var t0 int64
	if o != nil {
		t0 = o.now()
	}

	// Reject transactions whose write-set repeats a key before they can
	// reach the pipeline: a duplicate would chain a placeholder onto the
	// transaction's own earlier placeholder and livelock the executor.
	// Only the offending transactions are refused; the rest proceed.
	valid := ts
	var orig []int
	// Fast-path classification happens in the same pass: nro counts
	// read-only transactions, and roValid materializes their indices into
	// valid — but only once the submission turns out to be mixed, so the
	// pure cases (all-read or all-write, the hot ones) never pay for it
	// and WriteSet is consulted exactly once per transaction.
	fastOn := e.fastCh != nil
	nro := 0
	var roValid []int
	mixed := false
	for i, t := range ts {
		ws := t.WriteSet()
		if k, dup := txn.FindDuplicateKey(ws); dup {
			if orig == nil {
				orig = make([]int, 0, len(ts)-1)
				valid = make([]txn.Txn, 0, len(ts)-1)
				for j := 0; j < i; j++ {
					orig = append(orig, j)
					valid = append(valid, ts[j])
				}
			}
			res[i] = fmt.Errorf("%w: key %+v", ErrDuplicateWriteKey, k)
			continue
		}
		vi := i
		if orig != nil {
			vi = len(valid)
			orig = append(orig, i)
			valid = append(valid, t)
		}
		if !fastOn {
			continue
		}
		isRO := len(ws) == 0
		if isRO {
			nro++
		}
		if !mixed {
			if isRO && nro-1 != vi {
				mixed = true // first reader after writers
			} else if !isRO && nro > 0 {
				// First writer after an all-read-only prefix: backfill it.
				mixed = true
				roValid = make([]int, vi, len(ts))
				for j := range roValid {
					roValid[j] = j
				}
			}
		}
		if mixed && isRO {
			roValid = append(roValid, vi)
		}
	}
	if len(valid) == 0 {
		return res
	}

	// The acknowledged-batch bound is maintained unconditionally (one
	// compare-and-swap per completed submission): the inline Read API
	// depends on it for recency even under DisableReadOnlyFastPath.
	sub := &submission{txns: valid, res: res, orig: orig, done: make(chan struct{})}
	sub.obsT0 = t0
	sub.acked = &e.ackedBatch
	sub.recency = e.ackedBatch.Load()

	// Read-only fast path: transactions with an empty write-set insert no
	// placeholders and constrain no other transaction, so they skip the
	// sequencer → CC → execution pipeline entirely and run on the
	// snapshot-read pool at the execution watermark (see readpath.go). A
	// submission mixing writers and readers splits only when the readers
	// are the majority; below that the split costs more than it saves —
	// index bookkeeping plus a reader-starved batch that no longer fills
	// — so the whole call stays pipelined (reads serialize in submission
	// order, which is always correct; the fast path is an optimization,
	// not a semantic). Durable engines keep the unconditional split:
	// diverted readers are exempt from the Loggable requirement, and
	// pipelining them would retroactively reject mixed calls carrying
	// non-loggable readers.
	var roTxns []txn.Txn
	var roIdx []int
	if fastOn && nro > 0 {
		if nro == len(valid) {
			roTxns, roIdx = valid, orig // idxs nil means identity
			sub.txns = nil
		} else if nro*2 > len(valid) || e.cfg.DisableMixedPipelining || e.logOn.Load() {
			roTxns = make([]txn.Txn, 0, nro)
			roIdx = make([]int, 0, nro)
			piped := make([]txn.Txn, 0, len(valid)-nro)
			pipedIdx := make([]int, 0, len(valid)-nro)
			r := 0
			for i, t := range valid {
				if r < len(roValid) && roValid[r] == i {
					r++
					roTxns = append(roTxns, t)
					roIdx = append(roIdx, sub.origIdx(i))
				} else {
					piped = append(piped, t)
					pipedIdx = append(pipedIdx, sub.origIdx(i))
				}
			}
			sub.txns, sub.orig = piped, pipedIdx
		}
	}

	if e.logOn.Load() && len(sub.txns) > 0 {
		if e.degraded() {
			// Fail fast: the command log is gone, so no pipelined
			// transaction can ever be acknowledged. Diverted read-only
			// transactions still run below, clamped to the last durable
			// snapshot (see waitSnapshotDurable).
			err := e.durabilityLostError()
			for i := range sub.txns {
				res[sub.origIdx(i)] = err
			}
			sub.txns = nil
		}
	}
	if e.logOn.Load() && len(sub.txns) > 0 {
		for _, t := range sub.txns {
			if _, ok := t.(txn.Loggable); !ok {
				// Reject every pipelined transaction: a half-logged batch
				// could not be replayed in order. Diverted read-only
				// transactions are exempt — they bypass the log — and
				// still run below.
				err := fmt.Errorf("%w (got %T)", ErrNotLoggable, t)
				for i := range sub.txns {
					res[sub.origIdx(i)] = err
				}
				sub.txns = nil
				break
			}
		}
		if len(sub.txns) > 0 {
			sub.ackCh = e.ackCh
		}
	}
	if len(sub.txns) == 0 && len(roTxns) == 0 {
		return res
	}
	n := int64(len(sub.txns) + len(roTxns))
	sub.remaining.Store(n)
	if len(sub.txns) > 0 {
		e.subCh <- sub
	}
	if len(roTxns) > 0 {
		e.enqueueReadOnly(sub, roTxns, roIdx)
	}
	<-sub.done
	if o != nil {
		// Every transaction in the call shares its end-to-end latency; one
		// weighted record covers them all.
		o.m.Stages[obs.StageSubmit].RecordN(0, uint64(o.now()-t0), uint64(n))
	}
	return res
}

// Close drains the pipeline, makes the log durable, and stops all
// goroutines. ExecuteBatch must not be called concurrently with or after
// Close.
func (e *Engine) Close() {
	e.shutdown(false)
}

// Kill simulates a crash for durability testing: it stops the engine like
// Close but abandons the command log without flushing, so bytes the
// writer had buffered past the last sync are dropped — the data-loss
// profile of a process crash. Acknowledged transactions survive under
// wal.SyncEveryBatch and wal.SyncByInterval; everything else is at the
// mercy of the sync policy, exactly as it would be for a real crash.
// Like Close, it must not run concurrently with ExecuteBatch.
func (e *Engine) Kill() {
	e.shutdown(true)
}

func (e *Engine) shutdown(kill bool) {
	if e.closed.Swap(true) {
		return
	}
	if e.idleStop != nil {
		// The idle ticker sends on subCh; it must be provably stopped
		// before the channel closes.
		close(e.idleStop)
		e.idleWG.Wait()
	}
	close(e.subCh)
	e.seqWG.Wait()
	e.execWG.Wait()
	if e.fastCh != nil {
		// After execWG the watermark is final, so any read-only jobs still
		// queued satisfy their recency gate immediately and drain fast.
		close(e.fastCh)
		e.roWG.Wait()
	}
	if e.ckptStop != nil {
		close(e.ckptStop)
		e.ckptWG.Wait()
	}
	if e.ackCh != nil {
		close(e.ackCh)
		e.ackWG.Wait()
	}
	if e.wal != nil {
		if kill {
			e.wal.Kill()
		} else {
			_ = e.wal.Close()
		}
	}
	// Terminal rung of the health ladder; healthCause (if the engine
	// degraded first) stays readable through Health.
	e.health.Store(int32(Closed))
	e.stopDebug()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() engine.Stats {
	var s engine.Stats
	for i := range e.ccStats {
		w := &e.ccStats[i]
		s.VersionsCreated += atomic.LoadUint64(&w.versionsCreated)
		s.VersionsCollected += atomic.LoadUint64(&w.versionsCollected)
		s.RangeFenceSkips += atomic.LoadUint64(&w.rangeFenceSkips)
		s.KeysReaped += atomic.LoadUint64(&w.keysReaped)
		s.DirBytesReclaimed += atomic.LoadUint64(&w.dirBytesReclaimed)
	}
	for i := range e.execStats {
		w := &e.execStats[i]
		s.Committed += atomic.LoadUint64(&w.committed)
		s.UserAborts += atomic.LoadUint64(&w.userAborts)
		s.ReadRefHits += atomic.LoadUint64(&w.readRefHits)
		s.RangeRefHits += atomic.LoadUint64(&w.rangeRefHits)
		s.ChainSteps += atomic.LoadUint64(&w.chainSteps)
		s.Requeues += atomic.LoadUint64(&w.requeues)
		s.RecursiveExecs += atomic.LoadUint64(&w.recursiveExecs)
		s.RangeFenceSkips += atomic.LoadUint64(&w.rangeFenceSkips)
	}
	for i := range e.roStats {
		w := &e.roStats[i]
		s.Committed += atomic.LoadUint64(&w.committed)
		s.UserAborts += atomic.LoadUint64(&w.userAborts)
		s.ChainSteps += atomic.LoadUint64(&w.chainSteps)
		s.RangeFenceSkips += atomic.LoadUint64(&w.rangeFenceSkips)
		s.ReadOnlyFastPath += atomic.LoadUint64(&w.roFastPath)
	}
	s.Batches = e.batches.Load()
	s.ArenaBatchesRecycled = e.arenaBatches.Load()
	s.BytesRecycled = e.arenaBytes.Load()
	for _, p := range e.vpools {
		pooled, recycled, trimmed := p.Stats()
		s.VersionsPooled += pooled
		s.BytesRecycled += recycled * storage.VersionBytes
		s.PoolBlocksTrimmed += trimmed
	}
	for _, a := range e.varenas {
		_, recycled, trimmed := a.Stats()
		s.ValueSlabsRecycled += recycled
		s.ValueSlabsTrimmed += trimmed
		s.BytesRecycled += recycled * storage.ValueSlabBytes
	}
	s.IdleTicks = e.idleTicks.Load()
	if e.wal != nil {
		ws := e.wal.Stats()
		s.LogBatches = ws.Batches
		s.LogBytes = ws.Bytes
		s.LogSyncs = ws.Syncs
		s.LogRetries = ws.Retries
	}
	s.Checkpoints = e.ckptCount.Load()
	s.CheckpointFailures = e.ckptFailed.Load()
	s.CheckpointRetries = e.ckptRetries.Load()
	s.DegradedSince = uint64(e.degradedSince.Load())
	return s
}

// DirectoryEntries returns the total ordered-directory entry count across
// all partitions. With the index lifecycle active it converges to the live
// key count instead of growing with every key that ever existed — the
// observability hook the churn experiment and the convergence tests use.
func (e *Engine) DirectoryEntries() int {
	n := 0
	for _, d := range e.dirs {
		n += d.Len()
	}
	return n
}

// ResidentChains returns the total hash-index entry (version chain) count
// across all partitions; like DirectoryEntries it converges to the live
// working set under reaping.
func (e *Engine) ResidentChains() int {
	n := 0
	for _, p := range e.parts {
		n += p.Len()
	}
	return n
}

// execWatermark returns the newest batch sequence every execution worker
// has finished (§3.3.2).
func (e *Engine) execWatermark() uint64 {
	wm := e.execBatch[0].Load()
	for i := 1; i < len(e.execBatch); i++ {
		if b := e.execBatch[i].Load(); b < wm {
			wm = b
		}
	}
	return wm
}

// watermark returns the garbage collection watermark: versions superseded
// at or before it are collectable. Normally this is the execution
// watermark; while periodic checkpointing is active it is capped at the
// newest checkpoint, so a snapshot scan at the checkpoint boundary never
// races a chain truncation (the snapshotter reads strictly above what GC
// may cut). It is further capped at the oldest published reader epoch, so
// a fast-path snapshot read keeps every version it can observe linked and
// unrecycled for the duration of the read — the same cap also gates the
// version-pool limbo release and the batch retire ring, which both derive
// their safe sequence from this function. Reader epochs add loads here
// (once per CC batch via wmLookup), never atomics to the write path.
func (e *Engine) watermark() uint64 {
	wm := e.execWatermark()
	if pin := e.ckptPin.Load(); pin < wm {
		wm = pin
	}
	// While degraded, reads are clamped to the frozen durable snapshot;
	// this pin keeps that snapshot's versions linked indefinitely.
	if pin := e.degradePin.Load(); pin < wm {
		wm = pin
	}
	for i := range e.roEpochs {
		if s := e.roEpochs[i].Load(); s < wm {
			wm = s
		}
	}
	return wm
}
