// Package bohm is a production-quality Go implementation of BOHM, the
// serializable multiversion concurrency control protocol of Faleiro &
// Abadi, "Rethinking serializable multiversion concurrency control"
// (VLDB 2015), together with the four baselines the paper evaluates
// against: Hekaton-style optimistic MVCC, Snapshot Isolation, Silo-style
// single-version OCC, and deadlock-free two-phase locking.
//
// # Model
//
// Transactions are stored procedures with declared access sets: the
// write-set must cover every key the transaction may write (BOHM plans
// version placement before execution), and the read-set enables BOHM's
// read-reference optimization. A transaction's logic runs against a Ctx
// and may be re-executed, so it must be deterministic given its reads.
//
//	eng, _ := bohm.New(bohm.DefaultConfig())
//	defer eng.Close()
//	eng.Load(bohm.Key{Table: 0, ID: 1}, bohm.NewValue(8, 100))
//
//	k := bohm.Key{Table: 0, ID: 1}
//	res := eng.ExecuteBatch([]bohm.Txn{&bohm.Proc{
//		Reads:  []bohm.Key{k},
//		Writes: []bohm.Key{k},
//		Body: func(ctx bohm.Ctx) error {
//			v, err := ctx.Read(k)
//			if err != nil {
//				return err
//			}
//			return ctx.Write(k, bohm.Incremented(v, 1))
//		},
//	}})
//
// ExecuteBatch is serializable on every engine; on BOHM the equivalent
// serial order is exactly the submission order.
//
// # Range scans
//
// The store is a two-tier index: a per-partition hash map for point access
// plus an ordered key directory maintained by the concurrency control
// phase. A transaction may declare KeyRanges (Txn.RangeSet) and scan them
// with Ctx.ReadRange; on BOHM the scan is phantom-free by construction —
// every key any earlier transaction will ever write has its placeholder
// and directory entry inserted before execution begins — and a declared
// range is annotated at CC time with resolved version references, so the
// scan touches no version chains at all. The baselines implement ReadRange
// with their own idioms (2PL: planned table locks; OCC and Hekaton:
// commit-time range revalidation; SI: snapshot reads), so all five engines
// are comparable on scan workloads:
//
//	scan := &bohm.Proc{
//		Ranges: []bohm.KeyRange{{Table: 0, Lo: 100, Hi: 200}},
//		Body: func(ctx bohm.Ctx) error {
//			return ctx.ReadRange(bohm.KeyRange{Table: 0, Lo: 100, Hi: 200},
//				func(k bohm.Key, v []byte) error { sum += bohm.U64(v); return nil })
//		},
//	}
//
// Deleted keys do not haunt the index: once a key's newest surviving
// version is a tombstone below the execution watermark, BOHM's index
// lifecycle reaps it — the directory entry, the hash slot and the whole
// version chain are reclaimed under the same epoch discipline that
// protects lock-free readers — so directories and scans track the live
// working set even under insert/delete churn (queues, sessions,
// TTL-style tables). Reaping is always on with GC; the in-repo
// benchmarks compare it with the insert-only index through the
// DisableReaping ablation (core.WithAblations), not a public setting.
//
// # Read-only fast path
//
// A transaction with an empty declared write-set never enters the
// pipeline: ExecuteBatch diverts it to a pool of snapshot-read workers
// that read the multiversion store at the execution watermark — a
// boundary at which every version is final — with a reader-epoch scheme
// keeping those versions safe from garbage collection and memory
// recycling for the duration. The result is serializable (equivalent to
// serializing the transaction immediately after the last completed
// batch) and recent (every write acknowledged before the submission is
// observed). ExecuteReadOnly validates and submits read-only batches,
// and Engine.Read serves a single zero-allocation point read:
//
//	val, err := eng.Read(bohm.Key{Table: 0, ID: 1}, buf) // buf reused across calls
//
// Read-only transactions mixed into a writing ExecuteBatch call
// serialize at the snapshot, before that call's writes; set
// Config.DisableReadOnlyFastPath to pipeline them like any other
// transaction instead.
//
// # Engines
//
// New creates a BOHM engine (the paper's contribution); NewHekaton,
// NewSnapshotIsolation, NewOCC and New2PL create the baselines. All five
// implement Engine and are interchangeable.
//
// # Durability
//
// The BOHM engine optionally persists its state with Calvin-style command
// logging. The determinism argument: BOHM's equivalent serial order is
// exactly the submission order (timestamps are log positions assigned by
// a single sequencer), and transaction logic is required to be
// deterministic given its reads — so the database state after any prefix
// of the transaction log is a pure function of that prefix. Logging the
// inputs (one record per batch: each transaction's procedure id, argument
// bytes and access sets) and re-executing them in order therefore
// reproduces the lost state exactly, with no per-version redo/undo and no
// read/write logging on the execution path.
//
// Closures cannot be serialized, so durable engines require transactions
// built through a Registry, which binds a procedure id to a factory and
// yields Loggable transactions:
//
//	reg := bohm.NewRegistry()
//	reg.Register("transfer", func(args []byte) (bohm.Txn, error) { ... })
//
//	cfg := bohm.DefaultConfig()
//	cfg.LogDir = "data"
//	cfg.CheckpointEveryBatches = 1024
//	eng, _ := bohm.Recover(cfg, reg) // opens or creates the database
//	eng.Load(...)                    // first run only
//	eng.CheckpointNow()              // seal bulk loads into a checkpoint
//	eng.ExecuteBatch([]bohm.Txn{reg.MustCall("transfer", args)})
//
// ExecuteBatch acknowledges only durable batches: under the default
// wal.SyncEveryBatch policy the sequencer fsyncs each batch before it
// enters concurrency control (group commit comes free, since all waiting
// submissions coalesce into one batch); wal.SyncByInterval bounds the
// fsync rate instead and completions wait for the covering sync.
//
// A background checkpointer (Config.CheckpointEveryBatches) exploits the
// multiversion store to snapshot the database at a batch watermark while
// execution continues — chains are simply read at the watermark's
// timestamp boundary — then truncates the log below the checkpoint.
// Recover loads the newest checkpoint, deterministically replays the
// remaining log (discarding a torn tail left by a crash mid-append), and
// resumes logging.
//
// # Observability
//
// Config.Metrics turns on the BOHM engine's flight recorder: per-stage
// latency histograms over every batch's pipeline timeline (sequencer
// wait, log append, concurrency control, barrier, execution, durable
// wait), per-transaction submission and fast-path read latency, and a
// ring buffer of recent batch lifecycle records. Instrumentation is
// allocation-free — worker-sharded fixed-size histograms and a seqlock
// ring — so the hot path keeps its zero-allocations-per-transaction
// budget with metrics on. Config.DebugAddr (which implies Metrics)
// serves the numbers over HTTP: Prometheus text on /metrics, a JSON
// dump of recent batches on /debug/flight, plus expvar and net/http/pprof:
//
//	cfg := bohm.DefaultConfig()
//	cfg.DebugAddr = "127.0.0.1:7788"
//	eng, _ := bohm.New(cfg)
//	// curl localhost:7788/metrics ; curl localhost:7788/debug/flight
//
// Programmatic access: Engine.Metrics (histograms), Engine.FlightRecords
// (recent batches), Engine.DebugHandler (the same HTTP surface for
// mounting into an existing server), Engine.LastCheckpointError.
package bohm

import (
	"bohm/internal/core"
	"bohm/internal/engine"
	"bohm/internal/hekaton"
	"bohm/internal/obs"
	"bohm/internal/occ"
	"bohm/internal/si"
	"bohm/internal/twopl"
	"bohm/internal/txn"
	"bohm/internal/wal"
)

// Key identifies a record: a table number and a 64-bit row id.
type Key = txn.Key

// KeyRange identifies a half-open interval [Lo, Hi) of row ids within one
// table, the unit of declaration for serializable range scans.
type KeyRange = txn.KeyRange

// Txn is a stored-procedure transaction with declared access sets.
type Txn = txn.Txn

// Ctx is the data-access interface handed to transaction logic.
type Ctx = txn.Ctx

// Proc builds a Txn from closures.
type Proc = txn.Proc

// Engine is the interface all five engines implement.
type Engine = engine.Engine

// Stats is an engine's counter snapshot.
type Stats = engine.Stats

// ErrNotFound is returned by Ctx.Read for records with no visible version.
var ErrNotFound = txn.ErrNotFound

// ErrAbort is a convenience sentinel for aborting a transaction.
var ErrAbort = txn.ErrAbort

// ErrDuplicateWriteKey is reported for a transaction whose declared
// write-set repeats a key; BOHM rejects it at submission (each write-set
// entry allocates one version, and a duplicate would deadlock on itself).
var ErrDuplicateWriteKey = core.ErrDuplicateWriteKey

// ErrNotReadOnly is reported by the BOHM engine's ExecuteReadOnly for
// transactions whose declared write-set is not empty.
var ErrNotReadOnly = core.ErrNotReadOnly

// Config parameterizes the BOHM engine; see the field documentation in
// the internal core package.
type Config = core.Config

// DefaultConfig returns a small general-purpose BOHM configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// New starts a BOHM engine.
func New(cfg Config) (*core.Engine, error) { return core.New(cfg) }

// Durability API: command logging, checkpoints and crash recovery for the
// BOHM engine. See the package documentation's Durability section.

// Registry maps procedure ids to transaction factories; durable engines
// require registry-built (Loggable) transactions.
type Registry = txn.Registry

// NewRegistry creates an empty procedure registry.
func NewRegistry() *Registry { return txn.NewRegistry() }

// Loggable is a transaction that can be recorded in the command log.
type Loggable = txn.Loggable

// SyncPolicy selects when the command log is fsynced.
type SyncPolicy = wal.SyncPolicy

// The available log sync policies.
const (
	// SyncEveryBatch (the default) fsyncs before acknowledging each batch.
	SyncEveryBatch = wal.SyncEveryBatch
	// SyncByInterval group-commits on Config.SyncInterval.
	SyncByInterval = wal.SyncByInterval
	// SyncNever leaves flushing to the OS page cache.
	SyncNever = wal.SyncNever
)

// ErrNotLoggable is reported when a durable engine is handed a
// transaction that was not built through a Registry.
var ErrNotLoggable = core.ErrNotLoggable

// ErrDurabilityLost is reported (wrapped with the storage error) for
// every transaction refused because the engine is LogDegraded: the
// command log failed beyond its repair budget, so new work cannot be
// made durable. Previously acknowledged writes remain readable. See
// Engine.Health.
var ErrDurabilityLost = core.ErrDurabilityLost

// Health is the BOHM engine's position on the durability degradation
// ladder, reported by Engine.Health: Healthy → LogDegraded (storage
// failed beyond Config.LogRetry; writes fail fast with
// ErrDurabilityLost while reads keep serving the last durable snapshot)
// → Closed.
type Health = core.Health

// The health ladder's rungs.
const (
	Healthy     = core.Healthy
	LogDegraded = core.LogDegraded
	Closed      = core.Closed
)

// RetryPolicy bounds the durability subsystem's retry/backoff loops
// (Config.LogRetry for write-hole repair of the command log,
// Config.CheckpointRetry for checkpoint attempts).
type RetryPolicy = core.RetryPolicy

// Recover rebuilds a BOHM engine from the durable state in cfg.LogDir:
// newest checkpoint plus deterministic replay of the logged batches above
// it. On an empty directory it degenerates to New, so applications can
// call it unconditionally at startup. reg must hold every procedure id
// that appears in the log.
func Recover(cfg Config, reg *Registry) (*core.Engine, error) { return core.Recover(cfg, reg) }

// HekatonConfig parameterizes the Hekaton and Snapshot Isolation engines.
type HekatonConfig = hekaton.Config

// DefaultHekatonConfig returns a small general-purpose configuration.
func DefaultHekatonConfig() HekatonConfig { return hekaton.DefaultConfig() }

// NewHekaton creates the optimistic serializable multiversion baseline
// (Larson et al.), with its global timestamp counter and commit
// dependencies.
func NewHekaton(cfg HekatonConfig) (Engine, error) {
	cfg.Level = hekaton.Serializable
	return hekaton.New(cfg)
}

// NewSnapshotIsolation creates the snapshot isolation baseline: the
// Hekaton codebase without read validation. Not serializable.
func NewSnapshotIsolation(cfg HekatonConfig) (Engine, error) { return si.New(cfg) }

// OCCConfig parameterizes the single-version OCC engine.
type OCCConfig = occ.Config

// DefaultOCCConfig returns a small general-purpose configuration.
func DefaultOCCConfig() OCCConfig { return occ.DefaultConfig() }

// NewOCC creates the Silo-style single-version optimistic baseline.
func NewOCC(cfg OCCConfig) (Engine, error) { return occ.New(cfg) }

// TwoPLConfig parameterizes the two-phase locking engine.
type TwoPLConfig = twopl.Config

// DefaultTwoPLConfig returns a small general-purpose configuration.
func DefaultTwoPLConfig() TwoPLConfig { return twopl.DefaultConfig() }

// New2PL creates the deadlock-free two-phase locking baseline.
func New2PL(cfg TwoPLConfig) (Engine, error) { return twopl.New(cfg) }

// Observability types re-exported from the obs subsystem; see the
// package documentation's Observability section.

// Metrics is the BOHM engine's observability surface: per-stage latency
// histograms and the batch flight recorder. Engine.Metrics returns nil
// unless Config.Metrics (or DebugAddr) is set.
type Metrics = obs.Metrics

// BatchRecord is one batch's lifecycle in the flight recorder: sequence
// number, sizes, abort count and nanosecond stage timestamps relative to
// engine start.
type BatchRecord = obs.BatchRecord

// Stage identifies one pipeline stage in Metrics.Stages.
type Stage = obs.Stage

// The pipeline stages instrumented by the flight recorder.
const (
	StageSeqWait     = obs.StageSeqWait     // submission → sequenced
	StageLogAppend   = obs.StageLogAppend   // sequenced → command log appended
	StageCC          = obs.StageCC          // concurrency control phase
	StageBarrier     = obs.StageBarrier     // spread between first and last CC worker
	StageExec        = obs.StageExec        // execution phase
	StageDurableWait = obs.StageDurableWait // log append → durable (fsync covered)
	StageSubmit      = obs.StageSubmit      // per-txn ExecuteBatch latency
	StageRORead      = obs.StageRORead      // fast-path read-only latency
)

// StageName returns a stage's snake_case name as used in /metrics labels.
func StageName(s Stage) string { return obs.StageName(s) }

// Value helpers re-exported for transaction bodies.

// U64 decodes the uint64 counter at the front of a record value.
func U64(v []byte) uint64 { return txn.U64(v) }

// PutU64 encodes x into the first eight bytes of v.
func PutU64(v []byte, x uint64) { txn.PutU64(v, x) }

// NewValue allocates a record value of the given size holding counter x.
func NewValue(size int, x uint64) []byte { return txn.NewValue(size, x) }

// Incremented returns a fresh copy of v with its counter incremented.
func Incremented(v []byte, delta uint64) []byte { return txn.Incremented(v, delta) }

// IncrementedInto is the allocation-free Incremented: the incremented
// copy of v lands in dst (grown only when too small) and the slice
// holding it is returned. The engine copies values at install, so a
// transaction reusing one scratch buffer per written key runs at zero
// allocations in steady state.
func IncrementedInto(dst, v []byte, delta uint64) []byte {
	return txn.IncrementedInto(dst, v, delta)
}
