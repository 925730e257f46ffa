package txn

import (
	"fmt"
	"sync"
)

// Transaction bodies are closures and cannot be serialized, so a command
// log records transactions as (procedure id, argument bytes) pairs —
// Calvin-style command logging. A Registry maps procedure ids to factories
// that rebuild the transaction from its arguments; recovery replays the
// log by dispatching every logged pair through the same registry.

// Loggable is a Txn that can be recorded in a command log and rebuilt at
// recovery time. Engines with durability enabled require every submitted
// transaction to implement it; Registry.Call is the standard way to obtain
// one.
type Loggable interface {
	Txn
	// Procedure returns the registered procedure id and the serialized
	// arguments. The pair, dispatched through the same Registry, must
	// rebuild a transaction with identical access sets and deterministic
	// logic, or recovery will diverge from the original run.
	Procedure() (id string, args []byte)
}

// Factory rebuilds a transaction from its serialized arguments. It must be
// deterministic: the same args always yield a transaction with the same
// access sets and the same logic.
type Factory func(args []byte) (Txn, error)

// Rebuilder is an optional interface for factory-built transactions
// that can be rebuilt in place for new arguments, so a caller executing
// a stream of calls to one procedure (the network server, per pipeline
// slot) reuses one transaction instead of building a fresh one per call.
//
// Contract: t.Rebuild(args) may be called only on a transaction that the
// same procedure's factory built (or an earlier Rebuild produced) and
// that nothing references any more — every engine call that ran it has
// returned and its Result, if any, has been consumed. On success t must
// then have exactly the access sets and logic the factory would give a
// fresh transaction for args; Rebuild may retain args and reuse t's own
// buffers. On error t is unusable and the caller falls back to the
// factory, which reports the error for bad arguments.
type Rebuilder interface {
	Rebuild(args []byte) error
}

// Registry is a named collection of transaction factories. It is safe for
// concurrent use after registration; registrations typically happen once
// at startup, before the engine processes transactions.
type Registry struct {
	mu    sync.RWMutex
	procs map[string]Factory
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{procs: make(map[string]Factory)}
}

// Register associates id with factory f. It panics on an empty id or a
// duplicate registration: both are programming errors that would corrupt
// recovery, so they should fail loudly at startup.
func (r *Registry) Register(id string, f Factory) {
	if id == "" {
		panic("txn: Register with empty procedure id")
	}
	if f == nil {
		panic("txn: Register with nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.procs[id]; dup {
		panic(fmt.Sprintf("txn: duplicate registration of procedure %q", id))
	}
	r.procs[id] = f
}

// Lookup returns the factory registered under id, taking the registry
// lock once. The network server resolves each request with it, so it
// can tell "unknown procedure" from "bad arguments" and build the
// transaction itself — rebuilding a previous one in place when it can
// (see Rebuilder).
func (r *Registry) Lookup(id string) (Factory, bool) {
	r.mu.RLock()
	f, ok := r.procs[id]
	r.mu.RUnlock()
	return f, ok
}

// Build rebuilds the transaction registered under id from args. Recovery
// uses it to turn logged commands back into runnable transactions.
func (r *Registry) Build(id string, args []byte) (Txn, error) {
	f, ok := r.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("txn: unknown procedure %q", id)
	}
	t, err := f(args)
	if err != nil {
		return nil, fmt.Errorf("txn: building procedure %q: %w", id, err)
	}
	if t == nil {
		return nil, fmt.Errorf("txn: factory for %q returned nil transaction", id)
	}
	return t, nil
}

// Call builds the transaction registered under id and wraps it so it
// remembers its own (id, args) pair, making it Loggable. This is how
// applications submit transactions to an engine with durability enabled.
func (r *Registry) Call(id string, args []byte) (Txn, error) {
	t, err := r.Build(id, args)
	if err != nil {
		return nil, err
	}
	return &Call{Txn: t, id: id, args: args}, nil
}

// MustCall is Call, panicking on error; convenient when the id is a
// compile-time constant known to be registered.
func (r *Registry) MustCall(id string, args []byte) Txn {
	t, err := r.Call(id, args)
	if err != nil {
		panic(err)
	}
	return t
}

// Call is a registry-built transaction bundled with the (procedure id,
// args) pair that rebuilds it; it is what Registry.Call returns.
type Call struct {
	Txn
	id   string
	args []byte
}

var _ Loggable = (*Call)(nil)

// Procedure implements Loggable.
func (c *Call) Procedure() (string, []byte) { return c.id, c.args }
