package workload

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bohm/internal/engine"
	"bohm/internal/txn"
)

// recordingCtx implements txn.Ctx over a plain map and records every key
// the body touches, so tests can verify declared access sets cover actual
// accesses.
type recordingCtx struct {
	data   map[txn.Key][]byte
	reads  map[txn.Key]bool
	writes map[txn.Key]bool
	scans  []txn.KeyRange
}

func newRecordingCtx() *recordingCtx {
	return &recordingCtx{
		data:   map[txn.Key][]byte{},
		reads:  map[txn.Key]bool{},
		writes: map[txn.Key]bool{},
	}
}

func (c *recordingCtx) Read(k txn.Key) ([]byte, error) {
	c.reads[k] = true
	v, ok := c.data[k]
	if !ok {
		return nil, txn.ErrNotFound
	}
	return v, nil
}

func (c *recordingCtx) Write(k txn.Key, v []byte) error {
	c.writes[k] = true
	c.data[k] = v
	return nil
}

func (c *recordingCtx) Delete(k txn.Key) error {
	c.writes[k] = true
	delete(c.data, k)
	return nil
}

func (c *recordingCtx) ReadRange(r txn.KeyRange, fn func(k txn.Key, v []byte) error) error {
	c.scans = append(c.scans, r)
	var ks []txn.Key
	for k := range c.data {
		if r.Contains(k) {
			ks = append(ks, k)
		}
	}
	txn.SortKeys(ks)
	for _, k := range ks {
		if err := fn(k, c.data[k]); err != nil {
			return err
		}
	}
	return nil
}

// checkAccessSets runs t against a recording context pre-populated so all
// reads succeed, then verifies accessed ⊆ declared for both sets.
func checkAccessSets(t *testing.T, tx txn.Txn) {
	t.Helper()
	c := newRecordingCtx()
	for _, k := range tx.ReadSet() {
		c.data[k] = txn.NewValue(8, 100)
	}
	for _, k := range tx.WriteSet() {
		if _, ok := c.data[k]; !ok {
			c.data[k] = txn.NewValue(8, 100)
		}
	}
	if err := tx.Run(c); err != nil {
		t.Fatalf("%T run: %v", tx, err)
	}
	declaredR := map[txn.Key]bool{}
	for _, k := range tx.ReadSet() {
		declaredR[k] = true
	}
	declaredW := map[txn.Key]bool{}
	for _, k := range tx.WriteSet() {
		declaredW[k] = true
	}
	for k := range c.reads {
		if !declaredR[k] {
			t.Errorf("%T read undeclared key %+v", tx, k)
		}
	}
	for k := range c.writes {
		if !declaredW[k] {
			t.Errorf("%T wrote undeclared key %+v", tx, k)
		}
	}
}

func TestYCSBShapes(t *testing.T) {
	y := YCSB{Records: 1000, RecordSize: 100}
	src := y.NewSource(1, 0.9)

	rmw := src.RMW10()
	if len(rmw.ReadSet()) != 10 || len(rmw.WriteSet()) != 10 {
		t.Errorf("RMW10 sets: %d reads, %d writes", len(rmw.ReadSet()), len(rmw.WriteSet()))
	}
	checkAccessSets(t, rmw)

	mixed := src.RMW2Read8()
	if len(mixed.ReadSet()) != 10 || len(mixed.WriteSet()) != 2 {
		t.Errorf("2RMW-8R sets: %d reads, %d writes", len(mixed.ReadSet()), len(mixed.WriteSet()))
	}
	checkAccessSets(t, mixed)

	ro := src.ReadOnly(500)
	if len(ro.ReadSet()) != 500 || len(ro.WriteSet()) != 0 {
		t.Errorf("ReadOnly sets: %d reads, %d writes", len(ro.ReadSet()), len(ro.WriteSet()))
	}
	checkAccessSets(t, ro)
}

func TestYCSBKeysDistinctWithinTxn(t *testing.T) {
	y := YCSB{Records: 20, RecordSize: 8} // tiny domain stresses resampling
	src := y.NewSource(3, 0.99)
	for trial := 0; trial < 100; trial++ {
		tx := src.RMW10()
		seen := map[txn.Key]bool{}
		for _, k := range tx.WriteSet() {
			if seen[k] {
				t.Fatalf("duplicate key %+v in write set", k)
			}
			seen[k] = true
		}
	}
}

func TestRMWTxnIncrements(t *testing.T) {
	c := newRecordingCtx()
	k := txn.Key{Table: YCSBTable, ID: 5}
	c.data[k] = txn.NewValue(100, 41)
	tx := &RMWTxn{Keys: []txn.Key{k}, Size: 100}
	if err := tx.Run(c); err != nil {
		t.Fatal(err)
	}
	if got := txn.U64(c.data[k]); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if len(c.data[k]) != 100 {
		t.Fatalf("record size = %d, want 100 (full-record write)", len(c.data[k]))
	}
}

func TestMixedTxnSums(t *testing.T) {
	c := newRecordingCtx()
	var rmwKeys, readKeys []txn.Key
	for i := uint64(0); i < 2; i++ {
		k := txn.Key{Table: YCSBTable, ID: i}
		rmwKeys = append(rmwKeys, k)
		c.data[k] = txn.NewValue(16, i+1)
	}
	for i := uint64(10); i < 18; i++ {
		k := txn.Key{Table: YCSBTable, ID: i}
		readKeys = append(readKeys, k)
		c.data[k] = txn.NewValue(16, i)
	}
	tx := &MixedTxn{RMWKeys: rmwKeys, ReadKeys: readKeys, Size: 16}
	if err := tx.Run(c); err != nil {
		t.Fatal(err)
	}
	if tx.Sum != 10+11+12+13+14+15+16+17 {
		t.Fatalf("Sum = %d", tx.Sum)
	}
	for i := uint64(0); i < 2; i++ {
		if got := txn.U64(c.data[rmwKeys[i]]); got != i+2 {
			t.Errorf("rmw key %d = %d, want %d", i, got, i+2)
		}
	}
}

func TestScanTxnPropagatesMissing(t *testing.T) {
	c := newRecordingCtx()
	tx := &ScanTxn{Keys: []txn.Key{{Table: YCSBTable, ID: 404}}}
	if err := tx.Run(c); !errors.Is(err, txn.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSmallBankAccessSets(t *testing.T) {
	sb := SmallBank{Customers: 10}
	txns := []txn.Txn{
		&BalanceTxn{SB: sb, Customer: 1},
		&DepositTxn{SB: sb, Customer: 2, Amount: 10},
		&TransactSavingsTxn{SB: sb, Customer: 3, Amount: 10},
		&AmalgamateTxn{SB: sb, From: 4, To: 5},
		&WriteCheckTxn{SB: sb, Customer: 6, Amount: 10},
	}
	for _, tx := range txns {
		t.Run(fmt.Sprintf("%T", tx), func(t *testing.T) {
			checkAccessSets(t, tx)
		})
	}
}

func TestSmallBankProcedureSemantics(t *testing.T) {
	sb := SmallBank{Customers: 10}
	c := newRecordingCtx()
	// Manually seed two customers.
	for _, id := range []uint64{1, 2} {
		c.data[custKey(id)] = txn.NewValue(8, id)
		c.data[savKey(id)] = txn.NewValue(8, 100)
		c.data[checkKey(id)] = txn.NewValue(8, 50)
	}

	bal := &BalanceTxn{SB: sb, Customer: 1}
	if err := bal.Run(c); err != nil {
		t.Fatal(err)
	}
	if bal.Total != 150 {
		t.Fatalf("Balance = %d, want 150", bal.Total)
	}

	if err := (&DepositTxn{SB: sb, Customer: 1, Amount: 25}).Run(c); err != nil {
		t.Fatal(err)
	}
	if got := txn.U64(c.data[checkKey(1)]); got != 75 {
		t.Fatalf("checking after deposit = %d, want 75", got)
	}

	if err := (&TransactSavingsTxn{SB: sb, Customer: 1, Amount: -30}).Run(c); err != nil {
		t.Fatal(err)
	}
	if got := txn.U64(c.data[savKey(1)]); got != 70 {
		t.Fatalf("savings after withdrawal = %d, want 70", got)
	}

	// Overdraft aborts.
	err := (&TransactSavingsTxn{SB: sb, Customer: 1, Amount: -1000}).Run(c)
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("overdraft = %v, want ErrInsufficientFunds", err)
	}

	// Amalgamate drains customer 1 into customer 2's checking.
	if err := (&AmalgamateTxn{SB: sb, From: 1, To: 2}).Run(c); err != nil {
		t.Fatal(err)
	}
	if txn.U64(c.data[savKey(1)]) != 0 || txn.U64(c.data[checkKey(1)]) != 0 {
		t.Fatal("amalgamate left funds behind")
	}
	if got := txn.U64(c.data[checkKey(2)]); got != 50+70+75 {
		t.Fatalf("destination checking = %d, want %d", got, 50+70+75)
	}

	// WriteCheck with sufficient funds: plain deduction.
	if err := (&WriteCheckTxn{SB: sb, Customer: 2, Amount: 45}).Run(c); err != nil {
		t.Fatal(err)
	}
	if got := txn.U64(c.data[checkKey(2)]); got != 50+70+75-45 {
		t.Fatalf("checking after WriteCheck = %d", got)
	}

	// WriteCheck over the total balance: $1 penalty.
	c.data[savKey(2)] = txn.NewValue(8, 0)
	c.data[checkKey(2)] = txn.NewValue(8, 10)
	if err := (&WriteCheckTxn{SB: sb, Customer: 2, Amount: 20}).Run(c); err != nil {
		t.Fatal(err)
	}
	if got := int64(txn.U64(c.data[checkKey(2)])); got != 10-21 {
		t.Fatalf("overdraft checking = %d, want %d", got, 10-21)
	}
}

func TestSmallBankMixShape(t *testing.T) {
	sb := SmallBank{Customers: 100}
	src := sb.NewSource(1)
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[fmt.Sprintf("%T", src.Next())]++
	}
	if len(counts) != 5 {
		t.Fatalf("mix has %d transaction types, want 5: %v", len(counts), counts)
	}
	for typ, c := range counts {
		// Uniform mix: 20% each, allow wide slack.
		if c < n/10 || c > 3*n/10 {
			t.Errorf("%s: %d of %d draws", typ, c, n)
		}
	}
}

func TestSmallBankDegenerateCustomers(t *testing.T) {
	sb := SmallBank{Customers: 1}
	src := sb.NewSource(2)
	for i := 0; i < 200; i++ {
		tx := src.Next()
		if am, ok := tx.(*AmalgamateTxn); ok {
			t.Fatalf("amalgamate generated with one customer: %+v", am)
		}
	}
}

func TestSmallBankLoadInto(t *testing.T) {
	sb := SmallBank{Customers: 5}
	fake := &fakeEngine{data: map[txn.Key][]byte{}}
	if err := sb.LoadInto(fake); err != nil {
		t.Fatal(err)
	}
	if len(fake.data) != 15 {
		t.Fatalf("loaded %d rows, want 15", len(fake.data))
	}
	if txn.U64(fake.data[savKey(3)]) != InitialBalance {
		t.Fatal("savings not initialized")
	}
}

func TestYCSBLoadInto(t *testing.T) {
	y := YCSB{Records: 7, RecordSize: 64}
	fake := &fakeEngine{data: map[txn.Key][]byte{}}
	if err := y.LoadInto(fake); err != nil {
		t.Fatal(err)
	}
	if len(fake.data) != 7 {
		t.Fatalf("loaded %d rows, want 7", len(fake.data))
	}
	if len(fake.data[txn.Key{Table: YCSBTable, ID: 0}]) != 64 {
		t.Fatal("record size wrong")
	}
}

// fakeEngine implements just enough of engine.Engine for load tests.
type fakeEngine struct{ data map[txn.Key][]byte }

func (f *fakeEngine) Load(k txn.Key, v []byte) error {
	f.data[k] = append([]byte(nil), v...)
	return nil
}
func (f *fakeEngine) ExecuteBatch(ts []txn.Txn) []error { return make([]error, len(ts)) }
func (f *fakeEngine) Stats() engine.Stats               { return engine.Stats{} }
func (f *fakeEngine) Close()                            {}

var _ engine.Engine = (*fakeEngine)(nil)

// TestChurnRotateAvoidsDeadResidues pins the rotation stride's coverage:
// whatever the stream seed, Rotate must only cycle ids whose residue
// class survives the bench's kill phase — a stride sharing a factor with
// 100 could strand a stream on dead residues and resurrect killed keys.
func TestChurnRotateAvoidsDeadResidues(t *testing.T) {
	c := Churn{Records: 10_000, RecordSize: 8}
	for stream := int64(0); stream < 64; stream++ {
		src := c.NewSource(31+stream*7919, 0)
		for _, deadPct := range []int{50, 75, 90, 99} {
			for i := 0; i < 400; i++ {
				var id uint64
				switch x := src.Rotate(deadPct).(type) {
				case *DeleteTxn:
					id = x.K.ID
				case *InsertTxn:
					id = x.K.ID
				default:
					t.Fatalf("Rotate returned %T", x)
				}
				if int(id%100) < deadPct {
					t.Fatalf("stream %d deadPct %d: Rotate touched dead id %d", stream, deadPct, id)
				}
			}
		}
	}
}

// TestKVAccessSetsDoNotAllocate pins the key/value procedures' access
// sets to slices backed by the transaction itself: the client reads them
// for every submission.
func TestKVAccessSetsDoNotAllocate(t *testing.T) {
	a, b := txn.Key{Table: 1, ID: 1}, txn.Key{Table: 1, ID: 2}
	get := &KVGetTxn{K: a}
	put := &KVPutTxn{K: b, V: []byte{1}}
	xfer := &KVTransferTxn{Keys: [2]txn.Key{a, b}, Amount: 1}
	ts := []txn.Txn{get, put, xfer}
	allocs := testing.AllocsPerRun(100, func() {
		for _, tx := range ts {
			_, _ = tx.ReadSet(), tx.WriteSet()
		}
	})
	if allocs != 0 {
		t.Errorf("access sets allocated %.1f times per round", allocs)
	}
	if rs := get.ReadSet(); len(rs) != 1 || rs[0] != a {
		t.Errorf("kv.get read set = %v", rs)
	}
	if ws := put.WriteSet(); len(ws) != 1 || ws[0] != b {
		t.Errorf("kv.put write set = %v", ws)
	}
	if rs, ws := xfer.ReadSet(), xfer.WriteSet(); len(rs) != 2 || rs[0] != a || rs[1] != b || len(ws) != 2 || ws[0] != a || ws[1] != b {
		t.Errorf("kv.transfer sets = %v, %v", rs, ws)
	}
}

// TestRebuildMatchesFactory holds every txn.Rebuilder procedure to the
// interface's contract: a transaction built (and run) for one set of
// args, then rebuilt for another, has the access sets, effects and
// result of a fresh factory build for the second; bad args fail both.
func TestRebuildMatchesFactory(t *testing.T) {
	reg := txn.NewRegistry()
	RegisterYCSB(reg, 16)
	RegisterKV(reg)
	k := func(id uint64) txn.Key { return txn.Key{Table: 1, ID: id} }
	cases := []struct {
		proc        string
		first, next []byte
	}{
		{ProcRMW, EncodeKeys([]txn.Key{k(1), k(2), k(3)}), EncodeKeys([]txn.Key{k(4), k(5)})},
		{ProcRMW, EncodeKeys([]txn.Key{k(4)}), EncodeKeys([]txn.Key{k(1), k(2), k(3)})},
		{ProcPut, EncodeKeys([]txn.Key{k(1), k(2)}), EncodeKeys([]txn.Key{k(3)})},
		{ProcKVPut, KVPutArgs(k(1), []byte("first")), KVPutArgs(k(2), []byte("second value"))},
		{ProcKVGet, KVGetArgs(k(1)), KVGetArgs(k(2))},
		{ProcKVTransfer, KVTransferArgs(k(1), k(2), 5), KVTransferArgs(k(3), k(1), 7)},
	}
	run := func(tx txn.Txn) *recordingCtx {
		c := newRecordingCtx()
		for id := uint64(1); id <= 5; id++ {
			c.data[k(id)] = txn.NewValue(16, 100+id)
		}
		if err := tx.Run(c); err != nil {
			t.Fatalf("%T run: %v", tx, err)
		}
		return c
	}
	for _, tc := range cases {
		f, ok := reg.Lookup(tc.proc)
		if !ok {
			t.Fatalf("%s not registered", tc.proc)
		}
		old, err := f(tc.first)
		if err != nil {
			t.Fatal(err)
		}
		run(old)
		rb, ok := old.(txn.Rebuilder)
		if !ok {
			t.Fatalf("%s: %T is not a txn.Rebuilder", tc.proc, old)
		}
		if err := rb.Rebuild(tc.next); err != nil {
			t.Fatalf("%s rebuild: %v", tc.proc, err)
		}
		fresh, err := f(tc.next)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(old.ReadSet(), old.WriteSet(), old.RangeSet()) != fmt.Sprint(fresh.ReadSet(), fresh.WriteSet(), fresh.RangeSet()) {
			t.Errorf("%s: rebuilt sets %v %v, factory %v %v", tc.proc, old.ReadSet(), old.WriteSet(), fresh.ReadSet(), fresh.WriteSet())
		}
		got, want := run(old), run(fresh)
		if fmt.Sprint(got.data) != fmt.Sprint(want.data) {
			t.Errorf("%s: rebuilt run left %v, factory run %v", tc.proc, got.data, want.data)
		}
		if r, ok := old.(txn.Resulter); ok && !bytes.Equal(r.Result(), fresh.(txn.Resulter).Result()) {
			t.Errorf("%s: rebuilt result %x, factory %x", tc.proc, r.Result(), fresh.(txn.Resulter).Result())
		}
		bad := tc.next[:5]
		if _, err := f(bad); err == nil || rb.Rebuild(bad) == nil {
			t.Errorf("%s: %d-byte args accepted", tc.proc, len(bad))
		}
	}
}
