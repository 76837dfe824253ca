// Package db implements the database substrate the experiments drive (the
// paper uses ERMIA, a memory-optimized engine whose only persistent state
// is the transaction log). The engine runs transactions with optimistic
// concurrency control over tables behind a three-method row store — an
// in-memory row map, or a durable B+tree (paged.go) — and persists commits
// through a pluggable wal.Log, which is exactly the surface the X-SSD
// accelerates.
package db

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"xssd/internal/btree"
	"xssd/internal/obs"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// Errors returned by transactions.
var (
	ErrConflict = errors.New("db: transaction conflict, retry")
	ErrTxDone   = errors.New("db: transaction already finished")
)

// Engine is a multi-table store with redo logging.
type Engine struct {
	env    *sim.Env
	log    *wal.Log // nil: run without durability (recovery impossible)
	tables map[string]*table
	nextTx int64

	// pager is the buffer pool new tables grow their B+trees on; nil for
	// an engine whose tables are in-memory row maps (see paged.go).
	pager *btree.Pager

	// busy serializes the commit critical section (validate + append +
	// apply), Prepare, CommitPrepared and checkpoint snapshots against
	// each other. A store that fetches pages yields on device I/O inside
	// validation or apply; without the lock two committers could
	// interleave there and both validate successfully against state the
	// other is about to overwrite. A row map never yields, so there the
	// lock is never contended: a flag write and a Broadcast nobody hears.
	busy bool
	free *sim.Signal

	// lastLSN tracks the end LSN of the last record appended (live) or
	// replayed (recovery) — the append frontier for engines with no log.
	lastLSN int64

	// encBuf is the reusable redo-record scratch: the WAL copies the
	// payload into its own batch before Append returns, and nothing
	// yields between encoding and appending, so one buffer serves every
	// commit on the engine.
	encBuf []byte

	// pins maps rows claimed by prepared-but-undecided distributed
	// transactions to their owner. A prepared participant must be able to
	// commit later no matter what runs in between, so its read and write
	// sets stay fenced until the coordinator's decision arrives. nil until
	// the first Prepare, so purely local workloads never pay for it.
	pins map[hkey]*Tx

	// spare holds the read/write sets of finished transactions, cleared
	// but with their capacity, for BeginIn to hand out again (DESIGN §9): a
	// transaction's cost is then the rows it writes, not three containers
	// grown from empty.
	spare []txSets

	commits, aborts int64
}

// store is where one table's rows live. Every engine operation is written
// once against these three methods; *btree.Tree satisfies them as is, and
// rowMap is the in-memory implementation. p is the calling simulated
// process (a tree may fetch pages from the device on it; nil is legal
// when nothing can miss), and lsn is the end LSN of the redo record
// carrying a write (a tree stamps touched pages with it). Get reports
// tombstones as found — Item.Tomb tells them apart — and an absent row
// as the zero Item, so Item.Ver is the version OCC observes either way.
// Scan visits rows in key order until fn returns false.
type store interface {
	Get(p *sim.Proc, key string) (btree.Item, bool, error)
	Put(p *sim.Proc, key string, it btree.Item, lsn int64) error
	Scan(p *sim.Proc, fn func(key string, it btree.Item) bool) error
}

type table struct {
	name string
	rows store
}

// rowMap is the memory-only store. Cells stay at 32 bytes (a btree.Item
// is 40) and convert at Get and Scan: the map is most of a loaded
// engine's heap.
type rowMap map[string]row

type row struct {
	val []byte // nil: tombstone
	ver int64  // transaction id of the writer
}

func (m rowMap) Get(_ *sim.Proc, key string) (btree.Item, bool, error) {
	r, ok := m[key]
	return btree.Item{Ver: r.ver, Val: r.val, Tomb: ok && r.val == nil}, ok, nil
}

func (m rowMap) Put(_ *sim.Proc, key string, it btree.Item, _ int64) error {
	r := row{ver: it.Ver}
	if !it.Tomb {
		// A live row with no bytes must not read back as a tombstone.
		if r.val = it.Val; r.val == nil {
			r.val = []byte{}
		}
	}
	m[key] = r
	return nil
}

func (m rowMap) Scan(_ *sim.Proc, fn func(key string, it btree.Item) bool) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if r := m[k]; !fn(k, btree.Item{Ver: r.ver, Val: r.val, Tomb: r.val == nil}) {
			break
		}
	}
	return nil
}

// New creates an engine whose tables live in memory only. log may be nil
// for a volatile instance.
func New(env *sim.Env, log *wal.Log) *Engine {
	return &Engine{env: env, log: log, tables: map[string]*table{}, free: env.NewSignal()}
}

// CreateTable registers a table; creating an existing table is a no-op.
// This is the one place a store is chosen.
func (e *Engine) CreateTable(name string) {
	if _, ok := e.tables[name]; ok {
		return
	}
	var rows store = rowMap{}
	if e.pager != nil {
		rows = btree.New(e.pager)
	}
	e.tables[name] = &table{name: name, rows: rows}
}

// Table is a resolved table handle. Hot paths hold one and use the *In
// transaction methods so every row access skips the engine's name lookup
// and keys the transaction's read/write sets by pointer instead of by
// table-name string.
type Table struct {
	t    *table
	name string
}

// Table returns a handle for name, creating the table if needed.
func (e *Engine) Table(name string) Table {
	e.CreateTable(name)
	return Table{t: e.tables[name], name: name}
}

// Name returns the table's name: what a handle resolved on one engine
// carries to another.
func (t Table) Name() string { return t.name }

// LookupTable returns the handle of an existing table and never creates
// one: the resolver for reads that arrive by table name (an absent table
// holds no rows).
//
//xssd:hotpath
func (e *Engine) LookupTable(name string) (Table, bool) {
	t, ok := e.tables[name]
	return Table{t: t, name: name}, ok
}

// Tables returns the table names in sorted order, so callers that iterate
// them (recovery checks, fingerprints, dumps) stay deterministic.
func (e *Engine) Tables() []string {
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RowCountIn is RowCount running on a simulated process (paged engines
// may fetch pages from the device).
func (e *Engine) RowCountIn(p *sim.Proc, name string) int {
	t, ok := e.tables[name]
	if !ok {
		return 0
	}
	n := 0
	e.scanLive(p, t, func(string, []byte) { n++ })
	return n
}

// scanLive visits a table's live rows in key order: the one scan behind
// row counts and fingerprints.
func (e *Engine) scanLive(p *sim.Proc, t *table, fn func(key string, val []byte)) {
	err := t.rows.Scan(p, func(k string, it btree.Item) bool {
		if !it.Tomb {
			fn(k, it.Val)
		}
		return true
	})
	if err != nil {
		e.fault(p, fmt.Errorf("db: scan %q: %w", t.name, err))
	}
}

// Stats returns committed and aborted transaction counts.
func (e *Engine) Stats() (commits, aborts int64) { return e.commits, e.aborts }

// Tx is one transaction. All methods must be called from a single
// simulated process; only commits (and, on a paged engine, reads) block.
type Tx struct {
	eng  *Engine
	id   int64
	done bool

	// p is the owning simulated process — required on a paged engine,
	// where reads and commits may block on device I/O. May be nil on the
	// in-memory engine (nothing there ever yields).
	p *sim.Proc

	// The sets are on loan from the engine: BeginIn takes them off
	// Engine.spare and release puts them back when the transaction
	// finishes, after which it holds none and touches nothing.
	txSets
}

// txSets is what a transaction accumulates. reads is append-only — nothing
// looks a key up in it; validate, Prepare and pinned only walk it — so a
// row read twice appears twice and is validated against every version it
// was seen at.
//
// keys holds the bytes of every key in reads, which are views into it
// (ownKey): GetIn keeps no key of its caller's. A view outlives the
// buffer growing, since nothing writes an old backing array again, and the
// bytes are only reused after release, when unpin has already dropped
// every pin a Prepare keyed by them.
type txSets struct {
	reads  []readOp
	writes []writeOp
	wIndex map[hkey]int // read-your-writes index into writes
	keys   []byte
}

// readOp is one observed row version: 0 for an absent row, the writer's
// id for a live row or a tombstone.
type readOp struct {
	hkey
	ver int64
}

type writeOp struct {
	tab    Table // tab.t is nil on the recovery path (decoded records)
	key    string
	val    []byte
	delete bool
}

// hkey identifies a row by resolved table. Hashing a pointer plus the
// row key is measurably cheaper than hashing two strings per access.
type hkey struct {
	t   *table
	key string
}

// Begin starts a transaction with no process context. Valid on the
// in-memory engine; on a paged engine the transaction can only touch
// already-resident pages (tests, bulk load) — use BeginP from workloads.
func (e *Engine) Begin() *Tx { return e.BeginP(nil) }

// BeginP starts a transaction owned by process p. Paged reads and commits
// run on p when they need the device.
func (e *Engine) BeginP(p *sim.Proc) *Tx { return e.BeginIn(new(Tx), p) }

// BeginIn is BeginP into t, a Tx the caller owns that is new or finished,
// and returns t: a terminal running one transaction at a time begins each
// in the same Tx and allocates none for it. Only the caller may still
// hold t — a late call through another reference would reach the new
// transaction.
func (e *Engine) BeginIn(t *Tx, p *sim.Proc) *Tx {
	e.nextTx++
	*t = Tx{eng: e, id: e.nextTx, p: p}
	if n := len(e.spare); n > 0 {
		t.txSets, e.spare[n-1] = e.spare[n-1], txSets{}
		e.spare = e.spare[:n-1]
	} else {
		t.wIndex = map[hkey]int{}
	}
	return t
}

// release hands a finished transaction's sets back to the engine. From
// here on the Tx holds no set at all, and GetIn and addWrite check done
// before touching one: a late call can neither assign into a nil map nor
// reach a set another transaction now owns.
func (t *Tx) release() {
	clear(t.reads)
	clear(t.writes)
	clear(t.wIndex)
	t.eng.spare = append(t.eng.spare, txSets{t.reads[:0], t.writes[:0], t.wIndex, t.keys[:0]})
	t.txSets = txSets{}
}

// ownKey copies key into the read set's key bytes and returns a view of
// the copy.
//
//xssd:hotpath
func (t *Tx) ownKey(key string) string {
	n := len(t.keys)
	t.keys = append(t.keys, key...)
	return unsafe.String(unsafe.SliceData(t.keys[n:]), len(key))
}

// ID returns the transaction id.
func (t *Tx) ID() int64 { return t.id }

// GetIn reads a row through a resolved handle, observing the
// transaction's own writes first. The read runs on the transaction's
// process and records the observed version: 0 for an absent row, the
// writer's id for a live row or a tombstone. On a finished transaction it
// reads the store and records nothing.
//
// GetIn keeps no reference to key once it returns: the read set copies
// the bytes it validates. key may be a view of a buffer the caller reuses
// for its next key — which is how internal/tpcc names a row it only reads.
// A write key is different: PutOwnedIn and DeleteIn keep theirs.
//
// The returned bytes are the row as installed, not a copy, and they never
// change: both stores replace a row's value whole (rowMap assigns the
// cell, a tree leaf swaps the slice, and page decode gives every value
// its own slice), so callers may keep views into them — internal/tpcc
// decodes string fields as views — and must never write through them.
//
//xssd:hotpath
func (t *Tx) GetIn(tab Table, key string) ([]byte, bool) {
	k := hkey{tab.t, key}
	if len(t.writes) > 0 { // most reads come before the first write: skip the probe
		if i, ok := t.wIndex[k]; ok {
			w := t.writes[i]
			if w.delete {
				return nil, false
			}
			return w.val, true
		}
	}
	it, found, err := tab.t.rows.Get(t.p, key)
	if err != nil {
		//xssd:ignore hotpathalloc a store fault ends the run: the process parks or the engine panics
		t.eng.fault(t.p, fmt.Errorf("db: get %s/%q: %w", tab.name, key, err))
	}
	if !t.done {
		t.reads = append(t.reads, readOp{hkey{tab.t, t.ownKey(key)}, it.Ver})
	}
	if !found || it.Tomb {
		return nil, false
	}
	return it.Val, true
}

// PutOwnedIn buffers a row write through a resolved handle and takes
// ownership of val: the caller must not read or modify the slice
// afterwards, so the value must be freshly built for this call (e.g. a
// row Encode result). The key is kept too — the write index, the redo
// record and the store hold it — so it must be a string the caller never
// changes, never a view of a reused buffer.
func (t *Tx) PutOwnedIn(tab Table, key string, val []byte) {
	t.addWrite(writeOp{tab: tab, key: key, val: val})
}

// DeleteIn buffers a row deletion through a resolved handle; it keeps the
// key, as PutOwnedIn does.
func (t *Tx) DeleteIn(tab Table, key string) {
	t.addWrite(writeOp{tab: tab, key: key, delete: true})
}

// addWrite buffers one write, replacing an earlier write to the same row.
// A finished transaction drops it.
//
//xssd:hotpath
func (t *Tx) addWrite(w writeOp) {
	if t.done {
		return
	}
	k := hkey{w.tab.t, w.key}
	if len(t.writes) > 0 {
		if i, ok := t.wIndex[k]; ok {
			t.writes[i] = w
			return
		}
	}
	t.wIndex[k] = len(t.writes)
	t.writes = append(t.writes, w)
}

// Abort discards the transaction, releasing any pins a Prepare took.
func (t *Tx) Abort() {
	if !t.done {
		t.done = true
		t.unpin()
		t.release()
		t.eng.aborts++
	}
}

// lockCommits enters the engine-wide commit/checkpoint critical section.
func (e *Engine) lockCommits(p *sim.Proc) {
	if e.busy {
		// No process context is legal only when nothing can contend
		// (single-threaded tests, bulk load, recovery).
		if p == nil {
			panic("db: commit lock contended without a process context")
		}
		p.WaitFor(e.free, func() bool { return !e.busy })
	}
	e.busy = true
}

func (e *Engine) unlockCommits() {
	e.busy = false
	e.free.Broadcast()
}

// fault handles a row-store failure (only a paged store has any). After a
// power loss the device answers nothing — park the calling process
// forever, exactly like a thread blocked on a dead disk; the chaos
// harness ends the run by advancing past the window. Any other store
// error on a live device is a corruption bug: fail loudly.
func (e *Engine) fault(p *sim.Proc, err error) {
	if e.log != nil && e.log.Dead() && p != nil {
		p.WaitFor(e.free, func() bool { return false })
	}
	panic(fmt.Sprintf("db: row store fault: %v", err))
}

// validate re-reads every row the transaction observed and reports
// whether each still carries the version it saw — every version, when a
// row was read more than once: two reads that disagree cannot both match.
// The order of the re-reads is the one place the engine looks at what
// kind of store it has: with a pager a re-read may miss and yield, so
// which row is fetched first is part of the event schedule. The read set
// is sorted by (table, key, version) first — in place, its order means
// nothing to Prepare or pinned — which is the order every paged fold and
// baseline was recorded in, from when the set was a map and map order had
// to be kept out of the schedule. Without a pager nothing yields, the
// outcome does not depend on which stale read is found first, and read
// order costs no sort. An adjacent repeat of the same row at the same
// version is skipped, so a pager is asked for each row once, as the map
// walk asked it.
//
//xssd:hotpath
func (t *Tx) validate(p *sim.Proc) bool {
	if t.eng.pager != nil {
		slices.SortFunc(t.reads, compareReads)
	}
	for i, r := range t.reads {
		if i > 0 && r == t.reads[i-1] {
			continue
		}
		if t.current(p, r.hkey) != r.ver {
			return false
		}
	}
	return true
}

func compareReads(a, b readOp) int {
	if c := strings.Compare(a.t.name, b.t.name); c != 0 {
		return c
	}
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.ver, b.ver)
}

// current returns the version row k carries now (0 when absent).
//
//xssd:hotpath
func (t *Tx) current(p *sim.Proc, k hkey) int64 {
	it, _, err := k.t.rows.Get(p, k.key)
	if err != nil {
		//xssd:ignore hotpathalloc a store fault ends the run: the process parks or the engine panics
		t.eng.fault(p, fmt.Errorf("db: validate %s/%q: %w", k.t.name, k.key, err))
	}
	return it.Ver
}

// commit is the one commit critical section: under the engine lock,
// validate the read set, refuse to overwrite rows a prepared transaction
// pinned, append the redo record, and apply the write set with the
// record's end LSN stamped on every touched page. Append comes before
// apply because a tree needs that LSN; a row map cannot tell the
// difference (nothing yields in between, and Append only marks the
// flusher runnable). Returns the LSN to wait on, 0 for read-only commits.
func (t *Tx) commit(p *sim.Proc) (int64, error) {
	if t.done {
		return 0, ErrTxDone
	}
	e := t.eng
	e.lockCommits(p)
	defer e.unlockCommits()
	if !t.validate(p) || t.pinned(false) {
		t.Abort()
		return 0, ErrConflict
	}
	t.done = true
	var lsn int64
	if len(t.writes) > 0 {
		payload := e.encodeScratch(t.writes)
		if e.log != nil {
			e.lastLSN = e.log.Append(wal.Record{TxID: t.id, Payload: payload})
		} else {
			e.lastLSN += int64(wal.EncodedLen(len(payload)))
		}
		lsn = e.lastLSN
		if err := e.apply(p, t.writes, t.id, lsn); err != nil {
			e.fault(p, err)
		}
	}
	e.commits++ // after apply, which may yield: a commit counts once it is visible
	t.release()
	return lsn, nil
}

// apply installs a write set, stamping rows with ver and pages with lsn:
// the one apply behind live commits, CommitPrepared, ApplyWriteSet and
// record replay. Deletes leave a versioned tombstone so OCC still detects
// conflicts against a read of the now-absent row. Decoded ops carry no
// resolved handle; they resolve against this engine, creating tables on
// first touch.
//
//xssd:hotpath
func (e *Engine) apply(p *sim.Proc, ws []writeOp, ver, lsn int64) error {
	for _, w := range ws {
		tab := w.tab.t
		if tab == nil {
			tab = e.Table(w.tab.name).t
		}
		it := btree.Item{Ver: ver, Tomb: w.delete}
		if !w.delete {
			it.Val = w.val
		}
		if err := tab.rows.Put(p, w.key, it, lsn); err != nil {
			//xssd:ignore hotpathalloc a store fault ends the run: the process parks or the engine panics
			return fmt.Errorf("db: apply %s/%q: %w", w.tab.name, w.key, err)
		}
	}
	return nil
}

// Commit validates the read set, logs the redo record, applies the write
// set and blocks until the record is durable. Read-only transactions skip
// the log entirely.
func (t *Tx) Commit(p *sim.Proc) error {
	lsn, err := t.commit(p)
	if err == nil && lsn > 0 && t.eng.log != nil {
		t.eng.log.WaitDurable(p, lsn)
	}
	return err
}

// CommitAsync validates and applies like Commit but returns immediately
// with the LSN to wait on, enabling pipelined (asynchronous) commit: the
// worker continues with new transactions while durability catches up, and
// acknowledges the client only once the log passes the returned LSN.
// Read-only transactions return LSN 0. It runs on the transaction's own
// process (BeginP).
func (t *Tx) CommitAsync() (int64, error) { return t.commit(t.p) }

// --- two-phase commit support ----------------------------------------------

// Prepare validates the transaction's read set and pins its read and
// write sets: phase one of a distributed commit. After a nil return the
// transaction is guaranteed committable — no other transaction can commit
// a write to any row it touched until CommitPrepared or Abort releases
// the pins. A validation failure or a collision with another prepared
// transaction aborts and returns ErrConflict (vote no). A prepared
// transaction keeps its read and write sets — EncodedWrites and
// CommitPrepared read them — until CommitPrepared or Abort.
func (t *Tx) Prepare() error {
	if t.done {
		return ErrTxDone
	}
	e := t.eng
	e.lockCommits(t.p)
	defer e.unlockCommits()
	if !t.validate(t.p) || t.pinned(true) {
		t.Abort()
		return ErrConflict
	}
	if e.pins == nil {
		e.pins = map[hkey]*Tx{}
	}
	for _, r := range t.reads {
		e.pins[r.hkey] = t
	}
	for _, w := range t.writes {
		e.pins[hkey{w.tab.t, w.key}] = t
	}
	return nil
}

// pinned reports whether another prepared distributed transaction claims
// a row this one writes or — for a transaction about to pin its own read
// set — reads. Reading a pinned row stays legal for an ordinary commit
// (the reader serializes before the pin's owner), but writing one would
// invalidate validation the owner already voted yes on. (Map-order safe:
// any single foreign pin aborts, and the loops schedule nothing.)
func (t *Tx) pinned(reads bool) bool {
	pins := t.eng.pins
	if len(pins) == 0 {
		return false
	}
	for _, w := range t.writes {
		if o := pins[hkey{w.tab.t, w.key}]; o != nil && o != t {
			return true
		}
	}
	if reads {
		for _, r := range t.reads {
			if o := pins[r.hkey]; o != nil && o != t {
				return true
			}
		}
	}
	return false
}

// unpin releases every pin owned by t. (Deleting while ranging is defined
// in Go, and no outcome depends on the visit order.)
func (t *Tx) unpin() {
	for k, o := range t.eng.pins {
		if o == t {
			delete(t.eng.pins, k)
		}
	}
}

// CommitPrepared applies a prepared transaction's writes — stamped with
// ver, the distributed transaction's global id — and releases its pins.
// No validation happens here: after Prepare the transaction cannot lose,
// and the caller has already made the commit decision durable. The apply
// takes the commit lock on the transaction's process and stamps pages
// with the engine's append frontier, which the decision record is below.
func (t *Tx) CommitPrepared(ver int64) {
	if t.done {
		return
	}
	e := t.eng
	e.lockCommits(t.p)
	defer e.unlockCommits()
	t.done = true
	t.unpin()
	if err := e.apply(t.p, t.writes, ver, e.frontier()); err != nil {
		e.fault(t.p, err)
	}
	e.commits++
	t.release()
}

// EncodedWrites serializes the transaction's write set in the redo-record
// payload format, into a fresh buffer the caller owns (it travels inside
// 2PC control records and across shard RPC, outliving the engine's
// scratch).
func (t *Tx) EncodedWrites() []byte { return encodeWrites(t.writes) }

// ApplyWriteSet replays an encoded write set — the body of a 2PC control
// record — stamping every row with ver and counting one committed
// transaction. The recovery twin of CommitPrepared.
func (e *Engine) ApplyWriteSet(payload []byte, ver int64) error {
	ws, err := decodeWrites(payload)
	if err == nil {
		err = e.apply(nil, ws, ver, e.frontier())
	}
	if err != nil {
		return fmt.Errorf("db: apply write set ver %d: %w", ver, err)
	}
	e.commits++
	return nil
}

// frontier returns the WAL append frontier: the log's when there is one
// (control and checkpoint records are appended around the engine), else
// the end of the last record committed or replayed.
func (e *Engine) frontier() int64 {
	if e.log != nil {
		return e.log.AppendedLSN()
	}
	return e.lastLSN
}

// Log returns the engine's WAL (nil when volatile).
func (e *Engine) Log() *wal.Log { return e.log }

// Env returns the engine's simulation environment.
func (e *Engine) Env() *sim.Env { return e.env }

// LoadRow installs a row directly, bypassing transactions and the log.
// It exists for bulk loading (e.g. populating TPC-C tables); rows loaded
// this way carry version 0, exactly like rows recovered from a snapshot.
// On a paged engine the load happens before any checkpoint, so every
// touched page is fresh and resident — no device I/O, no process needed.
func (e *Engine) LoadRow(tableName, key string, val []byte) {
	it := btree.Item{Val: append([]byte(nil), val...)}
	if err := e.Table(tableName).t.rows.Put(nil, key, it, 0); err != nil {
		panic(fmt.Sprintf("db: load row %q/%q: %v", tableName, key, err))
	}
}

// Read is a convenience snapshot read outside any transaction.
func (e *Engine) Read(tableName, key string) ([]byte, bool) {
	return e.ReadIn(nil, tableName, key)
}

// ReadIn is Read running on a simulated process (paged engines may fetch
// the page from the device).
func (e *Engine) ReadIn(p *sim.Proc, tableName, key string) ([]byte, bool) {
	tab, ok := e.tables[tableName]
	if !ok {
		return nil, false
	}
	it, found, err := tab.rows.Get(p, key)
	if err != nil {
		e.fault(p, fmt.Errorf("db: read %q/%q: %w", tableName, key, err))
	}
	if !found || it.Tomb {
		return nil, false
	}
	return it.Val, true
}

// --- redo payload encoding -------------------------------------------------

// encodeWrites serializes a write set:
// [nOps u16] then per op: [flags u8][tableLen u8][table][keyLen u16][key]
// [valLen u32][val].
func encodeWrites(ws []writeOp) []byte { return appendWrites(nil, ws) }

// encodeScratch serializes into the engine's reusable buffer. Valid until
// the next commit on the engine; the WAL copies the payload before
// Append returns.
func (e *Engine) encodeScratch(ws []writeOp) []byte {
	e.encBuf = appendWrites(e.encBuf[:0], ws)
	return e.encBuf
}

func appendWrites(buf []byte, ws []writeOp) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ws)))
	for _, w := range ws {
		flags := byte(0)
		if w.delete {
			flags = 1
		}
		buf = append(buf, flags, byte(len(w.tab.name)))
		buf = append(buf, w.tab.name...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.key)))
		buf = append(buf, w.key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.val)))
		buf = append(buf, w.val...)
	}
	return buf
}

// decodeWrites parses a redo payload.
func decodeWrites(buf []byte) ([]writeOp, error) {
	if len(buf) < 2 {
		return nil, errors.New("db: short redo payload")
	}
	n := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	out := make([]writeOp, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < 2 {
			return nil, errors.New("db: truncated redo op")
		}
		flags, tl := buf[0], int(buf[1])
		buf = buf[2:]
		if len(buf) < tl+2 {
			return nil, errors.New("db: truncated table name")
		}
		tableName := string(buf[:tl])
		buf = buf[tl:]
		kl := int(binary.LittleEndian.Uint16(buf[:2]))
		buf = buf[2:]
		if len(buf) < kl+4 {
			return nil, errors.New("db: truncated key")
		}
		key := string(buf[:kl])
		buf = buf[kl:]
		vl := int(binary.LittleEndian.Uint32(buf[:4]))
		buf = buf[4:]
		if len(buf) < vl {
			return nil, errors.New("db: truncated value")
		}
		val := append([]byte(nil), buf[:vl]...)
		buf = buf[vl:]
		out = append(out, writeOp{tab: Table{name: tableName}, key: key, val: val, delete: flags&1 != 0})
	}
	return out, nil
}

// The op counts reserved for control records riding the WAL. A redo
// payload starts with its op count (u16), and no transaction carries this
// many ops, so the first two payload bytes tell a redo record from a
// control record, and which control record it is. A control payload has
// at least one byte after its count (a version or a kind). Replay skips
// control records: they describe protocol state, and only their owners
// decode them.
const (
	// CheckpointOps marks a checkpoint record (internal/ckpt).
	CheckpointOps = 0xFFFE
	// TwoPCOps marks a 2PC control record (internal/shard).
	TwoPCOps = 0xFFFF
)

// ControlOps returns the reserved op count a control payload starts with,
// CheckpointOps or TwoPCOps, and 0 for a redo payload.
func ControlOps(payload []byte) uint16 {
	if len(payload) < 3 {
		return 0
	}
	if ops := binary.LittleEndian.Uint16(payload); ops >= CheckpointOps {
		return ops
	}
	return 0
}

// IsControlPayload reports whether a WAL record payload is a control
// record rather than a redo write set.
func IsControlPayload(payload []byte) bool { return ControlOps(payload) != 0 }

// ApplyRecord replays one redo record (recovery and secondary apply);
// control records are skipped. The no-process form of ApplyRecordIn.
func (e *Engine) ApplyRecord(r wal.Record) error { return e.ApplyRecordIn(nil, r) }

// ApplyRecordIn replays one redo record on process p (a paged engine may
// fetch pages during tail replay). Control records advance the frontier
// without touching rows, so a shard's cross-shard writes, which ride 2PC
// control records, replay only through shard.Replay. Rows are stamped
// with the record's TxID and pages with its end LSN — bit-identical to
// what the live engine produced, because the live commit used exactly the
// same stamps.
func (e *Engine) ApplyRecordIn(p *sim.Proc, r wal.Record) error {
	end := r.LSN + int64(wal.EncodedLen(len(r.Payload)))
	if end > e.lastLSN {
		e.lastLSN = end
	}
	if IsControlPayload(r.Payload) {
		return nil
	}
	ws, err := decodeWrites(r.Payload)
	if err == nil {
		err = e.apply(p, ws, r.TxID, end)
	}
	if err != nil {
		return fmt.Errorf("db: apply tx %d: %w", r.TxID, err)
	}
	e.commits++
	return nil
}

// Recover replays a decoded log stream in order (crash restart). The
// no-process form of RecoverIn.
func (e *Engine) Recover(records []wal.Record) error { return e.RecoverIn(nil, records) }

// RecoverIn replays a decoded log stream on process p (control records
// skip themselves).
func (e *Engine) RecoverIn(p *sim.Proc, records []wal.Record) error {
	for _, r := range records {
		if err := e.ApplyRecordIn(p, r); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint folds every table's contents into a deterministic hash, for
// equivalence checks between a recovered or replicated engine and its
// source. (FNV-1a over sorted rows.) The no-process form of
// FingerprintIn — fine when pages are memory-backed or resident; use
// FingerprintIn from a process otherwise.
func (e *Engine) Fingerprint() uint64 { return e.FingerprintIn(nil) }

// FingerprintIn is Fingerprint running on a simulated process (paged
// engines walk every table's tree, which may fetch pages). The hash is
// identical across stores: a paged engine holding the same rows as an
// in-memory one fingerprints to the same value.
func (e *Engine) FingerprintIn(p *sim.Proc) uint64 {
	h := obs.FNVOffset
	for _, n := range e.Tables() {
		h = obs.MixBytes(h, n)
		e.scanLive(p, e.tables[n], func(k string, v []byte) {
			h = obs.MixBytes(obs.MixBytes(h, k), v)
		})
	}
	return h
}
