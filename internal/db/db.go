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
	"xssd/internal/pool"
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
	// decBuf is replay's scratch: the ops of the record being applied,
	// decoded anew for each. One walk at a time replays into an engine.
	decBuf []writeOp

	// pins maps rows claimed by prepared-but-undecided distributed
	// transactions to their owner. A prepared participant must be able to
	// commit later no matter what runs in between, so its read and write
	// sets stay fenced until the coordinator's decision arrives. nil until
	// the first Prepare, so purely local workloads never pay for it.
	pins map[hkey]*Tx

	// cold is apply's scratch: the page ids a write set's puts would miss
	// on first, handed to the pager in one Prefetch call.
	cold []uint64

	// staged is set while a paged table holds rows LoadRow staged and
	// build has not inserted yet. stagedKeys holds the bytes of their
	// keys, which are views into it (as a transaction's keys are, see
	// txSets).
	staged     bool
	stagedKeys []byte

	// fetched counts the pages Tx.Fetch handed the pager: the ones Want
	// found cold.
	fetched int64

	// spare holds the read/write sets of finished transactions, cleared
	// but with their capacity, for BeginIn to hand out again (DESIGN §9): a
	// transaction's cost is then the rows it writes, not three containers
	// grown from empty.
	//xssd:pool put
	spare pool.Free[txSets]

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

	// staged holds the rows LoadRow gave a paged table since the last
	// build, in call order.
	staged []stagedRow
}

// stagedRow is one loaded row waiting for build; it owns val.
type stagedRow struct {
	key string
	val []byte
}

// rowMap is the memory-only store: a map from key to a row slot. It owns
// every key it holds, so a caller's key is only read. An update rewrites
// the row's slot and never assigns the map — assigning would make Go
// replace the stored key string with the caller's. A new row takes the
// next slot of a fixed-size chunk, and its key is copied into an
// append-only key arena, which the map key is a view of. Rows never leave
// a row map (a delete is a tombstone), so neither wastes more than the
// unused tail of a chunk. Slots stay at 32 bytes (a btree.Item is 40) and
// convert at Get and Scan: the map is most of a loaded engine's heap.
type rowMap struct {
	m     map[string]*row
	slots []row  // the current slot chunk's unused slots
	arena []byte // the current key chunk; keys are views of its bytes
}

// Chunk sizes of a row map: slots per slot chunk, and bytes per key chunk
// (a longer key gets a chunk of its own).
const (
	rowChunk = 256
	keyChunk = 4 << 10
)

type row struct {
	val []byte // nil: tombstone
	ver int64  // transaction id of the writer
}

func newRowMap() *rowMap { return &rowMap{m: map[string]*row{}} }

func (m *rowMap) Get(_ *sim.Proc, key string) (btree.Item, bool, error) {
	r := m.m[key]
	if r == nil {
		return btree.Item{}, false, nil
	}
	return btree.Item{Ver: r.ver, Val: r.val, Tomb: r.val == nil}, true, nil
}

func (m *rowMap) Put(_ *sim.Proc, key string, it btree.Item, _ int64) error {
	r := m.m[key]
	if r == nil {
		r = m.insert(key)
	}
	r.ver, r.val = it.Ver, nil
	if !it.Tomb {
		// A live row with no bytes must not read back as a tombstone.
		if r.val = it.Val; r.val == nil {
			r.val = []byte{}
		}
	}
	return nil
}

// insert adds a row for key, which the map does not hold yet, and returns
// its slot: the next one of the current chunk, keyed by a copy of key in
// the arena.
func (m *rowMap) insert(key string) *row {
	if len(m.slots) == 0 {
		m.slots = make([]row, rowChunk)
	}
	r := &m.slots[0]
	m.slots = m.slots[1:]
	if len(key) > cap(m.arena)-len(m.arena) {
		m.arena = make([]byte, 0, max(keyChunk, len(key)))
	}
	n := len(m.arena)
	m.arena = append(m.arena, key...)
	m.m[view(m.arena[n:])] = r
	return r
}

func (m *rowMap) Scan(_ *sim.Proc, fn func(key string, it btree.Item) bool) error {
	keys := make([]string, 0, len(m.m))
	for k := range m.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if r := m.m[k]; !fn(k, btree.Item{Ver: r.ver, Val: r.val, Tomb: r.val == nil}) {
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
	var rows store = newRowMap()
	if e.pager != nil {
		rows = btree.New(e.pager)
	}
	name = strings.Clone(name) // a replayed record names its table by a view
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
	t := e.tables[name]
	return Table{t: t, name: t.name}
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
	e.build(p)
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

// Fetched returns how many pages transactions' Fetch calls have handed
// the pager: the pages their Want calls found cold. A row map's is 0.
func (e *Engine) Fetched() int64 { return e.fetched }

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
// keys holds the bytes of every key in reads, writes and wIndex, which are
// views into it (ownKey): no method keeps a key of its caller's. A view
// outlives the buffer growing, since nothing writes an old backing array
// again, and the bytes are only reused after release, when unpin has
// already dropped every pin a Prepare keyed by them and the stores have
// copied every key they keep.
//
// want holds the page ids Want recorded since the last Fetch: ids, not
// keys, so it keeps nothing of its caller's either.
type txSets struct {
	reads  []readOp
	writes []writeOp
	wIndex map[hkey]int // read-your-writes index into writes
	keys   []byte
	want   []uint64
}

// readOp is one observed row version: 0 for an absent row, the writer's
// id for a live row or a tombstone.
type readOp struct {
	hkey
	ver int64
}

// writeOp is one buffered or replayed row write. On the live path key is
// a view into the transaction's keys; on the replay path tab.name and key
// are views into the payload being applied.
type writeOp struct {
	tab    Table // tab.t is nil on the replay path (decoded records)
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
	e.build(p)
	e.nextTx++
	*t = Tx{eng: e, id: e.nextTx, p: p, txSets: e.spare.Get()}
	if t.wIndex == nil { // no spare: a fresh set
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
	t.eng.spare.Put(txSets{t.reads[:0], t.writes[:0], t.wIndex, t.keys[:0], t.want[:0]})
	t.txSets = txSets{}
}

// ownKey copies key into the sets' key bytes and returns a view of the
// copy.
//
//xssd:hotpath
func (t *Tx) ownKey(key string) string {
	n := len(t.keys)
	t.keys = append(t.keys, key...)
	return view(t.keys[n:])
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
// for its next key — which is how internal/tpcc names every row. The write
// methods borrow their keys the same way.
//
// The returned bytes are the row as installed, not a copy, and they never
// change: both stores replace a row's value whole (a rowMap slot and a
// tree leaf cell swap the slice, and page decode gives every value
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

// Want names a row the transaction is about to read or write, so that
// Fetch can bring it in together with the others named before it (DESIGN
// §14): a transaction whose next reads do not depend on each other's rows
// waits for one batch of page reads instead of one miss per row. On a
// paged engine it records, at once, the first page on key's path that is
// not resident (btree.Tree.ColdPage); a resident path records nothing. It
// reads no row, records no version and keeps no key, so naming a row the
// transaction then does not touch costs a page read and nothing else. On a
// row map, or on a finished transaction, it does nothing.
//
//xssd:hotpath
func (t *Tx) Want(tab Table, key string) {
	if t.eng.pager == nil || t.done {
		return
	}
	if id, ok := tab.t.rows.(*btree.Tree).ColdPage(key); ok {
		t.want = append(t.want, id)
	}
}

// Fetch reads the pages Want recorded in one btree.Pager.Prefetch on the
// transaction's process and forgets them. An id that went stale while
// other processes ran (the page was split, freed or read in meanwhile) is
// harmless: Prefetch re-checks every page before and after its batch. On
// a row map it does nothing.
//
//xssd:hotpath
func (t *Tx) Fetch() {
	if len(t.want) == 0 {
		return
	}
	t.eng.fetched += int64(len(t.want))
	err := t.eng.pager.Prefetch(t.p, t.want)
	t.want = t.want[:0]
	if err != nil {
		t.eng.fault(t.p, err)
	}
}

// PutOwnedIn buffers a row write through a resolved handle and takes
// ownership of val: the store installs the slice as the row, so nobody may
// write through it afterwards — it is freshly built for this call (e.g. a
// row Encode result) or a value nothing ever modifies. The key is
// borrowed, as GetIn's is: the write set copies its bytes, the stores copy
// the keys they keep, and key may be a view of a buffer the caller
// rewrites once the call returns.
func (t *Tx) PutOwnedIn(tab Table, key string, val []byte) {
	t.addWrite(tab, key, val, false)
}

// DeleteIn buffers a row deletion through a resolved handle; it borrows
// the key, as PutOwnedIn does.
func (t *Tx) DeleteIn(tab Table, key string) {
	t.addWrite(tab, key, nil, true)
}

// addWrite buffers one write, replacing an earlier write to the same row,
// which keeps the key it already copied. A finished transaction drops it.
//
//xssd:hotpath
func (t *Tx) addWrite(tab Table, key string, val []byte, del bool) {
	if t.done {
		return
	}
	k := hkey{tab.t, key}
	if len(t.writes) > 0 {
		if i, ok := t.wIndex[k]; ok {
			w := &t.writes[i]
			w.val, w.delete = val, del
			return
		}
	}
	k.key = t.ownKey(key)
	t.wIndex[k] = len(t.writes)
	t.writes = append(t.writes, writeOp{tab: tab, key: k.key, val: val, delete: del})
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
// A nil p finding it held is API misuse: contention needs a process parked
// inside the section, on a page fetch, so a paged engine. The nil-process
// callers are a shard participant's Prepare and CommitPrepared (shards
// build row maps only), bulk load and synthetic checkpoints (alone on
// their engine), and tests; replay takes no lock.
func (e *Engine) lockCommits(p *sim.Proc) {
	if e.busy {
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
// the one apply behind live commits, CommitPrepared and replay. Deletes
// leave a versioned tombstone so OCC still detects conflicts against a
// read of the now-absent row. Decoded ops carry no
// resolved handle; they resolve against this engine, creating tables on
// first touch.
//
// On a paged engine the puts' cold pages are read first, in one batch
// (DESIGN §14): for each write, the first page on its key's path that is
// not resident, found through resident branches only. A table this apply
// creates has a fresh resident root and nothing to read, so the walk
// skips it rather than creating it out of the puts' order.
//
//xssd:hotpath
func (e *Engine) apply(p *sim.Proc, ws []writeOp, ver, lsn int64) error {
	if e.pager != nil && len(ws) > 1 {
		e.cold = e.cold[:0]
		for _, w := range ws {
			tab := w.tab.t
			if tab == nil {
				if tab = e.tables[w.tab.name]; tab == nil {
					continue
				}
			}
			if id, ok := tab.rows.(*btree.Tree).ColdPage(w.key); ok {
				e.cold = append(e.cold, id)
			}
		}
		if err := e.pager.Prefetch(p, e.cold); err != nil {
			return err
		}
	}
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
// A row map takes the row at once. A paged table stages it, and the first
// engine call after the load that reads or writes rows or cuts a
// checkpoint builds every staged table (build, DESIGN §14). LoadRow keeps
// neither key nor val: the stage and the store copy them. It panics on a
// row too large for a page, which is API misuse (the loaders' fixed
// schemas write none).
func (e *Engine) LoadRow(tableName, key string, val []byte) {
	tab := e.Table(tableName).t
	val = append([]byte(nil), val...)
	var err error
	if tr, ok := tab.rows.(*btree.Tree); !ok {
		err = tab.rows.Put(nil, key, btree.Item{Val: val}, 0)
	} else if err = tr.Fits(key, val); err == nil {
		n := len(e.stagedKeys)
		e.stagedKeys = append(e.stagedKeys, key...)
		tab.staged = append(tab.staged, stagedRow{view(e.stagedKeys[n:]), val})
		e.staged = true
	}
	if err != nil {
		panic(fmt.Sprintf("db: load row %q/%q: %v", tableName, key, err))
	}
}

// build inserts the rows LoadRow staged, on process p. It takes the
// tables in Tables() order, and each table's rows in key order, the last
// row loaded winning for a repeated key, so the pages it builds depend on
// the set of rows loaded and not on the order they came in. Inserting in
// key order makes every insert an ascending run, whose splits leave each
// leaf runFill eighths full (btree.Tree.splitLeaf): a table loaded in any
// other order splits full leaves at their midpoints and stays half empty.
// It runs under the commit lock, since a put may miss and yield when rows
// were staged after a checkpoint; a put can fail only that way, on a dead
// device, which ends the run as every store fault does.
func (e *Engine) build(p *sim.Proc) {
	if !e.staged {
		return
	}
	e.lockCommits(p)
	defer e.unlockCommits()
	for _, name := range e.Tables() {
		tab := e.tables[name]
		rows := tab.staged
		tab.staged = nil
		slices.SortStableFunc(rows, func(a, b stagedRow) int { return strings.Compare(a.key, b.key) })
		for i, r := range rows {
			if i+1 < len(rows) && rows[i+1].key == r.key {
				continue
			}
			if err := tab.rows.Put(p, r.key, btree.Item{Val: r.val}, 0); err != nil {
				e.fault(p, fmt.Errorf("db: build %q/%q: %w", name, r.key, err))
			}
		}
	}
	// Only now: a caller that waited on the lock meanwhile finds nothing
	// left. The trees copied every key they keep.
	e.staged, e.stagedKeys = false, nil
}

// Read is a convenience snapshot read outside any transaction.
func (e *Engine) Read(tableName, key string) ([]byte, bool) {
	return e.ReadIn(nil, tableName, key)
}

// ReadIn is Read running on a simulated process (paged engines may fetch
// the page from the device).
func (e *Engine) ReadIn(p *sim.Proc, tableName, key string) ([]byte, bool) {
	e.build(p)
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

// decodeWrites parses a redo payload, appending its ops to out. It
// accepts exactly what encodeWrites produces: a flags byte of 0 or 1, and
// nothing past the last op. An op's table name, key and value are all
// views into buf. The stores copy the names and keys they keep and install
// a value as is, capped at its own length so that nothing can append into
// the next op's bytes; that is safe because buf is a record's private
// payload (wal.Frame copies each one) and nothing writes through a row's
// value. So replay, which decodes into Engine.decBuf, allocates nothing
// per op.
func decodeWrites(out []writeOp, buf []byte) ([]writeOp, error) {
	if len(buf) < 2 {
		return nil, errors.New("db: short redo payload")
	}
	n := int(binary.LittleEndian.Uint16(buf[:2]))
	buf = buf[2:]
	for i := 0; i < n; i++ {
		if len(buf) < 2 {
			return nil, errors.New("db: truncated redo op")
		}
		flags, tl := buf[0], int(buf[1])
		if flags > 1 {
			return nil, fmt.Errorf("db: redo op flags %#x", flags)
		}
		buf = buf[2:]
		if len(buf) < tl+2 {
			return nil, errors.New("db: truncated table name")
		}
		tableName := view(buf[:tl])
		buf = buf[tl:]
		kl := int(binary.LittleEndian.Uint16(buf[:2]))
		buf = buf[2:]
		if len(buf) < kl+4 {
			return nil, errors.New("db: truncated key")
		}
		key := view(buf[:kl])
		buf = buf[kl:]
		vl := int(binary.LittleEndian.Uint32(buf[:4]))
		buf = buf[4:]
		if len(buf) < vl {
			return nil, errors.New("db: truncated value")
		}
		val := buf[:vl:vl]
		buf = buf[vl:]
		out = append(out, writeOp{tab: Table{name: tableName}, key: key, val: val, delete: flags == 1})
	}
	if len(buf) > 0 {
		return nil, fmt.Errorf("db: %d bytes past the last redo op", len(buf))
	}
	return out, nil
}

// view returns b's bytes as a string without copying them.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

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
