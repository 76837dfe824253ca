package btree

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"xssd/internal/sim"
)

// Item is one stored row: the writer's version, the value bytes, and the
// tombstone flag (a deleted row keeps its version so optimistic
// validation still detects conflicts against reads of the absent row).
type Item struct {
	Ver  int64
	Val  []byte
	Tomb bool
}

// Tree is one B+tree keyed by string, rooted at a pager page. All
// methods run on the calling simulated process; only pager misses and
// checkpoint writes spend virtual time. Values returned by Get and Scan
// alias the cached page — callers must treat them as read-only. The tree
// never writes them either: an update replaces a cell's value slice, and
// a value decoded from a page is capped at its own length, so it keeps
// its bytes after the page is updated or evicted.
type Tree struct {
	pg   *Pager
	root uint64
}

// New allocates an empty tree (a fresh root leaf) on pg.
func New(pg *Pager) *Tree {
	f := pg.alloc(kindLeaf)
	pg.unpin(f)
	return &Tree{pg: pg, root: f.id}
}

// Open attaches to an existing tree by root page id (recovery).
func Open(pg *Pager, root uint64) *Tree { return &Tree{pg: pg, root: root} }

// Root returns the current root page id (checkpoints record it).
func (t *Tree) Root() uint64 { return t.root }

// route returns the child index separators send key to: the number of
// separators <= key (a separator is the smallest key of its right
// subtree, so equality routes right).
func route(keys []string, key string) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] > key })
}

// Get looks key up. found is true for tombstones too — the caller
// distinguishes via Item.Tomb.
func (t *Tree) Get(p *sim.Proc, key string) (Item, bool, error) {
	id := t.root
	for {
		f, err := t.pg.fetch(p, id)
		if err != nil {
			return Item{}, false, err
		}
		n := f.n
		if n.kind == kindBranch {
			id = n.children[route(n.keys, key)]
			t.pg.unpin(f)
			continue
		}
		i, ok := n.search(key)
		t.pg.unpin(f)
		if !ok {
			return Item{}, false, nil
		}
		c := &n.cells[i]
		return Item{Ver: c.ver, Val: c.val, Tomb: c.tomb}, true, nil
	}
}

// ColdPage walks key's root-to-leaf path through resident frames only and
// returns the first page on it that is not resident: the page a Put or Get
// of key would ask the pager for first and miss. ok is false when the
// whole path is resident. The walk pins, touches and counts nothing.
func (t *Tree) ColdPage(key string) (id uint64, ok bool) {
	id = t.root
	for {
		f := t.pg.frames[id]
		if f == nil {
			return id, true
		}
		if f.n.kind == kindLeaf {
			return 0, false
		}
		id = f.n.children[route(f.n.keys, key)]
	}
}

// Fits returns the error Put gives a row too large for a page, wrapping
// ErrTooLarge, or nil: a caller that stages rows for a later Put checks
// them with it up front.
func (t *Tree) Fits(key string, val []byte) error {
	if 3*leafCellSize(key, val) > t.pg.maxCell() || 4*branchCellSize(key) > t.pg.maxCell() {
		// A leaf cell of at most a third of the cell area A is what lets
		// splitLeaf place both halves. The leaf held at most A before this
		// put, which adds (or grows) one cell of c bytes, so an
		// overflowing leaf holds s <= A + c. The byte midpoint's left half
		// stops at the first cell that takes it to half = s/2 or more, so
		// left < half + c <= (A + c)/2 + c <= A when c <= A/3; the right
		// half is at most s - half, also under A. An ascending run's split
		// keeps old cells on the left, at most A; it keeps the new cell
		// there too only if that fits, and its right half is then old
		// cells. Otherwise cells[:at] plus the new cell passed A, so the
		// right half, the new cell and the cells after it, is under
		// s - (A - c) <= 2c <= A. If the run's left half then gives cells
		// back to stay at 7A/8, it stops at the first prefix that does,
		// one cell (at most A/3) short of a prefix that did not: it keeps
		// over 7A/8 - A/3, and the right half holds under
		// A + A/3 - (7A/8 - A/3) = 19A/24.
		//
		// The branch bound guarantees every overflowing branch holds at
		// least four separators, so a split always leaves a valid key on
		// both sides.
		return fmt.Errorf("%w: key %q with %d-byte value", ErrTooLarge, key, len(val))
	}
	return nil
}

// Put inserts or replaces key with it, stamping touched pages with lsn
// (the end LSN of the redo record carrying this write). It keeps no
// reference to key: an insert stores a copy. It refuses a row that Fits
// refuses.
func (t *Tree) Put(p *sim.Proc, key string, it Item, lsn int64) error {
	if err := t.Fits(key, it.Val); err != nil {
		return err
	}
	f, err := t.pg.fetch(p, t.root)
	if err != nil {
		return err
	}
	sep, right, split, err := t.insert(p, f, key, it, lsn)
	if err != nil {
		t.pg.unpin(f)
		return err
	}
	if split {
		nr := t.pg.alloc(kindBranch)
		nr.n.keys = []string{sep}
		nr.n.children = []uint64{t.root, right}
		nr.n.size = branchBaseSize + branchCellSize(sep)
		t.pg.markDirty(nr, lsn)
		t.root = nr.id
		t.pg.unpin(nr)
	}
	t.pg.unpin(f)
	return nil
}

// insert descends from f (pinned by the caller); on overflow the node
// splits and the new right sibling's id plus its separator bubble up.
//
// A put fetches the pages on its root-to-leaf path and nothing else unless
// a node on that path came back smaller (an update that shrank its entry,
// or a merge one level down that took a separator out): only then can a
// sibling pair newly satisfy maybeMerge's rule, because the rule is
// monotone in both sizes. If every adjacent pair (a, b) under one parent
// failed (a < minFill || b < minFill) && merged(a, b) <= limit before the
// put — the occupancy floor CheckInvariants states — and a did not shrink,
// the pair still fails it after: a side that was at or over minFill still
// is, and the merged size did not fall. Probing the siblings of a node
// that kept or gained size can therefore never find a merge, and skipping
// the probe leaves page shape the same function of the operation history
// (TestTreeLayoutPinned was first recorded with the probe in place).
func (t *Tree) insert(p *sim.Proc, f *frame, key string, it Item, lsn int64) (sep string, right uint64, split bool, err error) {
	n := f.n
	if n.kind == kindLeaf {
		// The tree owns its keys: an update keeps the cell's key, and only
		// an insert clones the caller's, which may be a view of a buffer
		// the caller reuses.
		c := cell{ver: it.Ver, val: it.Val, tomb: it.Tomb}
		at := -1 // the split point an ascending run asks for, if any
		if i, ok := n.search(key); ok {
			c.key = n.cells[i].key
			n.size += c.size() - n.cells[i].size()
			n.cells[i] = c
		} else {
			c.key = strings.Clone(key)
			n.cells = slices.Insert(n.cells, i, c)
			n.size += c.size()
			if i > 0 && n.hint == i {
				at = i // the previous insert into this leaf went to i-1
			}
			n.hint = i + 1
		}
		t.pg.markDirty(f, lsn)
		if n.size > t.pg.maxCell() {
			return t.splitLeaf(f, lsn, at)
		}
		return "", 0, false, nil
	}

	j := route(n.keys, key)
	cf, err := t.pg.fetch(p, n.children[j])
	if err != nil {
		return "", 0, false, err
	}
	before := cf.n.size
	csep, cright, csplit, err := t.insert(p, cf, key, it, lsn)
	if err != nil {
		t.pg.unpin(cf)
		return "", 0, false, err
	}
	if !csplit {
		if cf.n.size >= before {
			t.pg.unpin(cf)
			return "", 0, false, nil
		}
		// The child shrank and may now sit below the fill floor or fit
		// into a neighbor; restore occupancy around it.
		return "", 0, false, t.maybeMerge(p, f, j, cf, lsn)
	}
	t.pg.unpin(cf)
	n.keys = slices.Insert(n.keys, j, csep)
	n.children = slices.Insert(n.children, j+1, cright)
	n.size += branchCellSize(csep)
	t.pg.markDirty(f, lsn)
	// A byte-skewed split can leave an underfull half; settle the pairs at
	// the split point's outer edges before deciding whether f itself
	// splits. The inner pair (j, j+1) sums over a full page and never
	// merges, so the two fixups cannot interfere with each other.
	if err := t.fixupPair(p, f, j+1, lsn); err != nil {
		return "", 0, false, err
	}
	if err := t.fixupPair(p, f, j, lsn); err != nil {
		return "", 0, false, err
	}
	if n.size > t.pg.maxCell() {
		return t.splitBranch(f, lsn)
	}
	return "", 0, false, nil
}

// runFill is how many eighths of its cell area an ascending run's split
// leaves filled in the left page. The eighth it keeps free is room for
// rows that grow after the run appended them: TPC-C's Delivery stamps an
// order line with its delivery date, about 7 bytes on a cell of about 50,
// roughly a seventh of it, and Payment and NewOrder grow counters by a
// byte or two. A page of such rows at 7/8 takes every one of those
// updates without a split; a full one splits at its byte midpoint on the
// first, and leaves two pages half full.
const runFill = 7

// splitLeaf moves the cells from a split point on of f into a fresh
// right sibling; the separator is the right sibling's first key.
//
// at >= 0 says the split comes from an insert at index at that landed
// right after the leaf's previous insert: an ascending run, such as a
// district's newest orders. Its split is InnoDB's sequential-insert split,
// which leaves the run's pages dense instead of half empty:
//   - cells after the new one belong to higher keys the run will not add
//     to (the next district's first orders), so when the left page can
//     hold cells[:at+1] they alone move right and the run goes on
//     appending to the left page;
//   - otherwise the left page keeps cells[:at] and the new cell starts
//     the right page, where the run's next inserts go.
//
// Either way the left page then gives back cells from its end until it
// is at most runFill eighths full, keeping at least one cell, so the rows
// the run leaves behind can grow in place. Any other split cuts at the
// byte midpoint. Put's admission rule makes every choice fit. The split
// hint follows the cell it names into its half; the other half has none.
// Every input to the choice is in the page image, so page shape stays a
// function of the operation history alone, across eviction and recovery.
//
// The separator is cloned: a decoded leaf's key is a view into its page's
// cell-area copy, which a long-lived parent must not keep alive.
func (t *Tree) splitLeaf(f *frame, lsn int64, at int) (string, uint64, bool, error) {
	n := f.n
	var sp int
	if at >= 0 {
		left := 0 // bytes of cells[:at]
		for i := range n.cells[:at] {
			left += n.cells[i].size()
		}
		sp = at
		if at+1 < len(n.cells) && left+n.cells[at].size() <= t.pg.maxCell() {
			sp, left = at+1, left+n.cells[at].size()
		}
		for reserve := t.pg.maxCell() * runFill / 8; sp > 1 && left > reserve; {
			sp--
			left -= n.cells[sp].size()
		}
	} else {
		half := n.size / 2
		acc := 0
		for sp = 0; sp < len(n.cells)-1; sp++ {
			acc += n.cells[sp].size()
			if acc >= half {
				sp++
				break
			}
		}
		if sp == 0 {
			sp = 1
		}
	}
	rf := t.pg.alloc(kindLeaf)
	r := rf.n
	r.cells = append(r.cells, n.cells[sp:]...)
	for i := range r.cells {
		r.size += r.cells[i].size()
	}
	clear(n.cells[sp:])
	n.cells = n.cells[:sp]
	n.size -= r.size
	if n.hint > sp {
		r.hint, n.hint = n.hint-sp, 0
	}
	t.pg.markDirty(f, lsn)
	t.pg.markDirty(rf, lsn)
	sep := strings.Clone(r.cells[0].key)
	id := rf.id
	t.pg.unpin(rf)
	return sep, id, true, nil
}

// splitBranch promotes the separator closest to the byte midpoint and
// moves everything to its right into a fresh sibling — splitting by
// bytes, not by count, keeps both halves above the fill floor even with
// skewed key lengths. The promoted separator is cloned, as in splitLeaf.
func (t *Tree) splitBranch(f *frame, lsn int64) (string, uint64, bool, error) {
	n := f.n
	half := (n.size - branchBaseSize) / 2
	acc, m := 0, 0
	for m = 0; m < len(n.keys)-2; m++ {
		acc += branchCellSize(n.keys[m])
		if acc >= half {
			break
		}
	}
	if m == 0 {
		m = 1
	}
	sep := strings.Clone(n.keys[m])
	rf := t.pg.alloc(kindBranch)
	r := rf.n
	r.keys = append(r.keys, n.keys[m+1:]...)
	r.children = append(r.children, n.children[m+1:]...)
	for _, k := range r.keys {
		r.size += branchCellSize(k)
	}
	clear(n.keys[m:])
	n.keys = n.keys[:m]
	n.children = n.children[:m+1]
	n.size -= r.size - branchBaseSize + branchCellSize(sep)
	t.pg.markDirty(f, lsn)
	t.pg.markDirty(rf, lsn)
	id := rf.id
	t.pg.unpin(rf)
	return sep, id, true, nil
}

// mergedSize is the cell-area size of merging left and right siblings of
// the given kind under separator sep (branch merges pull the separator
// down; leaf merges just concatenate).
func mergedSize(kind byte, left, right int, sep string) int {
	if kind == kindBranch {
		return left + right - branchBaseSize + branchCellSize(sep)
	}
	return left + right
}

// maybeMerge restores the fill floor around f's j-th child cf (pinned;
// this call consumes the pin). A pair of adjacent siblings merges when
// either one is below minFill and the combined node stays under
// mergeLimit — checking both directions from cf covers the node that
// shrank and a neighbor that was already underfull and just became
// absorbable. Merges cascade until cf's pairs are all settled.
//
// Callers reach it only for a child whose pairs may have changed standing:
// one that shrank under a put (see insert) or one new to its position (the
// halves of a split, the seam of a branch merge). Each sibling it fetches
// is a page read off the operation's own path and is counted as a
// merge_probe.
func (t *Tree) maybeMerge(p *sim.Proc, f *frame, j int, cf *frame, lsn int64) error {
	minFill := t.pg.maxCell() / 4
	limit := 3 * t.pg.maxCell() / 4
	n := f.n
	for {
		merged := false
		if j > 0 {
			t.pg.mProbes.Inc()
			lf, err := t.pg.fetch(p, n.children[j-1])
			if err != nil {
				t.pg.unpin(cf)
				return err
			}
			if (cf.n.size < minFill || lf.n.size < minFill) &&
				mergedSize(cf.n.kind, lf.n.size, cf.n.size, n.keys[j-1]) <= limit {
				if err := t.mergeInto(p, f, j-1, lf, cf, lsn); err != nil {
					t.pg.unpin(lf)
					return err
				}
				cf, j = lf, j-1
				merged = true
			} else {
				t.pg.unpin(lf)
			}
		}
		if j+1 < len(n.children) {
			t.pg.mProbes.Inc()
			rf, err := t.pg.fetch(p, n.children[j+1])
			if err != nil {
				t.pg.unpin(cf)
				return err
			}
			if (cf.n.size < minFill || rf.n.size < minFill) &&
				mergedSize(cf.n.kind, cf.n.size, rf.n.size, n.keys[j]) <= limit {
				if err := t.mergeInto(p, f, j, cf, rf, lsn); err != nil {
					t.pg.unpin(cf)
					return err
				}
				merged = true
			} else {
				t.pg.unpin(rf)
			}
		}
		if !merged {
			break
		}
	}
	t.pg.unpin(cf)
	return nil
}

// fixupPair runs maybeMerge for f's idx-th child: a split can leave an
// underfull half whose outer neighbor pair now fits in one node.
func (t *Tree) fixupPair(p *sim.Proc, f *frame, idx int, lsn int64) error {
	if idx < 0 || idx >= len(f.n.children) {
		return nil
	}
	cf, err := t.pg.fetch(p, f.n.children[idx])
	if err != nil {
		return err
	}
	return t.maybeMerge(p, f, idx, cf, lsn)
}

// mergeInto folds right into left (children j and j+1 of parent f),
// removes the separator between them, and frees right. Consumes right's
// fetch pin; the caller keeps left's.
func (t *Tree) mergeInto(p *sim.Proc, f *frame, j int, left, right *frame, lsn int64) error {
	sep := f.n.keys[j]
	l, r := left.n, right.n
	seam := len(l.children)
	if l.kind == kindBranch {
		l.keys = append(l.keys, sep)
		l.keys = append(l.keys, r.keys...)
		l.children = append(l.children, r.children...)
		l.size = mergedSize(kindBranch, l.size, r.size, sep)
	} else {
		l.cells = append(l.cells, r.cells...)
		l.size += r.size
		l.hint = 0
	}
	f.n.keys = slices.Delete(f.n.keys, j, j+1)
	f.n.children = slices.Delete(f.n.children, j+1, j+2)
	f.n.size -= branchCellSize(sep)
	t.pg.markDirty(left, lsn)
	t.pg.markDirty(f, lsn)
	t.pg.unpin(right)
	t.pg.free(right)
	if l.kind == kindBranch {
		// Concatenating the child lists created one brand-new adjacency
		// across the seam; that pair has never been checked against the
		// fill floor, so settle it now.
		return t.fixupPair(p, left, seam, lsn)
	}
	return nil
}

// Scan visits every entry (tombstones included) in key order until fn
// returns false.
func (t *Tree) Scan(p *sim.Proc, fn func(key string, it Item) bool) error {
	_, err := t.scan(p, t.root, fn)
	return err
}

func (t *Tree) scan(p *sim.Proc, id uint64, fn func(key string, it Item) bool) (bool, error) {
	f, err := t.pg.fetch(p, id)
	if err != nil {
		return false, err
	}
	n := f.n
	if n.kind == kindLeaf {
		for _, c := range n.cells {
			if !fn(c.key, Item{Ver: c.ver, Val: c.val, Tomb: c.tomb}) {
				t.pg.unpin(f)
				return false, nil
			}
		}
		t.pg.unpin(f)
		return true, nil
	}
	for _, c := range n.children {
		cont, err := t.scan(p, c, fn)
		if err != nil || !cont {
			t.pg.unpin(f)
			return cont, err
		}
	}
	t.pg.unpin(f)
	return true, nil
}

// CheckInvariants walks the whole tree and verifies structure: sorted
// keys, separator bounds, equal leaf depth, exact size accounting, no
// overflow, and the occupancy floor (a non-root node under minFill must
// have no sibling it could merge with).
func (t *Tree) CheckInvariants(p *sim.Proc) error {
	leafDepth := -1
	_, err := t.check(p, t.root, 0, &leafDepth, "", false, "", false, true)
	return err
}

func (t *Tree) check(p *sim.Proc, id uint64, depth int, leafDepth *int, lo string, haveLo bool, hi string, haveHi bool, isRoot bool) (int, error) {
	f, err := t.pg.fetch(p, id)
	if err != nil {
		return 0, err
	}
	defer t.pg.unpin(f)
	n := f.n
	for i := 0; i < n.count(); i++ {
		k := n.key(i)
		if i > 0 && k <= n.key(i-1) {
			return 0, fmt.Errorf("btree: node %d keys out of order at %d", id, i)
		}
		if haveLo && k < lo {
			return 0, fmt.Errorf("btree: node %d key %q under bound %q", id, k, lo)
		}
		if haveHi && k >= hi {
			return 0, fmt.Errorf("btree: node %d key %q over bound %q", id, k, hi)
		}
	}
	size := 0
	if n.kind == kindLeaf {
		if *leafDepth == -1 {
			*leafDepth = depth
		} else if depth != *leafDepth {
			return 0, fmt.Errorf("btree: leaf %d at depth %d, want %d", id, depth, *leafDepth)
		}
		for i := range n.cells {
			size += n.cells[i].size()
		}
	} else {
		if len(n.children) != len(n.keys)+1 {
			return 0, fmt.Errorf("btree: branch %d has %d children for %d keys", id, len(n.children), len(n.keys))
		}
		if len(n.keys) == 0 && !isRoot {
			return 0, fmt.Errorf("btree: non-root branch %d is empty", id)
		}
		size = branchBaseSize
		for _, k := range n.keys {
			size += branchCellSize(k)
		}
		sizes := make([]int, len(n.children))
		kinds := byte(0)
		for i, c := range n.children {
			clo, chaveLo := lo, haveLo
			chi, chaveHi := hi, haveHi
			if i > 0 {
				clo, chaveLo = n.keys[i-1], true
			}
			if i < len(n.keys) {
				chi, chaveHi = n.keys[i], true
			}
			cs, err := t.check(p, c, depth+1, leafDepth, clo, chaveLo, chi, chaveHi, false)
			if err != nil {
				return 0, err
			}
			sizes[i] = cs
			ck, err := t.childKind(p, c)
			if err != nil {
				return 0, err
			}
			kinds = ck
		}
		minFill := t.pg.maxCell() / 4
		limit := 3 * t.pg.maxCell() / 4
		for i, cs := range sizes {
			if cs >= minFill {
				continue
			}
			if i > 0 && mergedSize(kinds, sizes[i-1], cs, n.keys[i-1]) <= limit {
				return 0, fmt.Errorf("btree: child %d of branch %d underfull (%d) with mergeable left sibling", i, id, cs)
			}
			if i+1 < len(sizes) && mergedSize(kinds, cs, sizes[i+1], n.keys[i]) <= limit {
				return 0, fmt.Errorf("btree: child %d of branch %d underfull (%d) with mergeable right sibling", i, id, cs)
			}
		}
	}
	if size != n.size {
		return 0, fmt.Errorf("btree: node %d tracked size %d, actual %d", id, n.size, size)
	}
	if size > t.pg.maxCell() {
		return 0, fmt.Errorf("btree: node %d size %d over cell budget %d", id, size, t.pg.maxCell())
	}
	return size, nil
}

func (t *Tree) childKind(p *sim.Proc, id uint64) (byte, error) {
	f, err := t.pg.fetch(p, id)
	if err != nil {
		return 0, err
	}
	k := f.n.kind
	t.pg.unpin(f)
	return k, nil
}
