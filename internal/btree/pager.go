package btree

import (
	"fmt"
	"slices"

	"xssd/internal/obs"
	"xssd/internal/sim"
)

// Config parameterizes a Pager.
type Config struct {
	// PoolPages is the soft cap on resident frames. Eviction only removes
	// clean, unpinned frames, so a burst of dirty pages grows the pool
	// past the cap until a checkpoint cleans them (no-steal policy: a
	// dirty page is never written back outside a checkpoint, which is
	// what keeps the on-store image set consistent). 0 means 64.
	PoolPages int
	// Scope registers pager instruments (reads, writes, hits, misses,
	// evictions, merge_probes, resident/dirty gauges). The zero Scope keeps
	// the pager silent — recovery oracles must not pollute live metrics
	// snapshots.
	Scope obs.Scope
}

// PageImage is one encoded page captured by a checkpoint snapshot:
// the page bytes as of the snapshot instant, the slot parity they must
// be written to, and the page's recovery LSN (already encoded in Data,
// duplicated here for tests and invariant checks).
type PageImage struct {
	ID     uint64
	LSN    int64
	Parity uint8
	Data   []byte
}

// Snapshot is the atomic state a checkpoint captures: every dirty page
// encoded, plus the allocation state (NextID, Free) and the slot parity
// each live page's recovery image sits at once this checkpoint's writes
// land. All of it is captured in zero virtual time, so it is a
// consistent cut of the tree.
type Snapshot struct {
	Images []PageImage // sorted by ID
	NextID uint64
	Free   []uint64 // sorted
	Parity []uint8  // indexed by page id < NextID
}

// frame is one resident page.
type frame struct {
	id         uint64
	n          *node
	dirty      bool
	pins       int
	prev, next *frame // LRU list, most-recent at head
}

// Pager is the buffer pool: it caches decoded pages, tracks dirty state,
// allocates and frees page ids, and maps ids to shadow slots. It is not
// a process itself — every method runs on the calling simulated process,
// and only store I/O takes virtual time.
type Pager struct {
	store PageStore
	pool  int

	frames     map[uint64]*frame
	head, tail *frame
	resident   int
	dirtyN     int

	nextID  uint64
	freeIDs []uint64 // sorted ascending; allocation pops the smallest

	// committed[id] is the slot parity of id's image as referenced by the
	// last complete checkpoint — the recovery truth, never overwritten by
	// an in-flight checkpoint. live[id] is the parity of the latest
	// written image — what an eviction re-read must use. They diverge
	// exactly while a checkpoint is in flight or after one aborted.
	committed []uint8
	live      []uint8

	// pendingRewrite holds every image captured by a snapshot whose
	// checkpoint has not committed yet: from the instant a dirty frame
	// goes clean its newest content exists only here (the store's live
	// slot is one checkpoint behind until WriteImages lands — and not
	// trustworthy at all if the checkpoint aborts), so a fetch miss must
	// serve these from memory. CommitCheckpoint clears them; after an
	// abort they stay, which is also what feeds them into the next
	// snapshot even if their frames were since evicted.
	pendingRewrite map[uint64]PageImage

	readBuf []byte

	// batch is the store as a batchReader, nil when it has no ReadBatch:
	// Prefetch batches only over such a store.
	batch batchReader
	// Prefetch's scratch, reused from call to call: the ids it reads,
	// their slots, and page buffers, one per id of its largest batch yet.
	// prefetching marks it in use while a batch is out.
	prefetching bool
	preIDs      []uint64
	preSlots    []int64
	preBufs     [][]byte
	// commits counts committed checkpoints; Prefetch's re-check reads it.
	commits int64

	mReads, mWrites, mHits, mMisses, mEvicts *obs.Counter
	// mProbes counts the sibling fetches maybeMerge issues, hit or miss:
	// the page reads a tree operation spends off its own path.
	mProbes *obs.Counter
}

// NewPager builds a pager over store.
func NewPager(store PageStore, cfg Config) *Pager {
	if cfg.PoolPages <= 0 {
		cfg.PoolPages = 64
	}
	pg := &Pager{
		store:          store,
		pool:           cfg.PoolPages,
		frames:         map[uint64]*frame{},
		pendingRewrite: map[uint64]PageImage{},
		readBuf:        make([]byte, store.PageSize()),
	}
	pg.batch, _ = store.(batchReader)
	sc := cfg.Scope
	pg.mReads = sc.Counter("reads")
	pg.mWrites = sc.Counter("writes")
	pg.mHits = sc.Counter("hits")
	pg.mMisses = sc.Counter("misses")
	pg.mEvicts = sc.Counter("evictions")
	pg.mProbes = sc.Counter("merge_probes")
	sc.GaugeFunc("resident", func() int64 { return int64(pg.resident) })
	sc.GaugeFunc("dirty", func() int64 { return int64(pg.dirtyN) })
	return pg
}

// maxCell is the usable cell-area budget per page.
func (pg *Pager) maxCell() int { return pg.store.PageSize() - headerLen }

// Resident returns the resident-frame count.
func (pg *Pager) Resident() int { return pg.resident }

// --- LRU list ---------------------------------------------------------------

func (pg *Pager) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		pg.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		pg.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (pg *Pager) pushFront(f *frame) {
	f.next = pg.head
	if pg.head != nil {
		pg.head.prev = f
	}
	pg.head = f
	if pg.tail == nil {
		pg.tail = f
	}
}

// install makes f resident at the head of the recency list.
func (pg *Pager) install(f *frame) {
	pg.frames[f.id] = f
	pg.pushFront(f)
	pg.resident++
}

// touch moves a hit frame to the head of the recency list.
//
//xssd:hotpath
func (pg *Pager) touch(f *frame) {
	if pg.head == f {
		return
	}
	pg.unlink(f)
	pg.pushFront(f)
}

// evict removes clean, unpinned frames from the cold end until the pool
// is back under its cap (or nothing else is evictable — dirty and pinned
// frames over-commit the pool by design).
func (pg *Pager) evict() {
	f := pg.tail
	for pg.resident > pg.pool && f != nil {
		prev := f.prev
		if !f.dirty && f.pins == 0 {
			pg.unlink(f)
			delete(pg.frames, f.id)
			pg.resident--
			pg.mEvicts.Inc()
		}
		f = prev
	}
}

// --- frame access -----------------------------------------------------------

// fetch returns the frame for id, pinned; the caller must unpin it. A
// miss reads the live slot through the store (which may yield) and may
// evict cold clean frames to make room. A page has at most one frame:
// of several processes that miss on it together, the first back from the
// store installs the frame and the rest adopt it.
func (pg *Pager) fetch(p *sim.Proc, id uint64) (*frame, error) {
	if f, ok := pg.frames[id]; ok {
		pg.mHits.Inc()
		pg.touch(f)
		f.pins++
		return f, nil
	}
	pg.mMisses.Inc()
	if id >= pg.nextID {
		return nil, fmt.Errorf("%w: fetch of unallocated page %d (next id %d)", ErrCorrupt, id, pg.nextID)
	}
	data, slot := pg.readBuf, int64(-1)
	if img, ok := pg.pendingRewrite[id]; ok {
		// The page's newest image belongs to an uncommitted checkpoint:
		// the store's live slot is stale (or mid-write), so decode the
		// captured image instead of reading the device.
		data = img.Data
	} else {
		slot = pg.slot(id)
		pg.mReads.Inc()
		if err := pg.store.Read(p, slot, pg.readBuf); err != nil {
			return nil, fmt.Errorf("btree: fetch page %d: %w", id, err)
		}
		if f, ok := pg.frames[id]; ok {
			// The read yielded and another process's miss on the same page
			// installed it first. Adopt that frame: a second one would
			// replace it in pg.frames and orphan updates made through it.
			pg.touch(f)
			f.pins++
			return f, nil
		}
	}
	f, err := pg.load(id, slot, data, 1)
	if err == nil {
		pg.evict()
	}
	return f, err
}

// load decodes page id's image into a resident frame holding pins pins.
// It is the one step by which bytes become a frame (a pending image, a
// store read, a prefetched batch), so a bad image fails here and only
// here: with the codec's ErrCorrupt, or ErrCorrupt for an image of
// another page. slot is where the bytes were read, -1 for a pending image.
func (pg *Pager) load(id uint64, slot int64, data []byte, pins int) (*frame, error) {
	n, err := decodeNode(data)
	if err == nil && n.id != id {
		err = fmt.Errorf("%w: image holds page %d", ErrCorrupt, n.id)
	}
	if err != nil {
		if slot < 0 {
			return nil, fmt.Errorf("btree: page %d (pending image): %w", id, err)
		}
		return nil, fmt.Errorf("btree: page %d (slot %d): %w", id, slot, err)
	}
	f := &frame{id: id, n: n, pins: pins}
	pg.install(f)
	return f, nil
}

// batchReader is a PageStore that can also read several slots in one call
// (DeviceStore). PageStore keeps its method set: a store that cannot batch
// is still a store.
type batchReader interface {
	// ReadBatch fills bufs[i] (PageSize bytes) with the image at
	// slots[i], returning when every read has completed.
	ReadBatch(p *sim.Proc, slots []int64, bufs [][]byte) error
}

// Prefetch brings the pages ids names into the pool together, so that a
// caller about to touch several cold pages (a commit's write set, DESIGN
// §14) waits for one batch of store reads instead of one read per page.
// It keeps the ids a fetch would read from the store — allocated, not
// resident, not held by pendingRewrite — once each. Two or more go to the
// store's ReadBatch; a single one is left to fetch. Over a store without
// ReadBatch, or while another process's batch is out, Prefetch does
// nothing.
//
// The batch yields, so each page is checked again before it is
// installed: a frame another process installed meanwhile wins, and so
// does a capture by a snapshot (the page is in pendingRewrite, or its live
// slot moved); a freed page stays free. The rest go in unpinned at the
// head of the recency list, as fetch would have put them, and the pool
// then evicts down to its cap. Prefetch allocates what the same misses
// cost through fetch, plus its scratch while that grows.
func (pg *Pager) Prefetch(p *sim.Proc, ids []uint64) error {
	if pg.batch == nil || pg.prefetching {
		return nil
	}
	pg.preIDs, pg.preSlots = pg.preIDs[:0], pg.preSlots[:0]
	for _, id := range ids {
		if pg.cold(id) && !slices.Contains(pg.preIDs, id) {
			pg.preIDs = append(pg.preIDs, id)
			pg.preSlots = append(pg.preSlots, pg.slot(id))
		}
	}
	k := len(pg.preIDs)
	if k < 2 {
		return nil
	}
	for len(pg.preBufs) < k {
		pg.preBufs = append(pg.preBufs, make([]byte, pg.store.PageSize()))
	}
	pg.mMisses.Add(int64(k))
	pg.mReads.Add(int64(k))
	commits := pg.commits
	pg.prefetching = true
	err := pg.batch.ReadBatch(p, pg.preSlots, pg.preBufs[:k])
	pg.prefetching = false
	if err != nil {
		return fmt.Errorf("btree: prefetch %d pages: %w", k, err)
	}
	// A page that is cold again and on the slot it was read from can
	// still be stale if two checkpoints committed while the batch was
	// out: its live slot may have moved away and back. Drop the whole
	// batch then; the puts fetch what they need.
	if pg.commits-commits >= 2 {
		return nil
	}
	for i, id := range pg.preIDs {
		if !pg.cold(id) || pg.slot(id) != pg.preSlots[i] {
			continue
		}
		if _, err := pg.load(id, pg.preSlots[i], pg.preBufs[i], 0); err != nil {
			return err
		}
	}
	pg.evict()
	return nil
}

// cold reports whether a fetch of id would read it from the store: the id
// is allocated and not on the free list, has no frame, and has no image
// waiting in pendingRewrite.
func (pg *Pager) cold(id uint64) bool {
	if id >= pg.nextID || pg.frames[id] != nil {
		return false
	}
	if _, ok := pg.pendingRewrite[id]; ok {
		return false
	}
	_, freed := slices.BinarySearch(pg.freeIDs, id)
	return !freed
}

// slot is id's live shadow slot: where its latest written image is.
func (pg *Pager) slot(id uint64) int64 { return 2*int64(id) + int64(pg.live[id]) }

// unpin releases a fetch pin.
//
//xssd:hotpath
func (pg *Pager) unpin(f *frame) {
	f.pins--
}

// allocID hands out the smallest free id, growing the id space when the
// free list is empty — deterministic, so a WAL tail replay re-allocates
// the same ids in the same order.
func (pg *Pager) allocID() uint64 {
	if len(pg.freeIDs) > 0 {
		id := pg.freeIDs[0]
		pg.freeIDs = pg.freeIDs[1:]
		return id
	}
	id := pg.nextID
	pg.nextID++
	pg.committed = append(pg.committed, 0)
	pg.live = append(pg.live, 0)
	return id
}

// alloc creates a fresh dirty frame of the given kind, pinned.
func (pg *Pager) alloc(kind byte) *frame {
	id := pg.allocID()
	f := &frame{id: id, n: &node{id: id, kind: kind}, dirty: true, pins: 1}
	if kind == kindBranch {
		f.n.size = branchBaseSize
	}
	pg.install(f)
	pg.dirtyN++
	return f
}

// free releases a (resident) page id back to the allocator. The slot
// pair keeps its bytes — recovery never reads a freed id, because the
// checkpoint record's free list marks it.
func (pg *Pager) free(f *frame) {
	pg.unlink(f)
	delete(pg.frames, f.id)
	pg.resident--
	if f.dirty {
		pg.dirtyN--
	}
	delete(pg.pendingRewrite, f.id)
	i, _ := slices.BinarySearch(pg.freeIDs, f.id)
	pg.freeIDs = slices.Insert(pg.freeIDs, i, f.id)
}

// markDirty flags a mutated frame and advances its recovery LSN.
//
//xssd:hotpath
func (pg *Pager) markDirty(f *frame, lsn int64) {
	if !f.dirty {
		f.dirty = true
		pg.dirtyN++
	}
	if lsn > f.n.lsn {
		f.n.lsn = lsn
	}
}

// --- checkpoint support -----------------------------------------------------

// SnapshotCheckpoint captures the checkpoint cut: every dirty page (plus
// any image re-queued by an aborted checkpoint) encoded at this instant,
// the allocation state, and the parity map recovery must use once these
// images land. Dirty flags reset here — commits after this instant
// re-dirty pages for the next checkpoint. Runs in zero virtual time.
func (pg *Pager) SnapshotCheckpoint() (Snapshot, error) {
	ids := make([]uint64, 0, pg.dirtyN+len(pg.pendingRewrite))
	for id, f := range pg.frames {
		if f.dirty {
			ids = append(ids, id)
		}
	}
	for id := range pg.pendingRewrite {
		if f, ok := pg.frames[id]; !ok || !f.dirty {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)

	snap := Snapshot{
		Images: make([]PageImage, 0, len(ids)),
		NextID: pg.nextID,
		Free:   append([]uint64(nil), pg.freeIDs...),
		Parity: append([]uint8(nil), pg.committed...),
	}
	for _, id := range ids {
		var img PageImage
		if f, ok := pg.frames[id]; ok && f.dirty {
			data, err := encodeNode(f.n, pg.store.PageSize())
			if err != nil {
				return Snapshot{}, fmt.Errorf("btree: snapshot page %d: %w", id, err)
			}
			img = PageImage{ID: id, LSN: f.n.lsn, Data: data}
			f.dirty = false
			pg.dirtyN--
		} else {
			// Re-queued from an aborted checkpoint and unchanged since:
			// the stored image is still the page's exact state.
			img = pg.pendingRewrite[id]
		}
		img.Parity = 1 - snap.Parity[id]
		snap.Parity[id] = img.Parity
		snap.Images = append(snap.Images, img)
		// Until this checkpoint commits, the captured image is the only
		// trustworthy copy of the page outside its (now clean, evictable)
		// frame — keep it fetchable.
		pg.pendingRewrite[id] = img
	}
	return snap, nil
}

// WriteImages persists a snapshot's images to their shadow slots (always
// the non-committed slot, so the last complete checkpoint's images
// survive a crash mid-write) and advances the live parity as each lands.
func (pg *Pager) WriteImages(p *sim.Proc, images []PageImage) error {
	slots := make([]int64, len(images))
	datas := make([][]byte, len(images))
	for i, img := range images {
		slots[i] = 2*int64(img.ID) + int64(img.Parity)
		datas[i] = img.Data
	}
	if err := pg.store.WriteBatch(p, slots, datas); err != nil {
		return fmt.Errorf("btree: checkpoint write: %w", err)
	}
	pg.mWrites.Add(int64(len(images)))
	for _, img := range images {
		pg.live[img.ID] = img.Parity
	}
	return nil
}

// Sync makes every written image durable.
func (pg *Pager) Sync(p *sim.Proc) error {
	if err := pg.store.Sync(p); err != nil {
		return fmt.Errorf("btree: checkpoint sync: %w", err)
	}
	return nil
}

// CommitCheckpoint installs a completed checkpoint's parities as the new
// recovery truth. Call only after the checkpoint record is durable.
func (pg *Pager) CommitCheckpoint(snap Snapshot) {
	for _, img := range snap.Images {
		if int(img.ID) < len(pg.committed) {
			pg.committed[img.ID] = img.Parity
		}
		// The written slot is now the durable truth; fetches may trust it
		// again (a freed-and-reallocated id already dropped its entry).
		delete(pg.pendingRewrite, img.ID)
	}
	pg.commits++
	// The checkpoint turned dirty frames clean; shrink an over-committed
	// pool back toward its cap now instead of waiting for the next miss.
	pg.evict()
}

// Restore installs recovered allocation state: the checkpoint record's
// NextID, free list, and parity map (committed == live at recovery).
func (pg *Pager) Restore(nextID uint64, free []uint64, parity []uint8) {
	pg.nextID = nextID
	pg.freeIDs = append([]uint64(nil), free...)
	slices.Sort(pg.freeIDs)
	pg.committed = append([]uint8(nil), parity...)
	pg.live = append([]uint8(nil), parity...)
	for uint64(len(pg.committed)) < nextID {
		pg.committed = append(pg.committed, 0)
		pg.live = append(pg.live, 0)
	}
}
