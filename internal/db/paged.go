// Durable tables: an engine built with NewPaged grows every table as a
// B+tree (internal/btree) on one buffer pool destaged to the conventional
// side of the device, instead of an in-memory row map. *btree.Tree is the
// engine's row store as is, so the transaction path in db.go is the same
// code either way; a tree's reads and writes may fetch pages and yield,
// which is why transactions carry their process and commits hold the
// engine lock. This file holds what only a durable engine has: the pager,
// reopening tables at checkpointed roots, and the checkpoint cut that lets
// internal/ckpt bound recovery to the WAL tail past the last checkpoint.
package db

import (
	"fmt"

	"xssd/internal/btree"
	"xssd/internal/sim"
	"xssd/internal/wal"
)

// NewPaged creates an engine whose tables are B+trees over pager. log may
// be nil (recovery instances and tests).
func NewPaged(env *sim.Env, log *wal.Log, pager *btree.Pager) *Engine {
	e := New(env, log)
	e.pager = pager
	return e
}

// Paged reports whether the engine stores tables in pages.
func (e *Engine) Paged() bool { return e.pager != nil }

// Pager returns the paged engine's buffer pool (nil on the in-memory
// engine).
func (e *Engine) Pager() *btree.Pager { return e.pager }

// OpenPagedTable attaches a recovered table to its checkpointed root
// page. Recovery calls it for every table in the checkpoint record
// before replaying the WAL tail.
func (e *Engine) OpenPagedTable(name string, root uint64) {
	e.tables[name] = &table{name: name, rows: btree.Open(e.pager, root)}
}

// Checkpoint is one fuzzy checkpoint captured from a paged engine: the
// page images and allocation state of the pager snapshot, the table
// directory (name → root page id), and the WAL's applied frontier at the
// snapshot instant. Everything below StartLSN is covered by the images;
// recovery replays only records at or past it. The images may also hold
// the writes of records past StartLSN that applied before the snapshot;
// replaying those installs the same rows again.
type Checkpoint struct {
	Snap     btree.Snapshot
	Tables   map[string]uint64
	StartLSN int64
}

// BeginCheckpoint captures a checkpoint cut under the commit lock: no
// commit is mid-flight, so the dirty pages plus the WAL prefix below the
// append frontier are exactly the committed state. A prepared transaction
// still undecided holds the cut back to the frontier at its Prepare
// (applied): its DECISION or PREPARE record may already be below the
// append frontier while its writes are not yet in any page, and the tail
// replay from StartLSN applies that record. The snapshot itself spends
// zero virtual time; writing the images out happens afterwards, outside
// the lock, concurrently with new commits (that is what makes the
// checkpoint fuzzy). Only a paged engine has pages to cut.
func (e *Engine) BeginCheckpoint(p *sim.Proc) (Checkpoint, error) {
	e.build(p)
	e.lockCommits(p)
	defer e.unlockCommits()
	snap, err := e.pager.SnapshotCheckpoint()
	if err != nil {
		return Checkpoint{}, fmt.Errorf("db: checkpoint snapshot: %w", err)
	}
	ck := Checkpoint{Snap: snap, Tables: make(map[string]uint64, len(e.tables)), StartLSN: e.applied()}
	for name, tab := range e.tables {
		ck.Tables[name] = tab.rows.(*btree.Tree).Root()
	}
	return ck, nil
}
