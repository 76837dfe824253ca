package db

import (
	"xssd/internal/wal"
)

// Follower incrementally applies a primary's log stream to a secondary
// engine (the paper's Fig 1 right, step 3: the remote database reads the
// shipped log and updates its own memory). Feed it raw log bytes in
// arrival order — chunk boundaries need not align with records. It walks
// records by the rule Replay applies, one walk across every chunk.
type Follower struct {
	w       replayer
	pending []byte
	txns    int64
}

// NewFollower wraps eng.
func NewFollower(eng *Engine) *Follower { return &Follower{w: replayer{e: eng}} }

// Feed consumes the next chunk of the log stream, applying every complete
// record it completes. Partial records are buffered for the next call.
func (f *Follower) Feed(chunk []byte) error {
	f.w.e.build(f.w.p) // rows LoadRow staged lie under the log, as in Replay
	f.pending = append(f.pending, chunk...)
	off := 0
	for {
		r, n, err := wal.Decode(f.pending[off:])
		if err != nil {
			break // incomplete tail record: wait for more bytes
		}
		if err := f.w.walk(r); err != nil {
			return err
		}
		off += n
		f.txns++
	}
	f.pending = f.pending[off:]
	return nil
}

// Transactions returns the number of transactions replayed.
func (f *Follower) Transactions() int64 { return f.txns }

// Engine returns the secondary engine.
func (f *Follower) Engine() *Engine { return f.w.e }
