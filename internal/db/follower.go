package db

import "xssd/internal/wal"

// Follower incrementally applies a primary's log stream to a secondary
// engine (the paper's Fig 1 right, step 3: the remote database reads the
// shipped log and updates its own memory). Feed it raw log bytes in
// arrival order — chunk boundaries need not align with records. wal.Frame
// cuts them into records at their stream LSNs, and it walks them by the
// rule Replay applies, one walk across every chunk.
type Follower struct {
	w       replayer
	pending []byte
	base    int64 // the stream offset of pending[0]
}

// NewFollower wraps eng.
func NewFollower(eng *Engine) *Follower { return &Follower{w: replayer{e: eng}} }

// Feed consumes the next chunk of the log stream, applying every complete
// record it completes. Partial records are buffered for the next call.
func (f *Follower) Feed(chunk []byte) error {
	f.w.e.build(f.w.p) // rows LoadRow staged lie under the log, as in Replay
	f.pending = append(f.pending, chunk...)
	records, n := wal.Frame(f.pending, f.base)
	f.pending, f.base = f.pending[n:], f.base+int64(n)
	for _, r := range records {
		if err := f.w.walk(r); err != nil {
			return err
		}
	}
	return nil
}

// Transactions returns the number of write sets the engine applied: redo
// records, DECISIONs and COMMITPs, never a PREPARE or a checkpoint.
func (f *Follower) Transactions() int64 { return f.w.e.commits }

// Engine returns the secondary engine.
func (f *Follower) Engine() *Engine { return f.w.e }
