// Package wal implements the database logging substrate: write-ahead log
// records with binary encoding, a group-commit pipeline (the paper's
// evaluation commits in 16 KB batches, §6.1), and pluggable durability
// sinks — the Villars fast side, host NVDIMM (the "Memory" baseline), the
// conventional NVMe path, and a null sink ("No Log").
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"xssd/internal/fault"
	"xssd/internal/obs"
	"xssd/internal/sim"
)

// ErrSinkLost reports that the sink's device is gone for good (power
// loss): the pipeline halts with the durable horizon frozen where it
// was, exactly like a crashed log. Match with errors.Is.
var ErrSinkLost = errors.New("wal: sink lost")

// ErrResumeLive reports a Resume on a pipeline that has not halted.
var ErrResumeLive = errors.New("wal: resume on a live pipeline")

// ErrTailUnavailable reports a Resume or StreamRange over bytes the log
// no longer holds (below the retention base, or past the appended end).
var ErrTailUnavailable = errors.New("wal: stream bytes not retained")

// Record is one WAL entry: a transaction's redo payload.
type Record struct {
	LSN     int64 // byte offset of the record in the log stream (set on append)
	TxID    int64
	Payload []byte
}

// recordHeaderLen is the encoded header: magic(2) | txid(8) | len(4).
const recordHeaderLen = 14

const recordMagic = 0x5741 // "WA"

// EncodedLen returns the on-log size of a record with an n-byte payload.
func EncodedLen(n int) int { return recordHeaderLen + n }

// Encode appends the record's wire form to dst and returns the result.
func (r Record) Encode(dst []byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint16(hdr[0:2], recordMagic)
	binary.LittleEndian.PutUint64(hdr[2:10], uint64(r.TxID))
	binary.LittleEndian.PutUint32(hdr[10:14], uint32(len(r.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, r.Payload...)
}

// Decode parses one record from buf, returning it and the bytes consumed.
func Decode(buf []byte) (Record, int, error) {
	if len(buf) < recordHeaderLen {
		return Record{}, 0, errors.New("wal: short record header")
	}
	if binary.LittleEndian.Uint16(buf[0:2]) != recordMagic {
		return Record{}, 0, errors.New("wal: bad record magic")
	}
	txid := int64(binary.LittleEndian.Uint64(buf[2:10]))
	n := int(binary.LittleEndian.Uint32(buf[10:14]))
	if len(buf) < recordHeaderLen+n {
		return Record{}, 0, errors.New("wal: truncated record payload")
	}
	payload := append([]byte(nil), buf[recordHeaderLen:recordHeaderLen+n]...)
	return Record{TxID: txid, Payload: payload}, recordHeaderLen + n, nil
}

// DecodeAll parses a stream of records, stopping at the first short or
// invalid record (a crash may truncate the tail).
func DecodeAll(buf []byte) []Record {
	var out []Record
	off := 0
	for off < len(buf) {
		r, n, err := Decode(buf[off:])
		if err != nil {
			break
		}
		r.LSN = int64(off)
		out = append(out, r)
		off += n
	}
	return out
}

// Sink is where the group-commit pipeline persists batches. Write must
// block the calling process until the batch is durable (under whatever
// replication scheme the sink's device enforces). The data slice is a
// reused buffer owned by the pipeline: a sink that needs the bytes after
// Write returns must copy them.
type Sink interface {
	// Write persists data appended at the sink's current tail.
	Write(p *sim.Proc, data []byte) error
	// Name identifies the sink in experiment output.
	Name() string
}

// Config tunes the group-commit pipeline.
type Config struct {
	// GroupBytes: flush when this many bytes have accumulated (paper
	// §6.1: "the system waits until it has 16 KB worth of log records").
	GroupBytes int
	// GroupTimeout: flush a smaller batch after this long (bounds commit
	// latency at low load).
	GroupTimeout time.Duration
	// Retain keeps an in-memory copy of every durably flushed byte so the
	// stream can be re-driven onto a promoted device after a failover
	// (Log.Resume). Off by default.
	Retain bool
}

// DefaultConfig matches the paper's evaluation.
var DefaultConfig = Config{GroupBytes: 16 << 10, GroupTimeout: 5 * time.Millisecond}

// Log is the group-commit pipeline: transactions append records and block
// until their LSN is durable; a flusher process writes batches to the
// sink.
type Log struct {
	env  *sim.Env
	sink Sink
	cfg  Config

	//xssd:pool retain
	buf        []byte // accumulating batch
	batch      []byte // reusable flush buffer (sinks do not retain it)
	bufStart   int64  // LSN of buf[0]
	durableLSN int64  // everything below is persisted
	oldestWait time.Duration

	// The group-timeout timer: wake (appended.Broadcast, bound once) fires
	// at oldestWait+GroupTimeout, and armedFor is the last deadline a
	// timer was armed for. On the Log, not the flusher, so a flusher
	// restarted by Resume does not re-arm a deadline that is still pending.
	wake     func()
	armedFor time.Duration

	// failover retention (Config.Retain): the flushed stream's bytes in
	// [0, durableLSN), kept so Resume can re-drive the tail a promoted
	// device is missing.
	//xssd:pool retain
	retained []byte

	appended *sim.Signal // record arrived
	flushed  *sim.Signal // durableLSN advanced

	dead bool  // halted; no further flush will ever complete
	err  error // the failed sink write that halted the log (Err)

	// metrics (wal/<sink>/...)
	mRecords     *obs.Counter
	mFlushes     *obs.Counter
	mFlushBytes  *obs.Counter
	mSinkRetries *obs.Counter
	mFlushLat    *obs.Histogram // batch handed to sink -> durable, ns
}

// walRetryBackoff spaces retries of transiently failed sink writes.
const walRetryBackoff = 100 * time.Microsecond

// NewLog starts a group-commit pipeline over sink.
func NewLog(env *sim.Env, sink Sink, cfg Config) *Log {
	if cfg.GroupBytes <= 0 {
		cfg.GroupBytes = DefaultConfig.GroupBytes
	}
	if cfg.GroupTimeout <= 0 {
		cfg.GroupTimeout = DefaultConfig.GroupTimeout
	}
	l := &Log{
		env:      env,
		sink:     sink,
		cfg:      cfg,
		appended: env.NewSignal(),
		flushed:  env.NewSignal(),
	}
	l.wake = l.appended.Broadcast
	sc := obs.For(env).Scope("wal/" + sink.Name())
	l.mRecords = sc.Counter("records")
	l.mFlushes = sc.Counter("flushes")
	l.mFlushBytes = sc.Counter("flush_bytes")
	l.mSinkRetries = sc.Counter("sink_retries")
	l.mFlushLat = sc.Histogram("flush_ns")
	sc.GaugeFunc("backlog", l.Backlog)
	sc.GaugeFunc("durable_lsn", l.DurableLSN)
	env.Go("wal-flusher", l.flusher)
	return l
}

// DurableLSN returns the persisted prefix length of the log stream.
func (l *Log) DurableLSN() int64 { return l.durableLSN }

// Append adds a record to the current batch and returns the LSN just past
// it (the value WaitDurable waits on). It never blocks.
func (l *Log) Append(r Record) int64 {
	if len(l.buf) == 0 {
		l.oldestWait = l.env.Now()
	}
	l.buf = r.Encode(l.buf)
	l.mRecords.Inc()
	end := l.bufStart + int64(len(l.buf))
	l.appended.Broadcast()
	return end
}

// WaitDurable blocks the calling process until the log is durable up to
// lsn.
func (l *Log) WaitDurable(p *sim.Proc, lsn int64) {
	p.WaitFor(l.flushed, func() bool { return l.durableLSN >= lsn })
}

// WaitDurableOrDead blocks until the log is durable up to lsn or the log
// dies (sink lost), whichever comes first, and reports whether lsn made
// it to stable storage. Distributed-commit paths use it so a participant
// whose device lost power answers "not durable" instead of blocking its
// coordinator forever.
func (l *Log) WaitDurableOrDead(p *sim.Proc, lsn int64) bool {
	p.WaitFor(l.flushed, func() bool { return l.durableLSN >= lsn || l.dead })
	return l.durableLSN >= lsn
}

// Backlog returns the number of appended-but-not-yet-durable bytes (the
// fill level of the in-memory log buffer).
func (l *Log) Backlog() int64 { return l.bufStart + int64(len(l.buf)) - l.durableLSN }

// AppendedLSN returns the append frontier: the LSN just past the last
// appended record. A checkpoint captures it as its start LSN — every
// record below it is covered by the checkpoint's page images, every
// record at or above it belongs to the replay tail.
func (l *Log) AppendedLSN() int64 { return l.bufStart + int64(len(l.buf)) }

// TailRecords returns the suffix of rs whose records start at or after
// from — the tail-replay cursor for recovery from a checkpoint. rs must
// be in stream order with LSNs set (DecodeAll's output qualifies);
// records never straddle an append frontier, so the cut is exact.
func TailRecords(rs []Record, from int64) []Record {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].LSN >= from })
	return rs[i:]
}

// WaitBacklog blocks while the backlog exceeds max — the pipelined-commit
// back-pressure: a worker may run ahead of durability only by a bounded
// log-buffer amount (ERMIA-style asynchronous commit).
func (l *Log) WaitBacklog(p *sim.Proc, max int64) {
	p.WaitFor(l.flushed, func() bool { return l.Backlog() <= max })
}

// flusher batches appends and writes them through the sink.
func (l *Log) flusher(p *sim.Proc) {
	for {
		if l.dead {
			// Halted externally (Halt) while parked: exit so the flusher
			// Resume starts is the only one running.
			return
		}
		if len(l.buf) == 0 {
			p.Wait(l.appended)
			continue
		}
		if len(l.buf) < l.cfg.GroupBytes {
			// Not a full group yet: wait for more appends, with a timer so
			// the group timeout still bounds latency on a quiet log. Every
			// append wakes the flusher through here; oldestWait only moves
			// forward, so one timer per distinct deadline is enough.
			if deadline := l.oldestWait + l.cfg.GroupTimeout; p.Now() < deadline {
				if deadline != l.armedFor {
					l.armedFor = deadline
					l.env.At(deadline, l.wake)
				}
				p.Wait(l.appended)
				continue
			}
		}
		// Flush at most one group per sink write (the paper's unit: the
		// system commits 16 KB worth of log records at a time); a backlog
		// drains as a sequence of group-sized writes, queue depth 1.
		n := len(l.buf)
		if n > l.cfg.GroupBytes {
			n = l.cfg.GroupBytes
		}
		// Copy the group into the reusable flush buffer and compact the
		// accumulator in place, so the log stream stops churning through
		// fresh backing arrays (sinks must not retain the batch — see
		// Sink).
		if cap(l.batch) < n {
			l.batch = make([]byte, n)
		}
		batch := l.batch[:n]
		copy(batch, l.buf)
		rem := copy(l.buf, l.buf[n:])
		l.buf = l.buf[:rem]
		if len(l.buf) > 0 {
			l.oldestWait = p.Now()
		}
		start := l.bufStart
		l.bufStart = start + int64(len(batch))
		span := l.mFlushLat.Start()
		for {
			// Fault plan: the wal.sink point fails or delays one flush;
			// a transient failure is retried with backoff.
			if d := fault.CheckEnv(l.env, fault.WALSink, l.sink.Name(), 1); d.Fail() {
				l.mSinkRetries.Inc()
				p.Sleep(walRetryBackoff)
				continue
			} else if d.Act == fault.ActionDelay {
				p.Sleep(d.Dur)
			}
			err := l.sink.Write(p, batch)
			if err == nil {
				break
			}
			// The device is gone (ErrSinkLost, a power loss) or the write
			// failed some other way: acking past it would corrupt the
			// durability horizon. Freeze the horizon where it is and halt;
			// without a failover the unflushed records are lost, exactly
			// like a crashed log. The failed batch is put back at the
			// front of the buffer so Resume can re-drive a byte-exact
			// stream onto a promoted device, and the error is kept for
			// Err.
			restored := make([]byte, 0, len(batch)+len(l.buf))
			restored = append(restored, batch...)
			restored = append(restored, l.buf...)
			l.buf = restored
			l.bufStart = start
			l.dead = true
			l.err = fmt.Errorf("wal: sink %s failed: %w", l.sink.Name(), err)
			l.flushed.Broadcast()
			return
		}
		if l.cfg.Retain {
			l.retained = append(l.retained, batch...)
		}
		l.durableLSN = start + int64(len(batch))
		span.End()
		l.mFlushes.Inc()
		l.mFlushBytes.Add(int64(len(batch)))
		l.flushed.Broadcast()
	}
}

// Stats returns (records appended, flushes, bytes flushed).
func (l *Log) Stats() (records, flushes, bytes int64) {
	return l.mRecords.Value(), l.mFlushes.Value(), l.mFlushBytes.Value()
}

// Dead reports whether the pipeline has halted: its sink was lost (power
// failure) or failed a write (Err says which), or Halt was called.
// DurableLSN is final; WaitDurable past it and WaitBacklog block forever.
func (l *Log) Dead() bool { return l.dead }

// Err returns the failed sink write that halted the log, wrapping the
// sink's error (errors.Is(err, ErrSinkLost) after a power loss). It is
// nil while the log runs, after a Halt, and again after a Resume.
func (l *Log) Err() error { return l.err }

// Halt forces the pipeline into the halted state. A failover manager
// calls this when the sink's device died while the flusher sat idle —
// with no flush in flight, nothing would ever observe ErrSinkLost. Only
// safe with no flush in flight (Backlog() == 0): a mid-flight flush must
// be left to discover the loss itself, or Resume would race it.
func (l *Log) Halt() {
	if l.dead {
		return
	}
	l.dead = true
	l.appended.Broadcast() // wake the parked flusher so it exits
	l.flushed.Broadcast()
}

// Resume restarts a halted pipeline on a fresh sink whose stream frontier
// is fr (a promoted secondary's persisted prefix, see failover). It
// reconciles the log with the frontier before the flusher restarts:
//
//   - fr < DurableLSN: the promoted device is missing a tail the old
//     primary had acked. The retained copy (Config.Retain) of
//     [fr, DurableLSN) is re-driven through the new sink so no committed
//     record is lost. Without retention this is ErrTailUnavailable.
//   - fr > DurableLSN: the promoted device persisted bytes the old
//     primary never acked (lazy schemes cannot produce this; eager/chain
//     can). The buffered prefix up to fr is already durable and is
//     dropped from the accumulator; the durable horizon jumps to fr.
//
// Both directions rely on the stream being append-only and content-fixed:
// the bytes at an offset never change, so replaying or skipping them is
// idempotent. Returns the number of bytes replayed through the new sink.
func (l *Log) Resume(p *sim.Proc, sink Sink, fr int64) (int64, error) {
	if !l.dead {
		return 0, fmt.Errorf("%w: sink %s still active", ErrResumeLive, l.sink.Name())
	}
	var replayed int64
	switch {
	case fr < l.durableLSN:
		if !l.cfg.Retain {
			return 0, fmt.Errorf("%w: need [%d, %d), none retained",
				ErrTailUnavailable, fr, l.durableLSN)
		}
		// Private copy (DESIGN.md §9): the replay loop yields in
		// sink.Write, and l.retained grows by reallocation, so an alias
		// into it must not be held across the yield.
		tail := append([]byte(nil), l.retained[fr:l.durableLSN]...)
		for len(tail) > 0 {
			n := len(tail)
			if n > l.cfg.GroupBytes {
				n = l.cfg.GroupBytes
			}
			if err := sink.Write(p, tail[:n]); err != nil {
				return replayed, fmt.Errorf("wal: resume replay on %s: %w", sink.Name(), err)
			}
			replayed += int64(n)
			tail = tail[n:]
		}
	case fr > l.durableLSN:
		skip := fr - l.durableLSN
		if skip > int64(len(l.buf)) {
			return 0, fmt.Errorf("%w: frontier %d past appended end %d",
				ErrTailUnavailable, fr, l.bufStart+int64(len(l.buf)))
		}
		if l.cfg.Retain {
			l.retained = append(l.retained, l.buf[:skip]...)
		}
		rem := copy(l.buf, l.buf[skip:])
		l.buf = l.buf[:rem]
		l.bufStart = fr
		l.durableLSN = fr
	}
	l.sink = sink
	l.dead = false
	l.err = nil
	if len(l.buf) > 0 {
		l.oldestWait = l.env.Now()
	}
	l.env.Go("wal-flusher", l.flusher)
	l.flushed.Broadcast()
	return replayed, nil
}

// StreamRange returns a copy of the log stream's bytes in [from, to).
// Durable bytes are served from the retained copy (Config.Retain), the
// batch a sink write still holds from the flush buffer, and
// appended-but-unflushed bytes from the accumulator. A failover manager
// uses it to backfill a surviving secondary's missing prefix, and the
// chaos harness reads its oracle stream through it.
func (l *Log) StreamRange(from, to int64) ([]byte, error) {
	end := l.AppendedLSN()
	if from < 0 || to > end || from > to ||
		(from < l.durableLSN && !l.cfg.Retain) {
		return nil, fmt.Errorf("%w: range [%d, %d) outside [0, %d)",
			ErrTailUnavailable, from, to, end)
	}
	out := make([]byte, 0, to-from)
	// Three consecutive pieces: [0, durableLSN) retained, [durableLSN,
	// bufStart) in flight (empty unless a sink write is outstanding), and
	// [bufStart, end) accumulating.
	for _, seg := range [...]struct {
		lo   int64
		data []byte
	}{{0, l.retained}, {l.durableLSN, l.batch[:l.bufStart-l.durableLSN]}, {l.bufStart, l.buf}} {
		if hi := seg.lo + int64(len(seg.data)); from < to && from < hi {
			stop := min(to, hi)
			out = append(out, seg.data[from-seg.lo:stop-seg.lo]...)
			from = stop
		}
	}
	return out, nil
}
