// The prefix disciplines, stated once. Every configuration the harness
// runs layers a log under other durable state and owes the same three
// facts about it: a replica's ring is a prefix of the stream it mirrors,
// the conventional side is a gap-free prefix of that stream, and a
// database recovered from that prefix is the database the stream
// describes. The runners differ in which devices and which oracle stream
// they hand in, not in what is demanded of them.
package chaos

import (
	"bytes"
	"fmt"
	"time"

	"xssd/internal/db"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// violations collects invariant breaches. prefix locates the messages
// that follow (the sharded runner sets it to "shard 3: " while it walks
// shard 3); every message carries the label of the invariant it breaks.
type violations struct {
	prefix string
	list   []string
}

func (v *violations) add(label, format string, args ...any) {
	v.extend([]string{label + ": " + fmt.Sprintf(format, args...)})
}

// extend takes messages that already carry their label (the I9 checks
// return theirs as a list).
func (v *violations) extend(msgs []string) {
	for _, m := range msgs {
		v.list = append(v.list, v.prefix+m)
	}
}

// checkReplicaPrefix demands that each replica's ring holds a byte-exact
// prefix of the oracle stream, no longer than limit — the frontier of the
// device it mirrors — and, when converged is set (faults have cleared and
// nothing upstream died), exactly that long (§4.2). Callers label it I3
// for a primary's secondaries and I6 for the survivors of a takeover.
func checkReplicaPrefix(v *violations, label string, replicas []*villars.Device, oracle []byte, limit int64, converged bool) {
	for _, d := range replicas {
		ring := d.CMB().Ring()
		head, fr := ring.Head(), ring.Frontier()
		if fr > int64(len(oracle)) {
			v.add(label, "%s frontier %d beyond host stream %d", d.Name(), fr, len(oracle))
			continue
		}
		if fr > limit {
			v.add(label, "%s frontier %d ran ahead of primary %d", d.Name(), fr, limit)
			continue
		}
		if fr > head {
			data, err := ring.Read(head, int(fr-head))
			if err != nil {
				v.add(label, "%s ring read [%d,%d): %v", d.Name(), head, fr, err)
			} else if !bytes.Equal(data, oracle[head:fr]) {
				v.add(label, "%s ring bytes diverge from the stream in [%d,%d)", d.Name(), head, fr)
			}
		}
		if converged && fr != limit {
			v.add(label, "%s did not converge: frontier %d, primary %d", d.Name(), fr, limit)
		}
	}
}

// checkConventionalPrefix demands that d's conventional side holds a
// gap-free prefix of the oracle stream lg acknowledged (§4.1, §4.3): after
// a power loss a drained device covering at least the durable horizon,
// otherwise — the stack has settled — the whole stream, with nothing left
// in the WAL or the ring. It reads the destage ring back through the FTL
// (in virtual time, on d's Env) and returns those bytes only when they are
// a prefix of the oracle, so recovery checks never run on — and re-report
// — a stream already known to be wrong. The error is a harness failure,
// not a breach. Callers label it I1 for a primary (one per shard) and I6
// for a promoted device against the retained stream.
func checkConventionalPrefix(v *violations, label string, d *villars.Device, lg *wal.Log, oracle []byte) ([]byte, error) {
	destaged, total := d.Destage().DestagedStream(), int64(len(oracle))
	if d.PowerLost() {
		if !d.Drained() {
			v.add(label, "%s not drained after power loss", d.Name())
		}
		if durable := lg.DurableLSN(); destaged < durable {
			v.add(label, "%s destaged %d < durable horizon %d", d.Name(), destaged, durable)
		}
	} else {
		if bl := lg.Backlog(); bl != 0 {
			v.add(label, "WAL backlog %d after settle with no crash", bl)
		}
		if destaged != total {
			v.add(label, "%s destaged %d != stream %d with no crash", d.Name(), destaged, total)
		}
		if fr := d.CMB().Ring().Frontier(); fr != total {
			v.add(label, "%s ring frontier %d != stream %d with no crash", d.Name(), fr, total)
		}
	}
	_, slots := d.Destage().LBARing()
	if d.Destage().TailLBA() > slots {
		// The workload outran the destage LBA ring and early slots were
		// recycled; the whole-stream verifier below would read garbage.
		// Scenario parameters are sized to keep this from happening.
		return nil, fmt.Errorf("stream wrapped %s's destage ring (%d slots): shrink the window or workload", d.Name(), slots)
	}
	prefix, err := flashPrefix(d)
	if err != nil {
		v.add(label, "%v", err)
		return nil, nil
	}
	if int64(len(prefix)) != destaged {
		v.add(label, "%s flash prefix %d bytes, destage counter %d", d.Name(), len(prefix), destaged)
	}
	if int64(len(prefix)) > total {
		v.add(label, "%s flash prefix %d beyond host stream %d", d.Name(), len(prefix), total)
		return nil, nil
	}
	if !bytes.Equal(prefix, oracle[:len(prefix)]) {
		v.add(label, "%s flash prefix diverges from the stream (first %d bytes)", d.Name(), len(prefix))
		return nil, nil
	}
	return prefix, nil
}

// flashPrefix reads the destage ring back through the FTL and reassembles
// the stream prefix the conventional side holds, failing on any gap or
// malformed page (the read itself runs in virtual time). The verifier
// process runs on the device's own Env: at SimWorkers >= 1 a promoted
// device lives in its own member, and its NAND timers must dispatch on
// the same event loop the verifier sleeps on. The run is post-mortem
// (single-threaded), so driving one member directly is race-free.
func flashPrefix(d *villars.Device) ([]byte, error) {
	env := d.Env()
	base, count := d.Destage().LBARing()
	var got []byte
	var rerr error
	env.Go("chaos-flash-verify", func(p *sim.Proc) {
		for slot := int64(0); slot < d.Destage().TailLBA(); slot++ {
			page, err := d.FTL().Read(p, base+slot%count)
			if err != nil {
				rerr = fmt.Errorf("flash prefix: read slot %d: %w", slot, err)
				return
			}
			off, n, ok := villars.DecodePageHeader(page)
			if !ok {
				rerr = fmt.Errorf("flash prefix: slot %d is not a destage page", slot)
				return
			}
			if off != int64(len(got)) {
				rerr = fmt.Errorf("flash prefix: slot %d at stream offset %d, want %d (gap)", slot, off, len(got))
				return
			}
			got = append(got, page[villars.PageHeaderLen:villars.PageHeaderLen+n]...)
		}
	})
	env.RunUntil(env.Now() + 50*time.Millisecond)
	return got, rerr
}

// checkRecovery demands that a database recovered from the flash prefix
// is exactly the one a replay of the same length of oracle stream yields,
// and — when liveOK: the host side lost nothing, because nothing crashed
// or because a takeover healed the crash — the live engine's liveFP too.
// Callers label it I2, and I6 after a takeover. It returns the recovered
// engine (nil when recovery failed) for checks only one caller makes.
//
// The oracle engines are built on env, the run's host Env, not a private
// one: db.New registers instruments there, and they are part of the
// metrics snapshot every pinned fingerprint folds in.
func checkRecovery(v *violations, label string, env *sim.Env, load func(*db.Engine), prefix, oracle []byte, liveFP uint64, liveOK bool) *db.Engine {
	recovered := db.New(env, nil)
	load(recovered)
	if err := recovered.Recover(wal.DecodeAll(prefix)); err != nil {
		v.add(label, "recover from flash prefix: %v", err)
		return nil
	}
	replayed := db.New(env, nil)
	load(replayed)
	if err := replayed.Recover(wal.DecodeAll(oracle[:len(prefix)])); err != nil {
		v.add(label, "replay host stream: %v", err)
	}
	if recovered.Fingerprint() != replayed.Fingerprint() {
		v.add(label, "recovered state diverges from host-stream replay")
	}
	if liveOK && recovered.Fingerprint() != liveFP {
		v.add(label, "recovered state != live engine")
	}
	return recovered
}
