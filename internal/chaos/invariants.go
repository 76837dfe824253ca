// The prefix disciplines, stated once. Every configuration the harness
// runs layers a log under other durable state and owes the same three
// facts about it: a replica's ring is a prefix of the stream it mirrors,
// the conventional side is a gap-free prefix of that stream, and a
// database recovered from that prefix is the database the stream
// describes. Every stack's oracle is its own log's stream: everything the
// host appended, retained by the log (wal.Config.Retain). finish calls
// them on every stack of a run, whichever runner built it.
package chaos

import (
	"bytes"
	"fmt"

	"xssd/internal/db"
	"xssd/internal/shard"
	"xssd/internal/sim"
	"xssd/internal/stack"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// violations collects invariant breaches. prefix locates the messages
// that follow ("shard 3: " while a check walks shard 3 of a cluster);
// every message carries the label of the invariant it breaks.
type violations struct {
	prefix string
	list   []string
}

// locate points the messages that follow at stack i of n: a cluster's
// shard, or nowhere for a lone stack.
func (v *violations) locate(i, n int) {
	v.prefix = ""
	if n > 1 {
		v.prefix = fmt.Sprintf("shard %d: ", i)
	}
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
// nothing upstream died), exactly that long (§4.2); and that a live
// replica's flash holds a gap-free prefix of the stream, read back as I1
// reads the primary's (checkFlash). A replica that lost power is held to
// its ring's prefix only: it stopped where its crash left it. Callers
// label it I3 for a primary's secondaries and I6 for the survivors of a
// takeover. The error is a harness failure, not a breach.
func checkReplicaPrefix(v *violations, label string, replicas []*villars.Device, oracle []byte, limit int64, converged bool) error {
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
		if d.PowerLost() {
			continue
		}
		if converged && fr != limit {
			v.add(label, "%s did not converge: frontier %d, primary %d", d.Name(), fr, limit)
		}
		if _, err := checkFlash(v, label, d, oracle); err != nil {
			return err
		}
	}
	return nil
}

// checkConventionalPrefix demands that d's conventional side holds a
// gap-free prefix of lg's stream, the oracle (§4.1, §4.3): after a power
// loss a drained device covering at least the durable horizon, otherwise —
// the stack has settled — the whole stream, with nothing left in the WAL
// or the ring. It returns the flash prefix (checkFlash), so recovery
// checks never run on — and re-report — a stream already known to be
// wrong. The error is a harness failure, not a breach. Callers label it
// I1 for a primary (one per shard) and I6 for a promoted device.
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
	return checkFlash(v, label, d, oracle)
}

// checkFlash reads d's destage ring back (stack.FlashPrefix) and demands
// a gap-free prefix of the oracle as long as d's destage counter. It
// returns those bytes only when they are a prefix of the oracle. The error
// is a harness failure: the stream wrapped d's destage ring.
func checkFlash(v *violations, label string, d *villars.Device, oracle []byte) ([]byte, error) {
	_, slots := d.Destage().LBARing()
	if d.Destage().TailLBA() > slots {
		// The workload outran the destage LBA ring and early slots were
		// recycled; the whole-stream verifier below would read garbage.
		// Scenario parameters are sized to keep this from happening.
		return nil, fmt.Errorf("stream wrapped %s's destage ring (%d slots): shrink the window or workload", d.Name(), slots)
	}
	prefix, err := stack.FlashPrefix(d)
	if err != nil {
		v.add(label, "%v", err)
		return nil, nil
	}
	if destaged := d.Destage().DestagedStream(); int64(len(prefix)) != destaged {
		v.add(label, "%s flash prefix %d bytes, destage counter %d", d.Name(), len(prefix), destaged)
	}
	if len(prefix) > len(oracle) {
		v.add(label, "%s flash prefix %d beyond host stream %d", d.Name(), len(prefix), len(oracle))
		return nil, nil
	}
	if !bytes.Equal(prefix, oracle[:len(prefix)]) {
		v.add(label, "%s flash prefix diverges from the stream (first %d bytes)", d.Name(), len(prefix))
		return nil, nil
	}
	return prefix, nil
}

// checkRecovery is I2 (I6 after a takeover) over a run's streams, one per
// stack; a lone stack is a cluster of one. It demands that the databases
// recovered from the flash prefixes are exactly the ones a replay of the
// same length of each oracle stream yields, with the coordinators' durable
// decisions resolving in-doubt prepares (shard.Replay); that no
// cross-shard transaction is half-applied (I8: shard.CheckAtomicity, with
// acked[i] the gids shard i acknowledged); and, when live is non-nil, that
// they equal the live engines' fingerprints. A nil prefix — its stream
// already failed I1 — skips the check. It returns the recovered engines,
// none when recovery failed, for the takeover's own check. The oracle
// engines run on a private Env: they register no instruments and spend no
// virtual time.
func checkRecovery(v *violations, label string, prefixes, oracles [][]byte, acked [][]int64, load func(*db.Engine, int), live []uint64) []*db.Engine {
	n := len(prefixes)
	defer func() { v.prefix = "" }()
	views, replayed := make([]*shard.View, n), make([]*shard.View, n)
	for i := range prefixes {
		v.locate(i, n)
		if prefixes[i] == nil {
			return nil
		}
		var err error
		if views[i], err = shard.ParseStream(i, prefixes[i]); err != nil {
			v.add(label, "parse flash prefix: %v", err)
			return nil
		}
		if replayed[i], err = shard.ParseStream(i, oracles[i][:len(prefixes[i])]); err != nil {
			v.add(label, "parse host stream: %v", err)
			return nil
		}
	}
	v.prefix = ""
	v.extend(shard.CheckAtomicity(views, acked))
	env := sim.NewEnv(1)
	recovered, err := shard.Replay(env, views, load)
	if err != nil {
		v.add(label, "recover from flash prefix: %v", err)
		return nil
	}
	oracle, err := shard.Replay(env, replayed, load)
	if err != nil {
		v.add(label, "replay host stream: %v", err)
		return recovered
	}
	for i, eng := range recovered {
		v.locate(i, n)
		if eng.Fingerprint() != oracle[i].Fingerprint() {
			v.add(label, "recovered state diverges from host-stream replay")
		}
		if live != nil && eng.Fingerprint() != live[i] {
			v.add(label, "recovered state != live engine")
		}
	}
	return recovered
}
