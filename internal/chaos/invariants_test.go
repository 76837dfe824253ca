package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"xssd/internal/core"
	"xssd/internal/repl"
	"xssd/internal/shard"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// prefixRig is the smallest stack the prefix checks apply to: a primary
// and one eager secondary, a retaining WAL, and a few KB of records pushed
// through it; written is the log's stream.
type prefixRig struct {
	env       *sim.Env
	prim, sec *villars.Device
	lg        *wal.Log
	written   []byte
}

// newPrefixRig commits the records and stops the clock the instant the
// last one is durable: the eager secondary has every byte, and the tail
// that does not fill a flash page is still live in both rings.
func newPrefixRig(t *testing.T) *prefixRig {
	t.Helper()
	rg := &prefixRig{env: sim.NewEnv(5)}
	t.Cleanup(rg.env.Close)
	rg.prim, rg.sec = shard.DefaultDevice(rg.env, PrimaryName), shard.DefaultDevice(rg.env, "s0")
	cluster, err := repl.New(rg.env, []*villars.Device{rg.prim, rg.sec})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	rg.env.Go("rig", func(p *sim.Proc) {
		if err = cluster.Setup(p, 0, core.Eager); err != nil {
			return
		}
		rg.lg = wal.NewLog(rg.env, wal.NewVillarsSink(p, rg.prim, "rig"), oracleWAL)
		for i := 0; i < 24; i++ {
			rg.lg.WaitDurable(p, rg.lg.Append(wal.Record{TxID: int64(i + 1), Payload: bytes.Repeat([]byte{byte(i + 1)}, 200+i)}))
		}
		done = true
	})
	for !done && rg.env.Now() < time.Second {
		rg.env.RunUntil(rg.env.Now() + time.Microsecond)
	}
	if err != nil || !done {
		t.Fatalf("rig bring-up: done=%v err=%v", done, err)
	}
	if rg.written, err = logStream(rg.lg); err != nil {
		t.Fatal(err)
	}
	return rg
}

// settle lets destage and catch-up finish on both devices.
func (rg *prefixRig) settle() { rg.env.RunUntil(rg.env.Now() + 20*time.Millisecond) }

func (rg *prefixRig) replica(oracle []byte, limit int64, converged bool) []string {
	v := &violations{}
	checkReplicaPrefix(v, "I3", []*villars.Device{rg.sec}, oracle, limit, converged)
	return v.list
}

func (rg *prefixRig) conventional(t *testing.T, oracle []byte) ([]byte, []string) {
	t.Helper()
	v := &violations{}
	prefix, err := checkConventionalPrefix(v, "I1", rg.prim, rg.lg, oracle)
	if err != nil {
		t.Fatalf("checkConventionalPrefix: %v", err)
	}
	return prefix, v.list
}

// wantOne demands exactly the breach the case planted.
func wantOne(t *testing.T, what string, got []string, substr string) {
	t.Helper()
	if len(got) == 0 {
		t.Errorf("%s: the check stayed silent, want a violation naming %q", what, substr)
		return
	}
	for _, m := range got {
		if !strings.Contains(m, substr) {
			t.Errorf("%s: violation %q does not name %q", what, m, substr)
		}
	}
}

func flipped(stream []byte, at int64) []byte {
	out := append([]byte(nil), stream...)
	out[at] ^= 0x40
	return out
}

// TestReplicaPrefixCheckCanSayNo: the I3 oracle passes the true stream
// and fires on each way a replica can fail to be a prefix of it.
func TestReplicaPrefixCheckCanSayNo(t *testing.T) {
	rg := newPrefixRig(t)
	ring := rg.sec.CMB().Ring()
	head, fr := ring.Head(), ring.Frontier()
	if fr != int64(len(rg.written)) || head >= fr {
		t.Fatalf("rig: secondary ring [%d,%d) of a %d-byte stream — no live bytes to compare", head, fr, len(rg.written))
	}
	if got := rg.replica(rg.written, fr, true); len(got) != 0 {
		t.Errorf("true stream: %v", got)
	}
	wantOne(t, "flipped live byte", rg.replica(flipped(rg.written, fr-1), fr, true), "diverge")
	wantOne(t, "oracle truncated below the frontier", rg.replica(rg.written[:fr-1], fr, false), "beyond host stream")
	wantOne(t, "limit behind the frontier", rg.replica(rg.written, fr-1, false), "ran ahead")
	wantOne(t, "converged with the limit one byte ahead", rg.replica(append(rg.written[:fr:fr], 0), fr+1, true), "did not converge")
	if got := rg.replica(append(rg.written[:fr:fr], 0), fr+1, false); len(got) != 0 {
		t.Errorf("a lagging replica is a prefix while faults may still be clearing: %v", got)
	}
	// A replica that lost power stopped where its crash left it: it is held
	// to the prefix, not to convergence.
	rg.sec.InjectPowerLoss()
	if got := rg.replica(append(rg.written[:fr:fr], 0), fr+1, true); len(got) != 0 {
		t.Errorf("a dead replica short of the primary: %v", got)
	}
	wantOne(t, "dead replica, flipped live byte", rg.replica(flipped(rg.written, fr-1), fr, true), "diverge")
}

// TestConventionalPrefixCheckCanSayNo: the I1 oracle returns the flash
// prefix for the true stream, and fires — returning no prefix for the
// recovery checks to trip over again — when the flash is not a prefix.
func TestConventionalPrefixCheckCanSayNo(t *testing.T) {
	rg := newPrefixRig(t)
	rg.settle()
	prefix, got := rg.conventional(t, rg.written)
	if len(got) != 0 || !bytes.Equal(prefix, rg.written) {
		t.Fatalf("true stream: prefix %d of %d bytes, violations %v", len(prefix), len(rg.written), got)
	}
	prefix, got = rg.conventional(t, flipped(rg.written, 100))
	wantOne(t, "flipped byte", got, "diverge")
	if prefix != nil {
		t.Errorf("flipped byte: a diverging flash image was handed on as a prefix")
	}
	short := rg.written[:len(rg.written)-1]
	prefix, got = rg.conventional(t, short)
	if prefix != nil {
		t.Errorf("truncated oracle: an over-long flash image was handed on as a prefix")
	}
	found := false
	for _, m := range got {
		found = found || strings.Contains(m, "beyond host stream")
	}
	if !found {
		t.Errorf("truncated oracle: no violation names \"beyond host stream\": %v", got)
	}
}

// TestViolationsCarryTheirLocation: every message a located collector
// takes — formatted here or handed over already labelled — gets the
// prefix, so a sharded breach always says which shard.
func TestViolationsCarryTheirLocation(t *testing.T) {
	rg := newPrefixRig(t)
	v := &violations{prefix: "shard 3: "}
	fr := rg.sec.CMB().Ring().Frontier()
	checkReplicaPrefix(v, "I3", []*villars.Device{rg.sec}, flipped(rg.written, fr-1), fr+1, true)
	v.extend([]string{"I9: handed over"})
	if len(v.list) != 3 {
		t.Fatalf("want the diverge, the non-convergence and the handed-over message, got %v", v.list)
	}
	for _, m := range v.list {
		if !strings.HasPrefix(m, "shard 3: I") {
			t.Errorf("message %q lacks the location prefix", m)
		}
	}
}
