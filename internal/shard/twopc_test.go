package shard

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/db"
	"xssd/internal/fault"
	"xssd/internal/sim"
)

// The kill-point tests for the in-doubt windows of the protocol: each
// one arranges a specific failure inside the commit sequence and then
// runs the full post-mortem oracle (I8 + replay equality + conservation)
// over the durable streams.

// TestCoordinatorDiesBeforeDecision kills the coordinator's device in
// the exact window between "all participants voted yes" and the decision
// append — the canonical 2PC in-doubt scenario. The decision never
// becomes durable, so everyone must abort: the participant's pinned
// writes resolve through the termination protocol, and recovery presumes
// abort.
func TestCoordinatorDiesBeforeDecision(t *testing.T) {
	streams := make([][]byte, 2)
	cl, err := New(testConfig(2, 0, 11, streams))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	coord := cl.Shard(0)
	coord.hookBeforeDecision = func() { coord.Device().InjectPowerLoss() }
	var txErr error
	boot(t, cl, func(p *sim.Proc) {
		txErr = transfer(p, cl, 1, 3, 500)
	})
	if !errors.Is(txErr, ErrUnavailable) {
		t.Fatalf("commit after coordinator death: %v, want ErrUnavailable", txErr)
	}
	if got := balance(cl, 3); got != testBalance {
		t.Fatalf("participant balance %d after aborted 2PC, want %d", got, testBalance)
	}
	if gids := coord.AckedGIDs(); len(gids) != 0 {
		t.Fatalf("dead coordinator acked %v", gids)
	}
	if n := len(cl.Shard(1).remote); n != 0 {
		t.Fatalf("%d unresolved participant transactions after drain", n)
	}
	views := parseAll(t, streams)
	if len(views[0].Decisions) != 0 {
		t.Fatal("decision record durable despite power loss before append")
	}
	// The participant's yes-vote is durable, but without a decision it
	// stays in doubt and must not have applied: no COMMITP.
	if len(views[1].Prepares) != 1 {
		t.Fatalf("participant has %d durable PREPAREs, want 1", len(views[1].Prepares))
	}
	if len(views[1].CommitPs) != 0 {
		t.Fatal("participant applied an undecided transaction")
	}
	checkCluster(t, cl, streams, 0)
}

// TestParticipantFrozenDuringPrepare freezes shard 1's RPC traffic so
// the prepare exchange cannot complete inside rpcTimeout. The
// coordinator must abort with ErrUnavailable, and the late-arriving
// prepare on the participant must eventually abort through the
// termination protocol — leaving no pins and no state change.
func TestParticipantFrozenDuringPrepare(t *testing.T) {
	streams := make([][]byte, 2)
	cfg := testConfig(2, 0, 13, streams)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Delay the first few messages touching p1 well past rpcTimeout
	// (4 ms): the prepare request arrives late, its reply later still.
	plan := &fault.Plan{Rules: []fault.Rule{{
		Point: fault.ShardRPC + "@p1", Trigger: fault.TriggerProb, Prob: 1,
		Action: fault.ActionDelay, Dur: 10 * time.Millisecond, Times: 3,
	}}}
	for _, env := range cl.Envs() {
		fault.Attach(env, fault.New(env, plan))
	}
	cl.Build()
	var txErr error
	boot(t, cl, func(p *sim.Proc) {
		txErr = transfer(p, cl, 1, 3, 500)
	})
	if !errors.Is(txErr, ErrUnavailable) {
		t.Fatalf("commit against frozen participant: %v, want ErrUnavailable", txErr)
	}
	if got := balance(cl, 1); got != testBalance {
		t.Fatalf("coordinator balance %d after abort, want %d", got, testBalance)
	}
	if got := balance(cl, 3); got != testBalance {
		t.Fatalf("participant balance %d after abort, want %d", got, testBalance)
	}
	if n := len(cl.Shard(1).remote); n != 0 {
		t.Fatalf("%d unresolved participant transactions after drain", n)
	}
	checkCluster(t, cl, streams, -1)
}

// TestDuplicatePrepareDelivery delivers the same PREPARE twice — once
// mid-flight (while the first delivery's durability wait is pending) and
// once after the vote is recorded. Both duplicates must see the original
// vote, and exactly one PREPARE record may reach the log.
func TestDuplicatePrepareDelivery(t *testing.T) {
	streams := make([][]byte, 2)
	cl, err := New(testConfig(2, 0, 17, streams))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	part := cl.Shard(1)
	var votes []bool
	boot(t, cl, func(p *sim.Proc) {
		// Stage a remote write so the party has something to prepare.
		gid := int64(1)<<48 | 1
		pt := part.partyFor(gid, 0)
		pt.writes = 1
		pt.tx.PutOwnedIn(part.eng.Table("kv"), balKey(3), encBal(777))
		record := func(v bool) { votes = append(votes, v) }
		part.startPrepare(gid, 0, 1, record) // first delivery: spawns the wait
		part.startPrepare(gid, 0, 1, record) // duplicate while in flight
		p.Sleep(5 * time.Millisecond)        // let the prepare land
		part.startPrepare(gid, 0, 1, record) // duplicate after the vote
		p.Sleep(time.Millisecond)
		// Resolve so the oracle sees a clean cluster: record the abort on
		// the coordinator as the termination protocol would find it.
		cl.Shard(0).outcomes[gid] = false
	})
	if len(votes) != 3 {
		t.Fatalf("got %d votes, want 3", len(votes))
	}
	for i, v := range votes {
		if !v {
			t.Fatalf("vote %d = no, want yes", i)
		}
	}
	views := parseAll(t, streams)
	if n := len(views[1].Records); countPrepares(views[1]) != 1 {
		t.Fatalf("participant logged %d PREPARE records (of %d records), want exactly 1", countPrepares(views[1]), n)
	}
}

func countPrepares(v *View) int {
	n := 0
	for _, r := range v.Records {
		if IsControl(r.Payload) {
			if c, err := DecodeControl(r.Payload); err == nil && c.Kind == kindPrepare {
				n++
			}
		}
	}
	return n
}

// TestKillAnywhereProperty is the randomized I8 property: run a busy
// 2-shard transfer mix, kill one device's power at an arbitrary moment,
// and require that the durable streams plus live ack lists satisfy
// atomicity, that recovery replays cleanly, and that committed transfers
// conserve the total balance. testing/quick drives (which shard, when).
func TestKillAnywhereProperty(t *testing.T) {
	prop := func(seed uint16, killShard1 bool, killAtRaw uint16) bool {
		victim := 0
		if killShard1 {
			victim = 1
		}
		killAt := time.Duration(killAtRaw%8000) * time.Microsecond // within the busy window
		streams := make([][]byte, 2)
		cl, err := New(testConfig(2, 0, int64(seed)+1, streams))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.Build()
		boot(t, cl, func(p *sim.Proc) {
			vs := cl.Shard(victim)
			vs.Env().At(vs.Env().Now()+killAt, func() { vs.Device().InjectPowerLoss() })
			for i, s := range cl.Shards() {
				i, s := i, s
				s.Env().Go(fmt.Sprintf("mix-%d", i), func(p *sim.Proc) {
					rng := s.Env().Rand()
					for n := 0; n < 20 && !s.Log().Dead(); n++ {
						src := i*2 + 1 + rng.Intn(2)
						dst := rng.Intn(4) + 1
						if dst == src {
							dst = src%4 + 1
						}
						err := transfer(p, cl, src, dst, int64(rng.Intn(40)+1))
						if err != nil && !errors.Is(err, db.ErrConflict) && !errors.Is(err, ErrUnavailable) {
							t.Errorf("shard %d tx %d: %v", i, n, err)
						}
						p.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					}
				})
			}
		})
		checkCluster(t, cl, streams, victim)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
