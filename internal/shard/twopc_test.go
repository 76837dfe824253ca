package shard

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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
	cl, err := New(testConfig(2, 0, 11))
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
	views := parseAll(t, cl)
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
	checkCluster(t, cl, 0)
}

// TestParticipantFrozenDuringPrepare freezes shard 1's RPC traffic so
// the prepare exchange cannot complete inside rpcTimeout. The
// coordinator must abort with ErrUnavailable, and the late-arriving
// prepare on the participant must eventually abort through the
// termination protocol — leaving no pins and no state change.
func TestParticipantFrozenDuringPrepare(t *testing.T) {
	cfg := testConfig(2, 0, 13)
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
	checkCluster(t, cl, -1)
}

// TestDuplicatePrepareDelivery delivers the same PREPARE twice — once
// mid-flight (while the first delivery's durability wait is pending) and
// once after the vote is recorded. Both duplicates must see the original
// vote, and exactly one PREPARE record may reach the log.
func TestDuplicatePrepareDelivery(t *testing.T) {
	cl, err := New(testConfig(2, 0, 17))
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
		pt.tx.PutOwnedIn(part.stk.Engine.Table("kv"), balKey(3), encBal(777))
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
	views := parseAll(t, cl)
	if n := len(views[1].Records); countPrepares(views[1]) != 1 {
		t.Fatalf("participant logged %d PREPARE records (of %d records), want exactly 1", countPrepares(views[1]), n)
	}
}

// TestRemoteReadKeyOutlivesTimeout: a remote read whose request outlives
// rpcTimeout still reaches the participant, after GetW has returned
// ErrUnavailable and the caller has rewritten the scratch buffer its key
// was a view of. The read must register the key the caller asked for.
// Shard 1 then commits a write to w3, the row read, or to w4, the row the
// buffer names by the time the request lands, and prepares the late
// participant: it must vote no over w3 and yes over w4. Each shard runs on
// its own member, so under -race the detector sees the post cross members.
func TestRemoteReadKeyOutlivesTimeout(t *testing.T) {
	cases := []struct {
		name  string
		write int // warehouse shard 1 writes before the participant prepares
		vote  bool
	}{
		{"write-to-the-row-read", 3, false},
		{"write-to-what-the-buffer-says-now", 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cl, err := New(testConfig(2, 2, 23))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// The read request, and only it, arrives 10 ms late: past
			// rpcTimeout (4 ms).
			plan := &fault.Plan{Rules: []fault.Rule{{
				Point: fault.ShardRPC + "@p1", Trigger: fault.TriggerProb, Prob: 1,
				Action: fault.ActionDelay, Dur: 10 * time.Millisecond, Times: 1,
			}}}
			for _, env := range cl.Envs() {
				fault.Attach(env, fault.New(env, plan))
			}
			cl.Build()
			var voted, vote bool
			check := func(p *sim.Proc) {
				part := cl.Shard(1)
				for i := 0; len(part.remote) == 0; i++ {
					if i == 1000 {
						t.Error("the late read never reached the participant")
						return
					}
					p.Sleep(100 * time.Microsecond)
				}
				tx := part.BeginIn(new(Tx), p)
				tx.PutW(c.write, part.Engine().Table("kv"), balKey(c.write), encBal(1))
				if err := tx.Commit(p); err != nil {
					t.Errorf("write to w%d: %v", c.write, err)
				}
				for gid := range part.remote {
					part.startPrepare(gid, 0, 0, func(v bool) { voted, vote = true, v })
				}
			}
			read := func(p *sim.Proc) {
				home := cl.Shard(0)
				tx := home.BeginIn(new(Tx), p)
				buf := []byte(balKey(3))
				if _, _, err := tx.GetW(p, 3, home.Engine().Table("kv"), unsafe.String(&buf[0], len(buf))); !errors.Is(err, ErrUnavailable) {
					t.Errorf("remote read past the timeout: err = %v, want ErrUnavailable", err)
				}
				copy(buf, balKey(4))
				tx.Abort()
			}
			cl.Shard(0).Env().Go("test-boot", func(p *sim.Proc) {
				if err := cl.Boot(p); err != nil {
					t.Errorf("Boot: %v", err)
					return
				}
				cl.Shard(1).Env().Go("check", check) // the group is still inline
				cl.Release()
				read(p)
			})
			cl.RunUntil(cl.Now() + 100*time.Millisecond)
			if !voted {
				t.Fatal("the late participant never voted")
			}
			if vote != c.vote {
				t.Errorf("participant that read w3 votes %v after a write to w%d, want %v", vote, c.write, c.vote)
			}
		})
	}
}

// TestRemoteWriteKeyOutlivesScratch: a remote write's op runs on the
// participant after PutW has returned, by when the coordinator has
// rewritten the scratch buffer its key was a view of. The coordinator
// names every row through one buffer — a remote write to w3, then a local
// write to w1 — rewrites it to w4 before and after committing, and the
// cross-shard commit must install w3, not whatever the buffer says when
// the op lands. Each shard runs on its own member, so under -race the
// detector sees the post cross members.
func TestRemoteWriteKeyOutlivesScratch(t *testing.T) {
	cl, err := New(testConfig(2, 2, 29))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	done := false
	boot(t, cl, func(p *sim.Proc) {
		home := cl.Shard(0)
		kv := home.Engine().Table("kv")
		buf := make([]byte, len(balKey(1)))
		name := func(w int) string {
			copy(buf, balKey(w))
			return unsafe.String(&buf[0], len(buf))
		}
		tx := home.BeginIn(new(Tx), p)
		tx.PutW(3, kv, name(3), encBal(777))
		tx.PutW(1, kv, name(1), encBal(223))
		name(4)
		if err := tx.Commit(p); err != nil {
			t.Errorf("commit: %v", err)
		}
		name(4)
		done = true
	})
	for step := 0; !done && step < 100; step++ {
		cl.RunUntil(cl.Now() + 10*time.Millisecond)
	}
	if !done {
		t.Fatal("the transaction did not finish")
	}
	for w, want := range map[int]int64{1: 223, 2: testBalance, 3: 777, 4: testBalance} {
		if got := balance(cl, w); got != want {
			t.Errorf("w%d balance %d, want %d", w, got, want)
		}
	}
}

// TestWantRemoteCostsNoRPC: WantW on a row another shard owns is dropped
// on the spot. Naming it and fetching sends no RPC and makes the shard no
// participant, so the transaction then reads and commits as a local one
// would; the remote read that follows is the one RPC.
func TestWantRemoteCostsNoRPC(t *testing.T) {
	cl, err := New(testConfig(2, 2, 31))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Build()
	done := false
	boot(t, cl, func(p *sim.Proc) {
		home := cl.Shard(0)
		kv := home.Engine().Table("kv")
		out := home.mRPCOut.Value()
		tx := home.BeginIn(new(Tx), p)
		tx.WantW(3, kv, balKey(3))
		tx.WantW(1, kv, balKey(1))
		tx.Fetch()
		if n := home.mRPCOut.Value() - out; n != 0 || len(tx.parts) != 0 || tx.gid != 0 {
			t.Errorf("WantW on a remote row: %d RPCs, %d participants, gid %#x; want none", n, len(tx.parts), tx.gid)
		}
		if _, ok, err := tx.GetW(p, 3, kv, balKey(3)); err != nil || !ok {
			t.Errorf("remote read: ok=%v err=%v", ok, err)
		}
		if n := home.mRPCOut.Value() - out; n != 1 {
			t.Errorf("the remote read sent %d RPCs, want 1", n)
		}
		tx.Abort()
		done = true
	})
	for step := 0; !done && step < 100; step++ {
		cl.RunUntil(cl.Now() + 10*time.Millisecond)
	}
	if !done {
		t.Fatal("the transaction did not finish")
	}
}

func countPrepares(v *View) int {
	cs, _ := db.Controls(v.Records)
	n := 0
	for _, c := range cs {
		if c.Kind == db.KindPrepare {
			n++
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
		cl, err := New(testConfig(2, 0, int64(seed)+1))
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
		checkCluster(t, cl, victim)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
