// Failover chaos: the Scenario.KillAt axis. The primary dies mid-workload,
// a failover.Manager promotes a survivor, and on top of the prefix
// disciplines (checked on the survivors, against the log's stream) the
// run must show:
//
//	I6  exactly one clean takeover, and every transaction committed before
//	    the kill readable after it — the promoted device's flash holds a
//	    gap-free prefix of the (single, duplicate-free) log stream covering
//	    the old durable horizon, and recovering from it reproduces the live
//	    engine;
//	I7  the entire failover timeline — detection, election, truncation,
//	    backfill, resume — replays bit for bit on a re-run.
package chaos

import (
	"math/rand"
	"time"

	"xssd/internal/db"
	"xssd/internal/failover"
	"xssd/internal/fault"
	"xssd/internal/repl"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// DefaultFailoverScenario derives a randomized kill scenario from a seed:
// cluster shape, scheme, kill time, and a background fault plan (without
// extra power rules — exactly one device dies, the primary) all follow
// from the seed.
func DefaultFailoverScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	// 20 ms, not the 30 ms default: the pinned failover folds are digests
	// of 20 ms runs, and a kill, a takeover and post-promotion traffic fit.
	s := Scenario{Seed: seed, Secondaries: 1 + rng.Intn(3), Window: 20 * time.Millisecond}.withDefaults()
	s.Scheme = randomScheme(rng)
	// Kill inside the window's middle half: boot is long done, and the
	// takeover plus post-promotion traffic still fit before the window ends.
	s.KillAt = s.Window/4 + time.Duration(rng.Int63n(int64(s.Window/2)))
	s.Plan = fault.RandomPlan(rng, s.Window, true, "")
	return s
}

// checkTakeover checks the promotion half of I6 — one clean takeover that
// lost none of the durable horizon — and fills r's takeover fields. It
// returns the promoted device, nil when no survivor took over (reported
// here), leaving nothing for the prefix checks to inspect.
func checkTakeover(v *violations, r *Result, fo *failover.Manager, cluster *repl.Cluster, lg *wal.Log, dead *villars.Device) *villars.Device {
	takeovers := fo.Takeovers()
	if err := fo.Err(); err != nil {
		v.add("I6", "manager halted: %v", err)
	}
	if len(takeovers) != 1 {
		v.add("I6", "%d takeovers, want 1", len(takeovers))
	}
	if lg.Dead() {
		v.add("I6", "log pipeline still dead after takeover")
	}
	promoted := cluster.Primary()
	if promoted == dead {
		v.add("I6", "dead device still primary")
	}
	if len(takeovers) == 1 {
		tk := takeovers[0]
		r.Promoted, r.ResumeAt = tk.Promoted, tk.ResumeAt
		r.Replayed, r.Backfilled = tk.Replayed, tk.Backfilled
		r.DetectToLive = tk.PromotedAt - tk.DetectedAt
		if promoted != nil && promoted.Name() != tk.Promoted {
			v.add("I6", "primary %s != promoted %s", promoted.Name(), tk.Promoted)
		}
		if tk.ResumeAt+tk.Replayed < r.DurableAtKill {
			v.add("I6", "resume %d + replay %d below durable-at-kill %d", tk.ResumeAt, tk.Replayed, r.DurableAtKill)
		}
	}

	if r.Durable < r.DurableAtKill {
		v.add("I6", "durable horizon moved backwards: %d after kill at %d", r.Durable, r.DurableAtKill)
	}
	if promoted == nil || promoted == dead {
		return nil
	}
	return promoted
}

// checkCommittedSurvive is I6's claim about the recovered stream itself:
// no transaction appears twice (the tail replay and the backfill must not
// re-drive what a survivor already held), and the database recovered from
// the promoted flash (checkRecovery's one engine; none when recovery
// failed) holds at least every commit acknowledged before the kill.
func checkCommittedSurvive(v *violations, r *Result, recovered []*db.Engine, records []wal.Record) {
	seen := make(map[int64]bool, len(records))
	for _, rec := range records {
		if seen[rec.TxID] {
			v.add("I6", "txn %d appears twice in the recovered stream", rec.TxID)
			break
		}
		seen[rec.TxID] = true
	}
	if len(recovered) == 0 {
		return
	}
	if c, _ := recovered[0].Stats(); c < r.PreKillCommits {
		v.add("I6", "recovered %d commits < %d committed before the kill", c, r.PreKillCommits)
	}
}
