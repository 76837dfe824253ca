package obs

import (
	"fmt"
	"sort"

	"xssd/internal/sim"
)

// SnapshotOf snapshots the registry of every member of a group and merges
// them in index order: the metrics export of a multi-env run.
func SnapshotOf(envs []*sim.Env) *Snapshot {
	snaps := make([]*Snapshot, len(envs))
	for i, e := range envs {
		snaps[i] = For(e).Snapshot()
	}
	return Merge(snaps...)
}

// Merge combines per-member snapshots of a sim.Group into one canonical
// snapshot, in member-index order. Each member of a group owns its own
// registry (registries hang off the Env), so a multi-env run's "-metrics"
// export is the merge of every member's snapshot. Series names must be
// disjoint across members; a duplicate would make the merged encoding
// ambiguous, so Merge panics on one. That panic is API misuse, not a
// reachable fault: every name is scoped by what registers it, and
// internal/stack assigns those scopes for every harness — each device's
// series under its own name on its own member, the pager and checkpoint
// series under the primary's name, a replica set under "repl" or its
// shard's scope, the 2PC series under cluster/shard/<i>. Only a caller
// that gives two members devices or scopes of the same name can reach it
// (TestStackSnapshotsMerge builds secondaries and a paged engine). Now is the
// maximum member timestamp. The result's series are re-sorted by name, so
// merged output is byte-stable regardless of which member contributed
// which series.
func Merge(snaps ...*Snapshot) *Snapshot {
	m := &Snapshot{}
	seen := make(map[string]struct{})
	claim := func(kind, name string) {
		key := kind + "\x00" + name
		if _, dup := seen[key]; dup {
			panic(fmt.Sprintf("obs: Merge: duplicate %s %q across group members", kind, name))
		}
		seen[key] = struct{}{}
	}
	for _, s := range snaps {
		if s.Now > m.Now {
			m.Now = s.Now
		}
		for _, c := range s.Counters {
			claim("counter", c.Name)
			m.Counters = append(m.Counters, c)
		}
		for _, g := range s.Gauges {
			claim("gauge", g.Name)
			m.Gauges = append(m.Gauges, g)
		}
		for _, h := range s.Histograms {
			claim("histogram", h.Name)
			m.Histograms = append(m.Histograms, h)
		}
	}
	sort.Slice(m.Counters, func(i, j int) bool { return m.Counters[i].Name < m.Counters[j].Name })
	sort.Slice(m.Gauges, func(i, j int) bool { return m.Gauges[i].Name < m.Gauges[j].Name })
	sort.Slice(m.Histograms, func(i, j int) bool { return m.Histograms[i].Name < m.Histograms[j].Name })
	return m
}
