// Cross-shard RPC: the cluster's only inter-member channel. Every
// message rides Env.PostTo — the group mailbox, merged at quantum
// barriers in (time, sender, seq) order — so delivery order is a pure
// function of the simulation and never of worker interleaving. Every
// shard is a member of its own, so every message crosses members.
//
// Fault surface: every message checks the fault.ShardRPC point.
// Requests check on the sender's injector, replies on the replier's —
// both scoped to the *remote* end's shard name for requests and the
// replier's own name for replies, so one "shard.rpc@p1" rule disturbs
// shard 1's traffic in both directions. Drop and fail lose the message
// (the caller times out); delay and freeze add their duration to the
// wire latency.
package shard

import (
	"time"

	"xssd/internal/fault"
	"xssd/internal/sim"
)

// The RPC wire. rpcLatency is the one-way latency of a cross-shard
// message: two group quanta, so posts are never clamped in practice.
// rpcTimeout bounds every blocking cross-shard wait (prepare votes,
// decision acks, remote reads); a peer that answers slower is treated as
// unavailable and the transaction aborts — the presumed-abort side of the
// protocol.
const (
	rpcLatency = 2 * time.Microsecond
	rpcTimeout = 4 * time.Millisecond
)

// rpc runs handler on dst's Env and blocks until the reply lands back on
// s's Env or rpcTimeout passes, reporting whether the reply arrived.
// handler executes at delivery time in dst's event context; it must
// invoke its reply closure exactly once — immediately, or later from a
// process it spawned on dst's Env when the work blocks (prepare's
// durability wait). The mutation passed to reply runs on s's Env right
// before the caller wakes, which is the only legal way to move reply
// data across members.
//
//xssd:conduit request and reply both travel by PostTo and run in the receiving member's own Env
func (s *Shard) rpc(p *sim.Proc, dst *Shard, handler func(dst *Shard, reply func(mut func()))) bool {
	s.mRPCOut.Inc()
	sig := s.env.NewSignal()
	done := false
	reply := func(mut func()) {
		// Runs on dst's Env. The reply leg draws its fault decision from
		// dst's injector: a frozen participant cannot answer promptly.
		d := fault.CheckEnv(dst.env, fault.ShardRPC, dst.name, 1)
		if d.Fail() || d.Drop() {
			return
		}
		dst.env.PostTo(s.env, dst.env.Now()+rpcLatency+d.Dur, func() {
			if mut != nil {
				mut()
			}
			done = true
			sig.Broadcast()
		})
	}
	d := fault.CheckEnv(s.env, fault.ShardRPC, dst.name, 1)
	if !d.Fail() && !d.Drop() {
		s.env.PostTo(dst.env, s.env.Now()+rpcLatency+d.Dur, func() {
			dst.mRPCIn.Inc()
			handler(dst, reply)
		})
	}
	deadline := p.Now() + rpcTimeout
	s.env.At(deadline, sig.Broadcast)
	p.WaitFor(sig, func() bool { return done || p.Now() >= deadline })
	return done
}

// post sends a one-way message: fn runs on dst's Env after the wire
// latency, or never (dropped by a fault rule). Used for buffered remote
// writes and abort notices — losses are caught by the prepare op-count
// check or are harmless (abort is the presumed outcome anyway).
//
//xssd:conduit one-way PostTo: fn runs in dst's own Env after the wire latency
func (s *Shard) post(dst *Shard, fn func(dst *Shard)) {
	s.mRPCOut.Inc()
	d := fault.CheckEnv(s.env, fault.ShardRPC, dst.name, 1)
	if d.Fail() || d.Drop() {
		return
	}
	s.env.PostTo(dst.env, s.env.Now()+rpcLatency+d.Dur, func() {
		dst.mRPCIn.Inc()
		fn(dst)
	})
}
