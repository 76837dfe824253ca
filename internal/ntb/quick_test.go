package ntb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/fault"
	"xssd/internal/sim"
)

// Property (the barrier merge-order contract, exercised through real
// bridges): a ring of 2-8 group members exchanging NTB traffic at random
// virtual times — under a random fault plan that drops and delays TLP
// chunks on the fabric — produces a bit-identical delivery history at
// every worker count. The history records, per receiver in member order,
// every MemWrite's (virtual time, offset, payload), so both the merge
// order and the payload bytes are pinned.

const (
	quickWindow  = 300 * time.Microsecond
	quickPayload = 48 // small enough to stay one TLP chunk
)

// captureTarget logs every posted write it receives, stamped with the
// receiving Env's virtual time. Each member owns its target's log — a
// shared accumulator would itself be a cross-env race during a quantum —
// and the runner folds the logs in member-index order afterwards.
type captureTarget struct {
	env *sim.Env
	log []byte
}

func (t *captureTarget) MemWrite(off int64, data []byte) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(t.env.Now()))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(off))
	t.log = append(t.log, hdr[:]...)
	t.log = append(t.log, data...)
}

func (t *captureTarget) MemRead(off int64, dst []byte) { clear(dst) }

// quickPlan derives a fabric fault plan from a seed: probabilistic drops
// and delays on ntb.deliver, the only point this property exercises.
func quickPlan(seed int64) *fault.Plan {
	rng := rand.New(rand.NewSource(seed))
	return &fault.Plan{Rules: []fault.Rule{
		{Point: fault.NTBDeliver, Trigger: fault.TriggerProb, Prob: 0.05 + 0.15*rng.Float64(), Action: fault.ActionDrop},
		{Point: fault.NTBDeliver, Trigger: fault.TriggerProb, Prob: 0.05 + 0.15*rng.Float64(), Action: fault.ActionDelay,
			Dur: time.Duration(1+rng.Intn(5)) * time.Microsecond},
	}}
}

// newRingGroup makes a k-member group whose members each carry an injector
// for seed's fabric fault plan.
func newRingGroup(seed int64, k, workers int) (*sim.Group, []*sim.Env) {
	g := sim.NewGroup(sim.GroupConfig{Workers: workers})
	plan := quickPlan(seed)
	envs := make([]*sim.Env, k)
	for i := range envs {
		envs[i] = g.NewEnv(fmt.Sprintf("m%d", i), seed+int64(i)*7919)
		fault.Attach(envs[i], fault.New(envs[i], plan))
	}
	return g, envs
}

// runRing builds a k-member ring (member i bridges to member (i+1)%k),
// spawns one sender per member issuing msgs writes at random times drawn
// from its own member rng, runs the window, and returns an FNV-1a digest
// of every member's delivery history in member order.
func runRing(seed int64, k, msgs, workers int) uint64 {
	g, envs := newRingGroup(seed, k, workers)
	defer g.Close()
	var targets []*captureTarget
	for _, e := range envs {
		targets = append(targets, &captureTarget{env: e})
	}
	for i := 0; i < k; i++ {
		src, dst := envs[i], envs[(i+1)%k]
		w := NewDefaultBridgeTo(src, dst, fmt.Sprintf("m%d-m%d", i, (i+1)%k)).
			NewWindow(targets[(i+1)%k], 0)
		i := i
		src.Go("sender", func(p *sim.Proc) {
			buf := make([]byte, quickPayload)
			for m := 0; m < msgs; m++ {
				p.Sleep(time.Duration(1+src.Rand().Intn(int(quickWindow/time.Microsecond/2))) * time.Microsecond / 4)
				binary.LittleEndian.PutUint64(buf, uint64(i)<<32|uint64(m))
				w.Write(int64(m)*quickPayload, buf)
			}
		})
	}
	g.RunUntil(quickWindow)
	for _, e := range envs {
		fault.Detach(e)
	}
	// Fold the per-member delivery histories in member-index order: a
	// worker-count-dependent delivery order or timestamp at any member
	// changes the digest.
	h := fnv.New64a()
	for _, tg := range targets {
		h.Write(tg.log)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], uint64(g.Events()))
	h.Write(tail[:])
	return h.Sum64()
}

// quickConfig sizes a property by -quickchecks (default 100) times scale, or
// times short under -short, so the soak can raise the count from outside.
func quickConfig(scale, short float64, seed int64) *quick.Config {
	if testing.Short() {
		scale = short
	}
	return &quick.Config{MaxCountScale: scale, Rand: rand.New(rand.NewSource(seed))}
}

// TestQuickRingDeliveryWorkerInvariant is the property test: for random
// (seed, member count, message count), the delivery digest is identical
// across workers 1, 2, and 8.
func TestQuickRingDeliveryWorkerInvariant(t *testing.T) {
	trials := 0
	prop := func(seed int64, envRaw, msgRaw uint8) bool {
		k := 2 + int(envRaw)%7    // 2..8 members
		msgs := 3 + int(msgRaw)%6 // 3..8 messages per sender
		trials++
		d1 := runRing(seed, k, msgs, 1)
		d2 := runRing(seed, k, msgs, 2)
		d8 := runRing(seed, k, msgs, 8)
		if d1 != d2 || d1 != d8 {
			t.Logf("seed=%d k=%d msgs=%d digests: w1=%016x w2=%016x w8=%016x", seed, k, msgs, d1, d2, d8)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(0.25, 0.08, 1337)); err != nil {
		t.Fatalf("delivery order depends on worker count: %v", err)
	}
	if trials == 0 {
		t.Fatal("property never ran")
	}
}

// TestQuickRingDeliveryReRunStable pins the complement: the digest is also
// stable across re-runs of the same configuration (same workers), so the
// worker-invariance above cannot pass vacuously through an unstable hash.
func TestQuickRingDeliveryReRunStable(t *testing.T) {
	a := runRing(42, 5, 6, 2)
	b := runRing(42, 5, 6, 2)
	if a != b {
		t.Fatalf("same configuration diverged across re-runs: %016x vs %016x", a, b)
	}
	c := runRing(43, 5, 6, 2)
	if c == a {
		t.Fatalf("different seeds produced identical digest %016x (suspicious)", a)
	}
}

// The dense variant (the slot rule's contract): every sender fires bursts
// of 1-200 back-to-back chunks, so up to hundreds of slots are out at once
// and a burst outlasts several quanta — the next burst takes slots while
// the last one's chunks are still landing next door. Each chunk carries (sender,
// sequence, filler derived from both, checksum) and goes to the offset its
// sequence names, so the receiver can tell on arrival, from the chunk
// alone, whether it is byte for byte what the sender wrote and whether it
// has seen it before: a slot rewritten before its delivery shows up as one
// chunk landing twice and another never.

const denseWindow = 400 * time.Microsecond

// denseChunk fills buf with sender's seq-th chunk.
func denseChunk(buf []byte, sender, seq int) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(sender))
	binary.LittleEndian.PutUint32(buf[4:], uint32(seq))
	x := uint64(sender)<<32 | uint64(seq)
	for i := 8; i < quickPayload-8; i += 8 {
		x = x*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	h := fnv.New64a()
	h.Write(buf[:quickPayload-8])
	binary.LittleEndian.PutUint64(buf[quickPayload-8:], h.Sum64())
}

// chunkSum is the order-free digest both ends fold a chunk into.
func chunkSum(off int64, data []byte) uint64 {
	h := fnv.New64a()
	var o [8]byte
	binary.LittleEndian.PutUint64(o[:], uint64(off))
	h.Write(o[:])
	h.Write(data)
	return h.Sum64()
}

// verifyTarget checks every chunk on arrival against what its sender must
// have written, and keeps the timed history captureTarget keeps.
type verifyTarget struct {
	captureTarget
	from int // the one member bridged to this target
	seen map[int]bool
	sum  uint64 // order-free digest of what arrived
	bad  []string
}

func (t *verifyTarget) MemWrite(off int64, data []byte) {
	t.captureTarget.MemWrite(off, data)
	t.sum += chunkSum(off, data)
	var want [quickPayload]byte
	seq := int(off / quickPayload)
	denseChunk(want[:], t.from, seq)
	switch {
	case !bytes.Equal(data, want[:]):
		t.bad = append(t.bad, fmt.Sprintf("at %v offset %d: chunk is not m%d's #%d as written", t.env.Now(), off, t.from, seq))
	case t.seen[seq]:
		t.bad = append(t.bad, fmt.Sprintf("at %v: m%d's #%d landed twice", t.env.Now(), t.from, seq))
	}
	t.seen[seq] = true
}

// denseResult is one dense run: the timed delivery history's digest, what
// the senders put on the fabric and what arrived (order-free sums and
// counts), every on-arrival complaint, and how many slots the busiest
// bridge needed.
type denseResult struct {
	history   uint64
	sent, got uint64
	nSent     int
	nGot      int
	bad       []string
	slots     int
}

// runDenseRing is runRing with bursts: member i fires bursts bursts of
// 1-200 chunks at member (i+1)%k, a random gap apart, under the same
// drop/delay plan. A sender knows which of its chunks the plan dropped (the
// bridge's counter moves inside Write), so it folds exactly the chunks that
// are on their way; the window is long enough for every one of them, the
// delayed included, to land.
func runDenseRing(seed int64, k, bursts, workers int) denseResult {
	g, envs := newRingGroup(seed, k, workers)
	defer g.Close()
	targets := make([]*verifyTarget, k)
	bridges := make([]*Bridge, k)
	for i := 0; i < k; i++ {
		targets[(i+1)%k] = &verifyTarget{captureTarget: captureTarget{env: envs[(i+1)%k]}, from: i, seen: map[int]bool{}}
	}
	sent := make([]uint64, k) // per sender: only its own process writes it
	nSent := make([]int, k)
	for i := 0; i < k; i++ {
		i, src := i, envs[i]
		br := NewDefaultBridgeTo(src, envs[(i+1)%k], fmt.Sprintf("m%d-m%d", i, (i+1)%k))
		bridges[i] = br
		w := br.NewWindow(targets[(i+1)%k], 0)
		src.Go("sender", func(p *sim.Proc) {
			buf := make([]byte, quickPayload)
			seq := 0
			for b := 0; b < bursts; b++ {
				p.Sleep(time.Duration(src.Rand().Intn(5000)) * time.Nanosecond)
				for n := 1 + src.Rand().Intn(200); n > 0; n-- {
					denseChunk(buf, i, seq)
					off := int64(seq) * quickPayload
					dropped := br.mDropped.Value()
					w.Write(off, buf)
					if br.mDropped.Value() == dropped {
						sent[i] += chunkSum(off, buf)
						nSent[i]++
					}
					seq++
				}
			}
		})
	}
	g.RunUntil(denseWindow)
	var res denseResult
	h := fnv.New64a()
	for i, tg := range targets {
		h.Write(tg.log)
		res.got += tg.sum
		res.nGot += len(tg.seen)
		res.bad = append(res.bad, tg.bad...)
		res.sent += sent[i]
		res.nSent += nSent[i]
		res.slots = max(res.slots, len(bridges[i].slots))
	}
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], uint64(g.Events()))
	h.Write(tail[:])
	res.history = h.Sum64()
	return res
}

// TestQuickDenseRingSlotsCarryWhatWasSent is the dense property: at every
// worker count each chunk arrives once, byte for byte as its sender wrote
// it; what arrived is what was sent; and the timed history is the same at
// workers 1, 2 and 8.
func TestQuickDenseRingSlotsCarryWhatWasSent(t *testing.T) {
	trials, slots, chunks := 0, 0, 0
	prop := func(seed int64, envRaw, burstRaw uint8) bool {
		k := 2 + int(envRaw)%4        // 2..5 members
		bursts := 2 + int(burstRaw)%4 // 2..5 bursts per sender
		trials++
		var first denseResult
		for _, workers := range []int{1, 2, 8} {
			r := runDenseRing(seed, k, bursts, workers)
			for _, b := range r.bad {
				t.Logf("seed=%d k=%d bursts=%d workers=%d: %s", seed, k, bursts, workers, b)
			}
			if len(r.bad) > 0 {
				return false
			}
			if r.nGot != r.nSent || r.got != r.sent {
				t.Logf("seed=%d k=%d bursts=%d workers=%d: %d chunks sent (sum %016x), %d arrived (sum %016x)",
					seed, k, bursts, workers, r.nSent, r.sent, r.nGot, r.got)
				return false
			}
			if workers == 1 {
				first = r
			} else if r.history != first.history || r.slots != first.slots {
				t.Logf("seed=%d k=%d bursts=%d: workers 1 history %016x / %d slots, workers %d %016x / %d",
					seed, k, bursts, first.history, first.slots, workers, r.history, r.slots)
				return false
			}
		}
		slots = max(slots, first.slots)
		chunks += first.nGot
		return true
	}
	if err := quick.Check(prop, quickConfig(0.12, 0.04, 2323)); err != nil {
		t.Fatalf("a chunk did not cross as written: %v", err)
	}
	if trials == 0 || chunks == 0 {
		t.Fatal("property never ran")
	}
	// The point of the variant: the rule was exercised with many slots out.
	if slots < 24 {
		t.Fatalf("densest bridge held %d slots; the bursts are not dense", slots)
	}
	t.Logf("%d trials, %d chunks verified on arrival, densest bridge %d slots", trials, chunks, slots)
}
