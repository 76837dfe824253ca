package nvme

import (
	"reflect"
	"testing"

	"xssd/internal/sim"
)

// TestQueueReuseKeepsOrder drives an SQ and a CQ through drain-and-refill
// cycles of varying depth, and through a stretch where neither ever
// drains: entries leave in the order they came, Len tracks the depth, the
// CQ stamps each completion with its post number, and the backing arrays
// stop growing once they cover the deepest the queues got.
func TestQueueReuseKeepsOrder(t *testing.T) {
	env := sim.NewEnv(1)
	sq := NewQueueSet(env, 1, 0).Pair(0).SQ
	cq := NewCompletionQueue(env)
	var pushed, popped uint16
	push := func() {
		pushed++
		sq.Push(Command{ID: pushed})
		cq.Post(Completion{ID: pushed})
	}
	pop := func() {
		c, ok := sq.Pop()
		k, kok := cq.Pop()
		popped++
		if !ok || !kok || c.ID != popped || k.ID != popped || k.Seq != uint64(popped) {
			t.Fatalf("pop %d: SQ %+v %v, CQ %+v %v", popped, c, ok, k, kok)
		}
	}
	check := func() {
		want := int(pushed - popped)
		if sq.Len() != want || cq.Len() != want {
			t.Fatalf("after %d pushes and %d pops: SQ Len %d, CQ Len %d, want %d", pushed, popped, sq.Len(), cq.Len(), want)
		}
		if cq.Seq() != uint64(pushed) {
			t.Fatalf("CQ Seq %d after %d posts", cq.Seq(), pushed)
		}
	}
	for cycle := 0; cycle < 200; cycle++ {
		depth := 1 + cycle%9
		for i := 0; i < depth; i++ {
			push()
		}
		for i := 0; i < depth/2; i++ {
			pop()
		}
		check()
		for i := 0; i < depth%4; i++ {
			push()
		}
		check()
		for pushed != popped {
			pop()
		}
		check()
		if _, ok := sq.Pop(); ok {
			t.Fatal("drained SQ returned an entry")
		}
		if _, ok := cq.Pop(); ok {
			t.Fatal("drained CQ returned an entry")
		}
	}
	// Never drained: the depth walks between 4 and 12.
	for i := 0; i < 12; i++ {
		push()
	}
	var sqCap, cqCap int
	for step := 0; step < 5000; step++ {
		if step == 160 {
			sqCap, cqCap = backingCap(&sq.entries), backingCap(&cq.entries)
		}
		if step%16 < 8 {
			pop()
		} else {
			push()
		}
		check()
	}
	if backingCap(&sq.entries) > sqCap || backingCap(&cq.entries) > cqCap {
		t.Fatalf("backing arrays grew %d -> %d (SQ), %d -> %d (CQ) at a depth they already held",
			sqCap, backingCap(&sq.entries), cqCap, backingCap(&cq.entries))
	}
}

// backingCap reads the capacity of a fifo.Queue's backing array, which the
// queue does not export.
func backingCap(q any) int { return reflect.ValueOf(q).Elem().FieldByName("q").Cap() }
