package fifo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// check compares q against the oracle and holds the queue to its two
// storage promises: every slot outside the waiting entries is zero, and
// the backing array is at most twice the deepest the queue has been.
func check(t *testing.T, q *Queue[int], want []int, deepest int) bool {
	t.Helper()
	if q.Len() != len(want) || !slices.Equal(q.Items(), want) {
		t.Logf("queue holds %v (Len %d), want %v", q.Items(), q.Len(), want)
		return false
	}
	all := q.q[:cap(q.q)]
	for i, v := range all {
		if (i < q.pos || i >= len(q.q)) && v != 0 {
			t.Logf("slot %d outside the waiting entries [%d, %d) holds %d", i, q.pos, len(q.q), v)
			return false
		}
	}
	if cap(q.q) > 2*deepest {
		t.Logf("backing array of %d slots for a queue never deeper than %d", cap(q.q), deepest)
		return false
	}
	return true
}

// TestQuickQueueMatchesSlice runs random sequences of Push, Pop, Peek,
// RemoveAt and Clear against a plain slice. It scales with -quickchecks.
func TestQuickQueueMatchesSlice(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pushBias := 0.4 + 0.2*rng.Float64() // drifting up, level or down
		var q Queue[int]
		var want []int
		deepest, next := 0, 1
		for op := rng.Intn(3000); op > 0; op-- {
			switch r := rng.Float64(); {
			case r < pushBias:
				q.Push(next)
				want = append(want, next)
				next++
				deepest = max(deepest, len(want))
			case r < 0.85:
				v, ok := q.Pop()
				if ok != (len(want) > 0) || ok && v != want[0] {
					t.Logf("Pop = %d, %v; want head of %v", v, ok, want)
					return false
				}
				if ok {
					want = want[1:]
				}
			case r < 0.9:
				v, ok := q.Peek()
				if ok != (len(want) > 0) || ok && v != want[0] {
					t.Logf("Peek = %d, %v; want head of %v", v, ok, want)
					return false
				}
			case r < 0.998:
				if len(want) == 0 {
					continue
				}
				i := rng.Intn(len(want))
				if v := q.RemoveAt(i); v != want[i] {
					t.Logf("RemoveAt(%d) = %d, want %d", i, v, want[i])
					return false
				}
				want = slices.Delete(want, i, i+1)
			default:
				q.Clear()
				want = want[:0]
			}
			if !check(t, &q, want, deepest) {
				return false
			}
		}
		return true
	}
	scale := 1.0
	if testing.Short() {
		scale = 0.2
	}
	if err := quick.Check(prop, &quick.Config{MaxCountScale: scale, Rand: rand.New(rand.NewSource(35))}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueSteadyStateAllocs holds a queue at a fixed depth: once its
// backing array covers that depth, a Push/Pop cycle allocates nothing.
func TestQueueSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	var q Queue[int]
	for i := 0; i < 48; i++ {
		q.Push(i)
	}
	for i := 0; i < 1000; i++ { // warm-up: grow to the depth once
		q.Push(i)
		q.Pop()
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop()
	}); n != 0 {
		t.Fatalf("a Push/Pop cycle allocates %v objects, want 0", n)
	}
}
