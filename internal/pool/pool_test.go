package pool

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// check compares f against the oracle and holds the list to its storage
// promises: every slot past the free items is zero, and a bounded list
// never holds more than its bound.
func check(t *testing.T, f *Free[int], want []int) bool {
	t.Helper()
	if !slices.Equal(f.items, want) {
		t.Logf("list holds %v, want %v", f.items, want)
		return false
	}
	for i, v := range f.items[len(f.items):cap(f.items)] {
		if v != 0 {
			t.Logf("vacated slot %d holds %d", len(f.items)+i, v)
			return false
		}
	}
	if f.max > 0 && len(f.items) > f.max {
		t.Logf("bounded list holds %d items, bound %d", len(f.items), f.max)
		return false
	}
	return true
}

// TestQuickFreeMatchesSlice runs random sequences of Get and Put, on
// unbounded and bounded lists, against a plain-slice stack. It scales
// with -quickchecks.
func TestQuickFreeMatchesSlice(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		putBias := 0.4 + 0.2*rng.Float64() // drifting up, level or down
		var f Free[int]
		bound := 0
		if rng.Intn(2) == 0 {
			bound = 1 + rng.Intn(64)
			f = Bounded[int](bound)
		}
		var want []int
		next := 1 // items are non-zero, so zero reads as empty
		for op := rng.Intn(3000); op > 0; op-- {
			if rng.Float64() < putBias {
				f.Put(next)
				if bound == 0 || len(want) < bound {
					want = append(want, next)
				}
				next++
			} else {
				top := 0 // the zero value: the list is empty
				if len(want) > 0 {
					top, want = want[len(want)-1], want[:len(want)-1]
				}
				if v := f.Get(); v != top {
					t.Logf("Get = %d, want %d", v, top)
					return false
				}
			}
			if !check(t, &f, want) {
				return false
			}
		}
		return true
	}
	scale := 1.0
	if testing.Short() {
		scale = 0.2
	}
	if err := quick.Check(prop, &quick.Config{MaxCountScale: scale, Rand: rand.New(rand.NewSource(36))}); err != nil {
		t.Fatal(err)
	}
}

// TestFreeSteadyStateAllocs cycles items through a list: once its backing
// array covers the deepest it has been, a Get/Put cycle allocates nothing.
func TestFreeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own schedule")
	}
	var f Free[[]byte]
	for i := 0; i < 48; i++ {
		f.Put(make([]byte, 8))
	}
	for i := 0; i < 1000; i++ { // warm-up
		f.Put(f.Get())
	}
	if n := testing.AllocsPerRun(1000, func() {
		f.Put(f.Get())
	}); n != 0 {
		t.Fatalf("a Get/Put cycle allocates %v objects, want 0", n)
	}
}
