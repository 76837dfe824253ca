package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// workersTrace runs one schedule of 300 items, each a few sleeps long,
// started from a process and from scheduler callbacks at random instants,
// either by Go or by Workers.Start. It returns every step's (item, step,
// time, seq) and the Env's event and switch counts.
func workersTrace(start bool) (trace []string, events, switches int64) {
	e := NewEnv(1)
	defer e.Close()
	body := func(p *Proc, id int) {
		for s := 0; s <= id%3; s++ {
			trace = append(trace, fmt.Sprintf("%d/%d@%d#%d", id, s, e.now, e.seq))
			p.Sleep(time.Duration(id%4) * time.Microsecond)
		}
		trace = append(trace, fmt.Sprintf("%d/end@%d#%d", id, e.now, e.seq))
	}
	ws := NewWorkers(e, "worker", body)
	run := func(id int) {
		if start {
			ws.Start(id)
			return
		}
		e.Go("worker", func(p *Proc) { body(p, id) })
	}
	rng := rand.New(rand.NewSource(7))
	e.Go("driver", func(p *Proc) {
		for id := 0; id < 300; id++ {
			if id%5 == 0 {
				id := id
				e.After(time.Duration(rng.Intn(4))*time.Microsecond, func() { run(id) })
			} else {
				run(id)
			}
			if rng.Intn(3) == 0 {
				p.Sleep(time.Duration(rng.Intn(6)) * time.Microsecond)
			}
		}
	})
	if blocked := e.Run(); blocked != 0 {
		trace = append(trace, fmt.Sprintf("%d blocked", blocked))
	}
	return trace, e.Events(), e.Switches()
}

// TestStartMatchesGo is the Workers contract: handing a schedule's items
// to recycled workers produces the (time, seq) trace, the event count and
// the switch count that starting each item with Go does, and parked
// workers do not count as blocked.
func TestStartMatchesGo(t *testing.T) {
	gt, ge, gs := workersTrace(false)
	wt, we, wsw := workersTrace(true)
	if ge != we || gs != wsw {
		t.Errorf("Go ran %d events and %d switches, Start %d and %d", ge, gs, we, wsw)
	}
	if !slices.Equal(gt, wt) {
		for i := range min(len(gt), len(wt)) {
			if gt[i] != wt[i] {
				t.Fatalf("traces part at step %d: Go %s, Start %s", i, gt[i], wt[i])
			}
		}
		t.Fatalf("Go traced %d steps, Start %d", len(gt), len(wt))
	}
}

// TestStartSteadyStateAllocs: once a set of workers has grown to the
// schedule's concurrency, Start and the run it sets off allocate nothing,
// and the set holds as many workers as ever ran at once.
func TestStartSteadyStateAllocs(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	ran := 0
	ws := NewWorkers(e, "worker", func(p *Proc, n int) {
		p.Sleep(time.Duration(n) * time.Nanosecond)
		ran++
	})
	round := func() {
		for n := 1; n <= 3; n++ {
			ws.Start(n)
		}
		e.Run()
	}
	round()
	allocs := testing.AllocsPerRun(200, round)
	if ran != 3*202 { // AllocsPerRun adds a warm-up round
		t.Fatalf("ran %d items, want %d", ran, 3*202)
	}
	if allocs != 0 {
		t.Errorf("three Starts and their runs allocate %.1f objects, want 0", allocs)
	}
	if len(e.carriers) != 3 {
		t.Errorf("%d carriers for 3 concurrent items, want 3", len(e.carriers))
	}
}
