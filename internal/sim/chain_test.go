package sim

import (
	"runtime"
	"testing"
	"time"
)

// runItems runs one program — post k items d apart, then carry on — as a
// process that sleeps between items or, parked, as a process that posts the
// first, parks, and lets a callback chain post the rest. A second process
// logs its own wake-ups every d too, so exact ties are the rule.
func runItems(t *testing.T, k int, d time.Duration, parked bool) (log []string, events, switches int64) {
	t.Helper()
	env := NewEnv(1)
	defer env.Close()
	note := func(s string) { log = append(log, s+"@"+env.Now().String()) }
	env.Go("peer", func(p *Proc) {
		for i := 0; i <= k+1; i++ {
			note("peer")
			p.Sleep(d)
		}
	})
	env.Go("poster", func(p *Proc) {
		left := k
		var step func()
		step = func() {
			note("item")
			env.After(0, func() { note("delivered") }) // each item schedules, as a link send does
			left--
			switch {
			case !parked:
			case left > 0:
				env.After(d, step)
			default:
				p.WakeAfter(d)
			}
		}
		if parked {
			step()
			p.Park()
		} else {
			for left > 0 {
				step()
				p.Sleep(d)
			}
		}
		note("returned")
	})
	if blocked := env.Run(); blocked != 0 {
		t.Fatalf("parked=%v: Run reports %d blocked processes, want 0", parked, blocked)
	}
	return log, env.Events(), env.Switches()
}

// TestParkedChainKeepsEveryPosition is the engine half of DESIGN §9's fifth
// rule: a run of Sleeps replaced by Park + a re-armed callback + WakeAfter
// leaves every event where it was — same log, same event count — and costs
// a constant number of process switches instead of one per item.
func TestParkedChainKeepsEveryPosition(t *testing.T) {
	const d = 42 * time.Nanosecond
	for _, k := range []int{2, 3, 17} {
		slept, sleptEvents, sleptSwitches := runItems(t, k, d, false)
		parked, parkedEvents, parkedSwitches := runItems(t, k, d, true)
		if len(slept) != len(parked) {
			t.Fatalf("k=%d: %d log entries sleeping, %d parked", k, len(slept), len(parked))
		}
		for i := range slept {
			if slept[i] != parked[i] {
				t.Fatalf("k=%d: entry %d is %s sleeping, %s parked", k, i, slept[i], parked[i])
			}
		}
		if sleptEvents != parkedEvents {
			t.Errorf("k=%d: %d events sleeping, %d parked; a chain moves events from resumes to callbacks, it adds and removes none", k, sleptEvents, parkedEvents)
		}
		if got, want := sleptSwitches-parkedSwitches, int64(k-1); got != want {
			t.Errorf("k=%d: parking saved %d process switches, want %d (all but the last sleep)", k, got, want)
		}
	}
}

// TestCloseWithChainArmed closes an Env whose only pending event is a
// chain's next step, with the process that armed it parked: the process
// unwinds through its deferred functions and no goroutine stays behind.
func TestCloseWithChainArmed(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	unwound, steps := false, 0
	env.Go("poster", func(p *Proc) {
		defer func() { unwound = true }()
		var step func()
		step = func() { steps++; env.After(time.Microsecond, step) }
		step()
		p.Park()
		t.Error("parked process resumed without a WakeAfter")
	})
	env.RunUntil(10 * time.Microsecond)
	if steps != 11 {
		t.Fatalf("chain ran %d steps in 10µs, want 11", steps)
	}
	env.Close()
	waitGoroutines(t, base)
	if !unwound {
		t.Error("Close did not unwind the parked process")
	}
}

// TestLinkSerializationTimeIsOccupancy pins the one definition of "how long
// n bytes occupy this link": a sender that posts and then paces itself by
// SerializationTime keeps an idle link exactly busy — busyUntil equals the
// sender's clock after every step — at bandwidths where the quantum rounds
// down and where the one-nanosecond floor applies (84 bytes at 100 GB/s is
// 0.84 ns).
func TestLinkSerializationTimeIsOccupancy(t *testing.T) {
	for _, bw := range []float64{2e9, 4e9, 31.5e9, 100e9, 1e12} {
		env := NewEnv(1)
		link := env.NewLink("wire", bw, 300*time.Nanosecond)
		env.Go("sender", func(p *Proc) {
			for i, n := range []int{84, 84, 21, 1, 64, 4096, 84, 3, 276} {
				link.Send(n, nil)
				ser := link.SerializationTime(n)
				if ser < 1 {
					t.Errorf("%.3g B/s: %d bytes serialize in %v, want at least 1ns", bw, n, ser)
				}
				p.Sleep(ser)
				if link.busyUntil != env.now {
					t.Fatalf("%.3g B/s, step %d (%d bytes): link busy until %d, sender at %d", bw, i, n, link.busyUntil, env.now)
				}
			}
		})
		env.Run()
		if _, busy, _ := link.Stats(); busy != env.Now() {
			t.Errorf("%.3g B/s: link busy %v of %v; pacing left a gap or a queue", bw, busy, env.Now())
		}
		env.Close()
	}
	if got := NewEnv(1).NewLink("wire", 1e9, 0).SerializationTime(0); got != 0 {
		t.Errorf("0 bytes serialize in %v, want 0", got)
	}
}
