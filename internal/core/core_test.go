package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFlowControlInitialBudget(t *testing.T) {
	fc := NewFlowControl(4096)
	if fc.Budget() != 4096 {
		t.Fatalf("initial budget = %d", fc.Budget())
	}
	if fc.queueSize != 4096 {
		t.Fatalf("queue size = %d", fc.queueSize)
	}
	if !fc.Covered(fc.Written()) {
		t.Fatal("empty log not durable")
	}
}

func TestFlowControlPaperExample(t *testing.T) {
	// Paper §4.1's walkthrough: 4096-byte queue, the host writes 4096
	// without checking; the counter comes back at 4000, so 96 bytes are
	// in flight and the host may write at most 4000 more.
	fc := NewFlowControl(4096)
	fc.Note(4096)
	if fc.Budget() != 0 {
		t.Fatalf("budget after full write = %d", fc.Budget())
	}
	if got := fc.Observe(4000); got != 4000 {
		t.Fatalf("budget after credit 4000 = %d, want 4000", got)
	}
	if fc.Covered(fc.Written()) {
		t.Fatal("96 in-flight bytes reported durable")
	}
	fc.Observe(4096)
	if !fc.Covered(fc.Written()) {
		t.Fatal("fully persisted log not durable")
	}
}

func TestFlowControlCreditNeverRegresses(t *testing.T) {
	fc := NewFlowControl(1024)
	fc.Note(512)
	fc.Observe(512)
	fc.Observe(100) // stale read must not shrink the budget
	if fc.Budget() != 1024 {
		t.Fatalf("budget after stale credit = %d", fc.Budget())
	}
}

// property: under any interleaving of writes within budget and credit
// observations that never exceed written bytes, the invariant
// written - lastCredit <= queueSize always holds, and Durable() is true
// exactly when the last observed credit covers everything written.
func TestQuickFlowControlInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := int64(rng.Intn(8192) + 64)
		fc := NewFlowControl(q)
		credit := int64(0)
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 {
				b := fc.Budget()
				if b <= 0 {
					continue
				}
				n := rng.Int63n(b) + 1
				fc.Note(n)
			} else {
				// device persisted some prefix
				if credit < fc.Written() {
					credit += rng.Int63n(fc.Written()-credit) + 1
				}
				fc.Observe(credit)
			}
			if fc.Written()-credit > q && fc.Budget() > 0 {
				// the host could only believe it has budget if its last
				// observation allows it
				if fc.Budget() > q {
					return false
				}
			}
			if fc.Budget() < 0 {
				return false
			}
			if fc.Covered(fc.Written()) != (credit >= fc.Written()) && fc.Covered(fc.Written()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestModeAndSchemeStrings(t *testing.T) {
	if Standalone.String() != "standalone" || Primary.String() != "primary" || Secondary.String() != "secondary" {
		t.Fatal("mode strings")
	}
	if TransportMode(9).String() != "unknown" {
		t.Fatal("unknown mode string")
	}
	if Eager.String() != "eager" || Lazy.String() != "lazy" || Chain.String() != "chain" {
		t.Fatal("scheme strings")
	}
	if ReplicationScheme(9).String() != "unknown" {
		t.Fatal("unknown scheme string")
	}
}

func TestRegisterLayoutFitsControlSize(t *testing.T) {
	regs := []int64{RegCredit, RegLocalCredit, RegQueueSize, RegStatus,
		RegDestagedStream, RegDestageBaseLBA, RegDestageLBACount, RegDestageTailLBA}
	seen := map[int64]bool{}
	for _, r := range regs {
		if r%8 != 0 {
			t.Fatalf("register 0x%x not 8-byte aligned", r)
		}
		if r+8 > ControlSize {
			t.Fatalf("register 0x%x outside control window", r)
		}
		if seen[r] {
			t.Fatalf("register 0x%x duplicated", r)
		}
		seen[r] = true
	}
}
