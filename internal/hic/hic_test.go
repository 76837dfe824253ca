package hic

import (
	"bytes"
	"testing"
	"time"

	"xssd/internal/ftl"
	"xssd/internal/nand"
	"xssd/internal/nvme"
	"xssd/internal/pcie"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

type rig struct {
	env    *sim.Env
	host   *pcie.HostMemory
	driver *nvme.Driver
	ctrl   *Controller
}

type stubAdmin struct {
	calls []nvme.Command
}

func (a *stubAdmin) Admin(_ *sim.Proc, cmd nvme.Command) nvme.Completion {
	a.calls = append(a.calls, cmd)
	return nvme.Completion{Status: nvme.StatusSuccess, Value: 77}
}

func newRig(admin AdminHandler) *rig {
	env := sim.NewEnv(1)
	geo := nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 16, PagesPerBlock: 16, PageSize: 1024}
	timing := nand.Timing{TRead: 5 * time.Microsecond, TProg: 20 * time.Microsecond, TErase: 100 * time.Microsecond, BusRate: 1e9}
	arr := nand.New(env, geo, timing)
	sch := sched.New(env, arr, sched.Neutral)
	f := ftl.New(env, arr, sch, ftl.DefaultConfig)
	link := env.NewLink("pcie", 2e9, 200*time.Nanosecond)
	host := pcie.NewHostMemory(1 << 20)
	qp := nvme.NewQueuePair(env)
	ctrl := New(env, qp, link, host, f, admin, DefaultConfig)
	return &rig{env: env, host: host, driver: nvme.NewDriver(env, qp), ctrl: ctrl}
}

func TestWriteThenReadThroughNVMe(t *testing.T) {
	r := newRig(nil)
	bs := r.ctrl.BlockSize()
	payload := bytes.Repeat([]byte{0xCD}, bs*2)
	r.env.Go("host", func(p *sim.Proc) {
		copy(r.host.Bytes()[0:], payload)
		c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpWrite, LBA: 10, Blocks: 2, PRP: 0})
		if c.Status != nvme.StatusSuccess {
			t.Errorf("write status %v", c.Status)
		}
		c = r.driver.Submit(p, nvme.Command{Opcode: nvme.OpRead, LBA: 10, Blocks: 2, PRP: 1 << 18})
		if c.Status != nvme.StatusSuccess {
			t.Errorf("read status %v", c.Status)
		}
		if !bytes.Equal(r.host.Bytes()[1<<18:(1<<18)+bs*2], payload) {
			t.Error("read back wrong data")
		}
	})
	r.env.RunUntil(time.Second)
}

func TestReadOfUnwrittenLBAFails(t *testing.T) {
	r := newRig(nil)
	r.env.Go("host", func(p *sim.Proc) {
		c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpRead, LBA: 999, Blocks: 1, PRP: 0})
		if c.Status != nvme.StatusError {
			t.Errorf("status = %v, want error", c.Status)
		}
	})
	r.env.RunUntil(time.Second)
}

func TestFlushSucceeds(t *testing.T) {
	r := newRig(nil)
	r.env.Go("host", func(p *sim.Proc) {
		c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpFlush})
		if c.Status != nvme.StatusSuccess {
			t.Errorf("flush status %v", c.Status)
		}
	})
	r.env.RunUntil(time.Second)
}

func TestUnknownOpcodeRejected(t *testing.T) {
	r := newRig(nil)
	r.env.Go("host", func(p *sim.Proc) {
		c := r.driver.Submit(p, nvme.Command{Opcode: 0x7F})
		if c.Status != nvme.StatusInvalid {
			t.Errorf("status = %v, want invalid", c.Status)
		}
	})
	r.env.RunUntil(time.Second)
}

func TestVendorCommandRoutesToAdminHandler(t *testing.T) {
	admin := &stubAdmin{}
	r := newRig(admin)
	r.env.Go("host", func(p *sim.Proc) {
		c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpXQueryStatus, CDW: 42})
		if c.Status != nvme.StatusSuccess || c.Value != 77 {
			t.Errorf("completion = %+v", c)
		}
	})
	r.env.RunUntil(time.Second)
	if len(admin.calls) != 1 || admin.calls[0].CDW != 42 {
		t.Fatalf("admin calls = %+v", admin.calls)
	}
}

func TestVendorCommandWithoutHandlerInvalid(t *testing.T) {
	r := newRig(nil)
	r.env.Go("host", func(p *sim.Proc) {
		c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpXSetTransportMode})
		if c.Status != nvme.StatusInvalid {
			t.Errorf("status = %v, want invalid", c.Status)
		}
	})
	r.env.RunUntil(time.Second)
}

func TestConcurrentCommandsAllComplete(t *testing.T) {
	r := newRig(nil)
	bs := r.ctrl.BlockSize()
	const n = 16
	completions := 0
	for i := 0; i < n; i++ {
		i := i
		r.env.Go("host", func(p *sim.Proc) {
			prp := int64(i * bs)
			r.host.Bytes()[prp] = byte(i + 1)
			c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpWrite, LBA: int64(i), Blocks: 1, PRP: prp})
			if c.Status != nvme.StatusSuccess {
				t.Errorf("cmd %d: %v", i, c.Status)
			}
			completions++
		})
	}
	r.env.RunUntil(time.Second)
	if completions != n {
		t.Fatalf("completions = %d, want %d", completions, n)
	}
	_, writes, _, _, errs := r.ctrl.Stats()
	if writes != n || errs != 0 {
		t.Fatalf("writes=%d errs=%d", writes, errs)
	}
}

func TestQueuePairFIFO(t *testing.T) {
	env := sim.NewEnv(1)
	sq := nvme.NewSubmissionQueue(env)
	sq.Push(nvme.Command{ID: 1})
	sq.Push(nvme.Command{ID: 2})
	if c, ok := sq.Pop(); !ok || c.ID != 1 {
		t.Fatal("SQ not FIFO")
	}
	if sq.Len() != 1 {
		t.Fatal("SQ length wrong")
	}
	cq := nvme.NewCompletionQueue(env)
	cq.Post(nvme.Completion{ID: 9})
	if c, ok := cq.Pop(); !ok || c.ID != 9 {
		t.Fatal("CQ pop wrong")
	}
	if _, ok := cq.Pop(); ok {
		t.Fatal("empty CQ returned entry")
	}
}

// newMultiRig builds a controller over n queue pairs with a one-worker
// execution stage, so completion order exposes the fetcher's round-robin
// order directly.
func newMultiRig(n int) (*rig, *nvme.QueueSet) {
	env := sim.NewEnv(1)
	geo := nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 16, PagesPerBlock: 16, PageSize: 1024}
	timing := nand.Timing{TRead: 5 * time.Microsecond, TProg: 20 * time.Microsecond, TErase: 100 * time.Microsecond, BusRate: 1e9}
	arr := nand.New(env, geo, timing)
	sch := sched.New(env, arr, sched.Neutral)
	f := ftl.New(env, arr, sch, ftl.DefaultConfig)
	link := env.NewLink("pcie", 2e9, 200*time.Nanosecond)
	host := pcie.NewHostMemory(1 << 20)
	qs := nvme.NewQueueSet(env, n, nvme.Coalesce{})
	cfg := DefaultConfig
	cfg.Workers = 1
	ctrl := NewMulti(env, qs, link, host, f, nil, cfg)
	return &rig{env: env, host: host, driver: nvme.NewMultiDriver(env, qs, 0), ctrl: ctrl}, qs
}

func TestMultiQueueCompletesOnOriginQueue(t *testing.T) {
	r, qs := newMultiRig(3)
	bs := r.ctrl.BlockSize()
	var got [3]nvme.Completion
	r.env.Go("host", func(p *sim.Proc) {
		var toks [3]nvme.Token
		for q := 0; q < 3; q++ {
			prp := int64(q * bs)
			r.host.Bytes()[prp] = byte(q + 1)
			toks[q] = r.driver.SubmitAsync(p, q, nvme.Command{Opcode: nvme.OpWrite, LBA: int64(10 + q), Blocks: 1, PRP: prp})
		}
		for q := 0; q < 3; q++ {
			got[q] = r.driver.Wait(p, toks[q])
		}
	})
	r.env.RunUntil(time.Second)
	for q := 0; q < 3; q++ {
		if got[q].Status != nvme.StatusSuccess {
			t.Errorf("queue %d completion %+v", q, got[q])
		}
		// Each CQ saw exactly its own command: one completion, seq 1.
		if qs.Pair(q).CQ.Seq() != 1 {
			t.Errorf("queue %d CQ seq %d, want 1 (completion crossed queues?)", q, qs.Pair(q).CQ.Seq())
		}
	}
}

func TestMultiQueueRoundRobinArbitration(t *testing.T) {
	// Three commands on each of two queues, fetched by a single worker:
	// strict round-robin must interleave them q0,q1,q0,q1,... rather than
	// draining one queue first. Admin commands echo CDW through Value, so
	// the completion values record execution order.
	admin := &stubAdmin{}
	r, qs := newMultiRig(2)
	r.ctrl.admin = admin
	_ = qs
	r.env.Go("host", func(p *sim.Proc) {
		var toks []nvme.Token
		for i := 0; i < 3; i++ {
			for q := 0; q < 2; q++ {
				toks = append(toks, r.driver.SubmitAsync(p, q, nvme.Command{
					Opcode: nvme.OpXQueryStatus, CDW: int64(q*100 + i)}))
			}
		}
		for _, tok := range toks {
			r.driver.Wait(p, tok)
		}
	})
	r.env.RunUntil(time.Second)
	want := []int64{0, 100, 1, 101, 2, 102}
	if len(admin.calls) != len(want) {
		t.Fatalf("admin saw %d commands, want %d", len(admin.calls), len(want))
	}
	for i, c := range admin.calls {
		if c.CDW != want[i] {
			got := make([]int64, len(admin.calls))
			for j, cc := range admin.calls {
				got[j] = cc.CDW
			}
			t.Fatalf("execution order %v, want strict round-robin %v", got, want)
		}
	}
}
