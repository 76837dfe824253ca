package hic

import (
	"bytes"
	"slices"
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
	r, _ := newMultiRig(1, admin)
	return r
}

// newMultiRig builds a controller over n queue pairs.
func newMultiRig(n int, admin AdminHandler) (*rig, *nvme.QueueSet) {
	env := sim.NewEnv(1)
	geo := nand.Geometry{Channels: 2, WaysPerChan: 2, BlocksPerDie: 16, PagesPerBlock: 16, PageSize: 1024}
	timing := nand.Timing{TRead: 5 * time.Microsecond, TProg: 20 * time.Microsecond, TErase: 100 * time.Microsecond, BusRate: 1e9}
	arr := nand.New(env, geo, timing)
	sch := sched.New(env, arr, sched.Neutral)
	f := ftl.New(env, arr, sch, ftl.DefaultConfig)
	link := env.NewLink("pcie", 2e9, 200*time.Nanosecond)
	host := pcie.NewHostMemory(1 << 20)
	qs := nvme.NewQueueSet(env, n, 0)
	ctrl := New(env, qs, link, host, f, admin)
	return &rig{env: env, host: host, driver: nvme.NewDriver(env, qs), ctrl: ctrl}, qs
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
		c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpRead, LBA: 500, Blocks: 1, PRP: 0})
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
		c := r.driver.Submit(p, nvme.Command{Opcode: nvme.OpXSetDestagePolicy, CDW: 42})
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
	sq := nvme.NewQueueSet(env, 1, 0).Pair(0).SQ
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

func TestMultiQueueCompletesOnOriginQueue(t *testing.T) {
	r, qs := newMultiRig(3, nil)
	bs := r.ctrl.BlockSize()
	var got [3]nvme.Completion
	r.env.Go("host", func(p *sim.Proc) {
		var toks [3]nvme.Token
		for q := 0; q < 3; q++ {
			prp := int64(q * bs)
			r.host.Bytes()[prp] = byte(q + 1)
			toks[q] = r.driver.SubmitAsync(q, nvme.Command{Opcode: nvme.OpWrite, LBA: int64(10 + q), Blocks: 1, PRP: prp})
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
	// Three commands on each of two queues: strict round-robin must
	// interleave them q0,q1,q0,q1,... rather than draining one queue
	// first. Then one command on q0 alone, and one on each queue, q0's
	// pushed first: the rotation resumes after the last queue served, so
	// q1 goes first. The stub admin records commands as handlers execute
	// them, and handlers take fetched commands in fetch order.
	admin := &stubAdmin{}
	r, _ := newMultiRig(2, admin)
	r.env.Go("host", func(p *sim.Proc) {
		var toks []nvme.Token
		submit := func(q int, cdw int64) {
			toks = append(toks, r.driver.SubmitAsync(q, nvme.Command{Opcode: nvme.OpXSetDestagePolicy, CDW: cdw}))
		}
		drain := func() {
			for _, tok := range toks {
				r.driver.Wait(p, tok)
			}
			toks = toks[:0]
		}
		for i := int64(0); i < 3; i++ {
			submit(0, i)
			submit(1, 100+i)
		}
		drain()
		submit(0, 3)
		drain()
		submit(0, 4)
		submit(1, 104)
		drain()
	})
	r.env.RunUntil(time.Second)
	want := []int64{0, 100, 1, 101, 2, 102, 3, 104, 4}
	got := make([]int64, len(admin.calls))
	for j, c := range admin.calls {
		got[j] = c.CDW
	}
	if !slices.Equal(got, want) {
		t.Fatalf("execution order %v, want strict round-robin %v", got, want)
	}
}
