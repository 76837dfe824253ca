package villars

import (
	"testing"
	"time"

	"xssd/internal/obs"
	"xssd/internal/sim"
)

func TestDeviceTracingRecordsLifecycle(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "traced")
	tr := d.EnableTracing(256)
	payloadLen := d.cfg.Geometry.PageSize - PageHeaderLen
	env.Go("host", func(p *sim.Proc) {
		d.CMB().MemWrite(0, make([]byte, payloadLen))
	})
	env.RunUntil(50 * time.Millisecond)
	if tr.Count(obs.CMBWrite) == 0 {
		t.Fatal("no CMB write events")
	}
	if tr.Count(obs.CMBPersist) == 0 {
		t.Fatal("no persist events")
	}
	if tr.Count(obs.DestagePage) == 0 {
		t.Fatal("no destage events")
	}
	d.InjectPowerLoss()
	if tr.Count(obs.PowerLoss) != 1 {
		t.Fatal("power loss not traced")
	}
	if d.Tracer() != tr {
		t.Fatal("Tracer() accessor wrong")
	}
}

func TestTracingOffByDefault(t *testing.T) {
	env := sim.NewEnv(1)
	d := newDevice(env, "untraced")
	if d.Tracer() != nil {
		t.Fatal("tracer attached by default")
	}
	env.Go("host", func(p *sim.Proc) {
		d.CMB().MemWrite(0, make([]byte, 100)) // must not panic
	})
	env.RunUntil(time.Millisecond)
}
