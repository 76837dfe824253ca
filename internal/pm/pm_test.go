package pm

import (
	"testing"
	"time"

	"xssd/internal/sim"
)

func TestClassString(t *testing.T) {
	if SRAM.String() != "SRAM" || DRAM.String() != "DRAM" || NVDIMM.String() != "NVDIMM" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "unknown" {
		t.Fatal("unknown class name wrong")
	}
}

func TestBankWriteTiming(t *testing.T) {
	env := sim.NewEnv(1)
	bank := NewBank(env, Spec{Class: SRAM, Capacity: 1 << 20, Bandwidth: 1e9, Latency: 100 * time.Nanosecond})
	var took time.Duration
	env.Go("w", func(p *sim.Proc) {
		start := p.Now()
		bank.Write(p, 1000) // 1µs serialization + 100ns latency
		took = p.Now() - start
	})
	env.Run()
	if took != 1100*time.Nanosecond {
		t.Fatalf("write took %v, want 1.1µs", took)
	}
}

func TestSRAMFasterThanDRAM(t *testing.T) {
	run := func(spec Spec) time.Duration {
		env := sim.NewEnv(1)
		bank := NewBank(env, spec)
		var took time.Duration
		env.Go("w", func(p *sim.Proc) {
			start := p.Now()
			for i := 0; i < 100; i++ {
				bank.Write(p, 4096)
			}
			took = p.Now() - start
		})
		env.RunUntil(time.Second)
		return took
	}
	sram, dram := run(SRAMSpec), run(DRAMSpec)
	if sram >= dram {
		t.Fatalf("SRAM (%v) not faster than shared DRAM (%v)", sram, dram)
	}
}

func TestSharedDRAMBackgroundTrafficSlowsWrites(t *testing.T) {
	run := func(shared float64) time.Duration {
		env := sim.NewEnv(1)
		spec := DRAMSpec
		spec.SharedFrac = shared
		bank := NewBank(env, spec)
		var took time.Duration
		env.Go("w", func(p *sim.Proc) {
			p.Sleep(10 * time.Microsecond) // let background traffic establish
			start := p.Now()
			for i := 0; i < 200; i++ {
				bank.Write(p, 4096)
			}
			took = p.Now() - start
		})
		env.RunUntil(100 * time.Millisecond)
		return took
	}
	exclusive, shared := run(0), run(0.5)
	if float64(shared) < 1.5*float64(exclusive) {
		t.Fatalf("shared bus (%v) should be much slower than exclusive (%v)", shared, exclusive)
	}
}

func TestPresetsPersistence(t *testing.T) {
	if SRAMSpec.Capacity != 128<<10 || DRAMSpec.Capacity != 128<<20 {
		t.Fatal("preset capacities do not match paper setup")
	}
}

func TestWriteAsyncCallback(t *testing.T) {
	env := sim.NewEnv(1)
	bank := NewBank(env, Spec{Class: SRAM, Capacity: 1 << 20, Bandwidth: 1e9, Latency: 0})
	var at time.Duration
	env.Go("w", func(p *sim.Proc) {
		bank.WriteAsync(500, func() { at = env.Now() })
	})
	env.Run()
	if at != 500*time.Nanosecond {
		t.Fatalf("async write landed at %v, want 500ns", at)
	}
}
