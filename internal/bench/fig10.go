package bench

import (
	"fmt"
	"time"

	"xssd/internal/nand"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// Fig 10 (§6.2): effect of Write Combining. A single writer streams
// fixed-size writes through the fast side — under Write-Combining and
// Uncached MMIO mappings, with SRAM- and DRAM-backed CMB — and the
// throughput is normalized to the best cell per backing. Small writes pay
// a full TLP header per few payload bytes; WC coalesces them into
// 64-byte-line packets.

var fig10Sizes = []int{1, 2, 4, 8, 16, 32, 64, 128}

const fig10Window = 20 * time.Millisecond

func fig10Device(env *sim.Env, name string, backing pm.Spec) *villars.Device {
	cfg := villars.DefaultConfig(name)
	cfg.Backing = backing
	// Give the SRAM ring enough slack (the paper notes the 128 KB CMB
	// "capacity could be increased by making certain compromises" in FPGA
	// resources) so the destage pipeline depth does not gate the interface
	// measurement this experiment is about.
	if cfg.Backing.Capacity < 4<<20 {
		cfg.Backing.Capacity = 4 << 20
	}
	cfg.Geometry = nand.Geometry{Channels: 8, WaysPerChan: 8, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
	cfg.QueueSize = 32 << 10
	return villars.New(env, cfg, pcie.NewHostMemory(1<<20))
}

// Fig10Cell measures sustained fast-side intake (bytes persisted to the
// backing ring per second) for one (backing, mode, size) cell.
func Fig10Cell(backing pm.Spec, uncached bool, size int) float64 {
	c := newCellSim(1)
	defer c.Close()
	env := c.Host
	dev := fig10Device(env, "fig10", backing)
	env.Go("writer", func(p *sim.Proc) {
		l := xapi.Open(p, dev, xapi.Options{Uncached: uncached})
		buf := make([]byte, size)
		for {
			l.XPwrite(p, buf)
		}
	})
	c.Parallelize()
	c.RunUntil(fig10Window)
	mode := "wc"
	if uncached {
		mode = "uc"
	}
	capture(c.Group, fmt.Sprintf("fig10/%s/%s/%dB", backing.Class, mode, size))
	return float64(dev.CMB().Ring().Frontier()) / fig10Window.Seconds()
}

// Fig10 regenerates the paper's Figure 10: one table per backing memory,
// throughput normalized to that backing's best cell.
func Fig10() []*Table {
	var out []*Table
	for _, backing := range []pm.Spec{pm.SRAMSpec, pm.DRAMSpec} {
		t := &Table{
			Title:  fmt.Sprintf("Fig 10 — write combining vs uncached, %s-backed CMB", backing.Class),
			Note:   "throughput normalized to the best cell of this backing",
			Header: []string{"write size", "WC MB/s", "UC MB/s", "WC norm", "UC norm"},
		}
		wc := make([]float64, len(fig10Sizes))
		uc := make([]float64, len(fig10Sizes))
		best := 0.0
		for i, size := range fig10Sizes {
			wc[i] = Fig10Cell(backing, false, size)
			uc[i] = Fig10Cell(backing, true, size)
			if wc[i] > best {
				best = wc[i]
			}
			if uc[i] > best {
				best = uc[i]
			}
		}
		for i, size := range fig10Sizes {
			t.Add(fmt.Sprintf("%dB", size),
				fmt.Sprintf("%.0f", wc[i]/1e6), fmt.Sprintf("%.0f", uc[i]/1e6),
				fmt.Sprintf("%.2f", wc[i]/best), fmt.Sprintf("%.2f", uc[i]/best))
		}
		out = append(out, t)
	}
	return out
}
