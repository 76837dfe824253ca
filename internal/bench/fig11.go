package bench

import (
	"fmt"
	"time"

	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// Fig 11 (§6.3): effect of the CMB intake-queue size. A writer issues
// group-commit-sized writes (XPwrite + XFsync), sweeping the write size
// (x-axis) against the queue size (series). A queue smaller than the
// write forces mid-write credit pauses; the paper finds 32 KB covers all
// OLTP group-commit sizes.

var (
	fig11QueueSizes = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10}
	fig11GroupSizes = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
)

const fig11Window = 30 * time.Millisecond

func Fig11Cell(queueSize, groupSize int) (lat time.Duration, mbps float64) {
	c := newCellSim(1)
	defer c.Close()
	env := c.Host
	cfg := villars.DefaultConfig("fig11")
	cfg.Backing = pm.SRAMSpec
	// A roomy ring keeps the destage pipeline off the critical path so the
	// intake queue is the variable under test.
	cfg.Backing.Capacity = 8 << 20
	cfg.CMBSize = 8 << 20
	cfg.QueueSize = queueSize
	cfg.Geometry = nand.Geometry{Channels: 8, WaysPerChan: 8, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
	dev := villars.New(env, cfg, pcie.NewHostMemory(1<<20))

	var sample obs.Sample
	var bytes int64
	env.Go("writer", func(p *sim.Proc) {
		l := xapi.Open(p, dev, xapi.Options{})
		buf := make([]byte, groupSize)
		for {
			t0 := p.Now()
			l.XPwrite(p, buf)
			if err := l.XFsync(p); err != nil {
				return
			}
			sample.Add(p.Now() - t0)
			bytes += int64(groupSize)
		}
	})
	c.Parallelize()
	c.RunUntil(fig11Window)
	capture(c.Group, fmt.Sprintf("fig11/q%dK/g%dK", queueSize>>10, groupSize>>10))
	return sample.Mean(), float64(bytes) / fig11Window.Seconds() / 1e6
}

// Fig11 regenerates the paper's Figure 11: latency (top) and throughput
// (bottom) of group-commit sizes across queue sizes, SRAM backing.
func Fig11() []*Table {
	lat := &Table{
		Title:  "Fig 11 (top) — XPwrite+XFsync latency vs group-commit size, per CMB queue size",
		Header: []string{"group size"},
	}
	thr := &Table{
		Title:  "Fig 11 (bottom) — throughput (MB/s) vs group-commit size, per CMB queue size",
		Header: []string{"group size"},
	}
	for _, q := range fig11QueueSizes {
		lat.Header = append(lat.Header, fmt.Sprintf("q=%dKB", q>>10))
		thr.Header = append(thr.Header, fmt.Sprintf("q=%dKB", q>>10))
	}
	for _, g := range fig11GroupSizes {
		latRow := []string{fmt.Sprintf("%dKB", g>>10)}
		thrRow := []string{fmt.Sprintf("%dKB", g>>10)}
		for _, q := range fig11QueueSizes {
			l, m := Fig11Cell(q, g)
			latRow = append(latRow, fmtDur(l))
			thrRow = append(thrRow, fmt.Sprintf("%.0f", m))
		}
		lat.Add(latRow...)
		thr.Add(thrRow...)
	}
	return []*Table{lat, thr}
}
