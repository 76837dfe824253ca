package bench

import (
	"time"

	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/sim"
	"xssd/internal/stack"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
	"xssd/internal/xapi"
)

// The destage/thinlog cell puts the NAND bill of a thin log behind the
// compare gate: one TPC-C terminal committing through 4 KB / 500 µs WAL
// groups persists about one record — a dozen 64-byte lines — every half
// millisecond, far less than a flash page per latency bound. With nobody
// reading the log the Destage module fills whole pages and pads only when
// the stream goes quiet, so the page count is close to the payload's. The
// destage/thinlog/reader twin adds an XPread tail reader, which keeps the
// padded page due at every latency bound: about a page per bound interval,
// and the reader's lag — from a chunk's last byte persisting to XPread
// returning it — is the freshness those pages buy. NAND timing is the
// default (600 µs program), the shape in which a page is still in flight
// when the next lines arrive.

const (
	thinLogWindow = 250 * time.Millisecond
	thinLogBound  = time.Millisecond
	// thinLogReadChunk is what the tail reader asks XPread for at a time.
	thinLogReadChunk = 256
)

// ThinLogCell runs the reader-less cell and reports the events it
// dispatched and the flash pages its device programmed.
func ThinLogCell() Measurement {
	m, _ := thinLogCell(false)
	return m
}

// ThinLogReaderCell runs the cell with a tail reader and adds the reader's
// lag digest.
func ThinLogReaderCell() Measurement {
	m, _ := thinLogCell(true)
	return m
}

// thinLogCell runs either cell and also returns its device's destage bill.
func thinLogCell(reader bool) (Measurement, villars.DestageStats) {
	cfg := villars.DefaultConfig("thinlog")
	cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 4, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 4 << 10}
	cfg.DestageLatencyBound = thinLogBound
	tcfg := tpcc.DefaultConfig()
	hostMem := pcie.NewHostMemory(1 << 20)
	c, _ := newCell(stack.Config{ // a stack of one device and its log always validates
		Seed: 42,
		Device: func(env *sim.Env, _ int) *villars.Device {
			return villars.New(env, cfg, hostMem)
		},
		Sink: "thinlog",
		WAL:  wal.Config{GroupBytes: 4 << 10, GroupTimeout: 500 * time.Microsecond},
		Load: func(eng *db.Engine) { tpcc.Load(eng, tcfg, 7) },
	})
	defer c.Close()
	env := c.Host
	_ = c.BootInline() // a sink, a log and the load: nothing to fail
	eng, dev := c.Engine, c.Primary
	client := tpcc.NewClient(eng, tcfg, 100, 1)
	env.Go("terminal", func(p *sim.Proc) {
		for {
			p.Sleep(fig9Compute)
			_, _ = client.RunMix(p) // conflicts retry inside the client
		}
	})
	var tr *obs.Tracer
	var reads []thinLogRead
	if reader {
		// The window records about 15 000 trace events, persists among
		// them, so the trace keeps all of them; it dispatches no events.
		tr = dev.EnableTracing(1 << 16)
		env.Go("tail-reader", func(p *sim.Proc) {
			l := xapi.Open(p, dev, xapi.Options{HostMem: hostMem})
			buf := make([]byte, thinLogReadChunk)
			for {
				off, err := l.XPread(p, buf)
				if err != nil {
					return
				}
				reads = append(reads, thinLogRead{end: off + thinLogReadChunk, at: p.Now()})
			}
		})
	}
	c.Parallelize()
	c.RunUntil(thinLogWindow)
	st := dev.Stats()
	m := Measurement{NandPages: st.NAND.Programs}
	name := "destage/thinlog"
	if reader {
		name += "/reader"
		// lag_ns: from the first CMB persist whose frontier covers a read
		// chunk's end to the tail read that returned the chunk.
		lag := obs.For(env).Scope("thinlog/reader").Histogram("lag_ns")
		observeReadLag(lag, tr.Filter(obs.CMBPersist), reads)
		m.Lat = lag.Summary()
	}
	capture(c.Group, name)
	m.Events = c.Events()
	return m, st.Destage
}

// thinLogRead is one XPread return: the stream offset its chunk ended at
// and when the reader had it.
type thinLogRead struct {
	end int64
	at  time.Duration
}

// observeReadLag observes, for each read, how long its chunk's last byte
// had been persisted: the read's instant minus that of the first persist
// whose frontier (the event's B) passed the chunk's end. Both lists rise.
func observeReadLag(lag *obs.Histogram, persists []obs.Event, reads []thinLogRead) {
	i := 0
	for _, r := range reads {
		for i < len(persists) && persists[i].B < r.end {
			i++
		}
		if i == len(persists) {
			return
		}
		lag.ObserveDuration(r.at - persists[i].At)
	}
}
