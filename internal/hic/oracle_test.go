package hic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xssd/internal/ftl"
	"xssd/internal/nand"
	"xssd/internal/nvme"
	"xssd/internal/pcie"
	"xssd/internal/sched"
	"xssd/internal/sim"
)

// The oracle run's shape: a tiny array whose programs are slow enough that
// acknowledged writes pile up behind the flash, so the collector is busy
// for the whole run and one LBA's write-backs overlap; and a slow host
// link (a 64-byte block takes 13 µs), so while a read's DMA sleeps, the
// Data Buffer record it hit can land on flash and carry another block.
const (
	oracleLBAs = 8   // the LBA range every command lands in
	oracleQD   = 4   // host processes, each with one command in flight
	oracleOps  = 120 // commands per host process
)

var (
	oracleGeo    = nand.Geometry{Channels: 2, WaysPerChan: 1, BlocksPerDie: 8, PagesPerBlock: 4, PageSize: 64}
	oracleTiming = nand.Timing{TRead: 5 * time.Microsecond, TProg: 150 * time.Microsecond, TErase: 300 * time.Microsecond, BusRate: 1e9}
	oracleLink   = 5e6 // host link bytes per second
)

// runOracle drives random reads, writes, overwrites and flushes of one to
// two blocks from oracleQD host processes against a map of the last
// acknowledged image of every LBA. A command never shares an LBA with
// another command in flight, so that map is the one right answer: every
// read must return it, and once a final flush completes every LBA's flash
// image must equal it. It returns "" when both hold, or what broke.
func runOracle(seed int64) string {
	env := sim.NewEnv(seed)
	defer env.Close()
	arr := nand.New(env, oracleGeo, oracleTiming)
	f := ftl.New(env, arr, sched.New(env, arr, sched.Neutral), ftl.DefaultConfig)
	bs := oracleGeo.PageSize
	// Each host process owns a write area and a read area of two blocks.
	host := pcie.NewHostMemory(oracleQD * 4 * bs)
	qs := nvme.NewQueueSet(env, 1, 0)
	ctrl := New(env, qs, env.NewLink("pcie", oracleLink, 200*time.Nanosecond), host, f, nil)
	drv := nvme.NewDriver(env, qs)
	rng := rand.New(rand.NewSource(seed))

	var (
		want    [oracleLBAs][]byte // last acknowledged image
		busy    [oracleLBAs]bool   // a command on this LBA is in flight
		version uint64
		failure string
		running = oracleQD
	)
	fail := func(format string, args ...any) {
		if failure == "" {
			failure = fmt.Sprintf("t=%v: ", env.Now()) + fmt.Sprintf(format, args...)
		}
	}
	// write fills the process's write area with a fresh stamp per block,
	// writes it, and records the image once the command is acknowledged.
	write := func(p *sim.Proc, area int64, lba int64, n int) {
		mem := host.Bytes()
		for i := 0; i < n; i++ {
			version++
			blk := mem[area+int64(i*bs) : area+int64((i+1)*bs)]
			for j := 0; j+16 <= bs; j += 16 {
				binary.LittleEndian.PutUint64(blk[j:], version)
				binary.LittleEndian.PutUint64(blk[j+8:], uint64(lba)+uint64(i))
			}
		}
		c := drv.Submit(p, nvme.Command{Opcode: nvme.OpWrite, LBA: lba, Blocks: n, PRP: area})
		if c.Status != nvme.StatusSuccess {
			fail("write of LBA %d+%d: status %v", lba, n, c.Status)
			return
		}
		for i := 0; i < n; i++ {
			want[lba+int64(i)] = append([]byte(nil), mem[area+int64(i*bs):area+int64((i+1)*bs)]...)
		}
	}
	env.Go("prologue", func(p *sim.Proc) {
		// Map every LBA first, so every read has an image to return.
		for lba := int64(0); lba < oracleLBAs; lba++ {
			write(p, 0, lba, 1)
		}
		for q := 0; q < oracleQD; q++ {
			q := q
			env.Go("host", func(p *sim.Proc) {
				defer func() { running-- }()
				area := int64(q * 4 * bs)
				for op := 0; op < oracleOps && failure == ""; op++ {
					kind := rng.Intn(20)
					if kind == 0 {
						if c := drv.Submit(p, nvme.Command{Opcode: nvme.OpFlush}); c.Status != nvme.StatusSuccess {
							fail("flush: status %v", c.Status)
						}
						continue
					}
					n := 1 + rng.Intn(2)
					lba := rng.Int63n(oracleLBAs - int64(n) + 1)
					if busy[lba] || busy[lba+int64(n)-1] {
						p.Sleep(time.Microsecond)
						continue
					}
					for i := 0; i < n; i++ {
						busy[lba+int64(i)] = true
					}
					if kind < 10 {
						write(p, area, lba, n)
					} else {
						rd := area + int64(2*bs)
						c := drv.Submit(p, nvme.Command{Opcode: nvme.OpRead, LBA: lba, Blocks: n, PRP: rd})
						if c.Status != nvme.StatusSuccess {
							fail("read of LBA %d+%d: status %v", lba, n, c.Status)
						}
						for i := 0; i < n; i++ {
							got := host.Bytes()[rd+int64(i*bs) : rd+int64((i+1)*bs)]
							if !bytes.Equal(got, want[lba+int64(i)]) {
								fail("read of LBA %d returned version %d, last acknowledged is %d",
									lba+int64(i), binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(want[lba+int64(i)]))
							}
						}
					}
					for i := 0; i < n; i++ {
						busy[lba+int64(i)] = false
					}
				}
			})
		}
	})
	checked := false
	env.Go("final", func(p *sim.Proc) {
		for running > 0 {
			p.Sleep(10 * time.Microsecond)
		}
		if c := drv.Submit(p, nvme.Command{Opcode: nvme.OpFlush}); c.Status != nvme.StatusSuccess {
			fail("final flush: status %v", c.Status)
		}
		for lba := int64(0); lba < oracleLBAs; lba++ {
			got, err := f.Read(p, lba)
			if err != nil {
				fail("flash read of LBA %d: %v", lba, err)
			} else if !bytes.Equal(got, want[lba]) {
				fail("after flush LBA %d holds version %d on flash, last acknowledged is %d",
					lba, binary.LittleEndian.Uint64(got), binary.LittleEndian.Uint64(want[lba]))
			}
		}
		checked = true
	})
	env.RunUntil(10 * time.Second)
	switch {
	case failure != "":
		return failure
	case !checked:
		return fmt.Sprintf("the run did not finish: %d host processes still running", running)
	}
	if _, _, _, _, errs := ctrl.Stats(); errs != 0 {
		return fmt.Sprintf("controller counted %d errors", errs)
	}
	return ""
}

// TestQuickLastAcknowledgedWriteWins is the conventional side's oracle
// property (the last acknowledged write of an LBA wins): random command
// mixes at queue depth oracleQD over oracleLBAs blocks, on an array whose
// collector never idles, checked by runOracle. It scales with -quickchecks.
func TestQuickLastAcknowledgedWriteWins(t *testing.T) {
	scale := 0.3
	if testing.Short() {
		scale = 0.1
	}
	runs := 0
	prop := func(seed int64) bool {
		runs++
		if msg := runOracle(seed); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCountScale: scale, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatalf("after %d runs: %v", runs, err)
	}
}
