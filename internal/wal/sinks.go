package wal

import (
	"errors"
	"fmt"

	"xssd/internal/nvme"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/xapi"
)

// ErrSinkWrite reports a failed sink write; concrete failures wrap it
// with command context. Match with errors.Is.
var ErrSinkWrite = errors.New("wal: sink write failed")

// VillarsSink persists batches through the Villars fast side: XPwrite to
// the CMB window, XFsync on the credit counter (paper Fig 9's
// Villars-SRAM / Villars-DRAM series).
type VillarsSink struct {
	logger *xapi.Logger
	name   string
}

// NewVillarsSink binds a sink to dev's fast side. Must run in process
// context.
func NewVillarsSink(p *sim.Proc, dev *villars.Device, name string) *VillarsSink {
	return &VillarsSink{logger: xapi.Open(p, dev, xapi.Options{}), name: name}
}

// Write implements Sink. A power loss under the write surfaces as
// ErrSinkLost so the pipeline can halt instead of panicking.
func (s *VillarsSink) Write(p *sim.Proc, data []byte) error {
	s.logger.XPwrite(p, data)
	if err := s.logger.XFsync(p); err != nil {
		if errors.Is(err, xapi.ErrPowerLoss) {
			return fmt.Errorf("%w: %s: %w", ErrSinkLost, s.name, err)
		}
		return fmt.Errorf("%w: %s: %w", ErrSinkWrite, s.name, err)
	}
	return nil
}

// Name implements Sink.
func (s *VillarsSink) Name() string { return s.name }

// Rebind points the sink at a different device mid-stream — the failover
// path: after a secondary is promoted, the host reopens the drop-in API
// against it, resuming the stream at off, the promoted device's persisted
// frontier (its credit counter already vouches for every byte below).
func (s *VillarsSink) Rebind(p *sim.Proc, dev *villars.Device, off int64) {
	s.logger = xapi.Open(p, dev, xapi.Options{ResumeAt: off})
}

// MemorySink persists batches to host NVDIMM via plain stores plus a
// persistence fence (the paper's "Memory" baseline; ERMIA emulates PM the
// same way). The application remains responsible for eventually destaging
// — the paper's four-data-movement path — which this sink models with an
// optional background drain against an NVMe sink.
type MemorySink struct {
	bank *pm.Bank
}

// NewMemorySink creates the NVDIMM baseline sink.
func NewMemorySink(env *sim.Env, spec pm.Spec) *MemorySink {
	return &MemorySink{bank: pm.NewBank(env, spec)}
}

// Write implements Sink: one store stream plus fence latency.
func (s *MemorySink) Write(p *sim.Proc, data []byte) error {
	s.bank.Write(p, len(data))
	return nil
}

// Name implements Sink.
func (s *MemorySink) Name() string { return "Memory" }

// NVMeSink persists batches as block writes on the conventional side of a
// device, queue depth 1 (the paper Fig 9's "NVMe" series: "the logging
// workload has a queue depth of 1").
type NVMeSink struct {
	dev      *villars.Device
	driver   *nvme.Driver
	hostMem  *pcie.HostMemory
	scratch  int64
	startLBA int64
	nextLBA  int64
	lbaEnd   int64
}

// NewNVMeSink creates a conventional-path sink writing sequentially from
// startLBA for lbaCount blocks (wrapping, like a log file being recycled).
func NewNVMeSink(dev *villars.Device, hostMem *pcie.HostMemory, scratch, startLBA, lbaCount int64) *NVMeSink {
	return &NVMeSink{
		dev:      dev,
		driver:   dev.HostDriver(),
		hostMem:  hostMem,
		scratch:  scratch,
		startLBA: startLBA,
		nextLBA:  startLBA,
		lbaEnd:   startLBA + lbaCount,
	}
}

// Write implements Sink: copy into the DMA buffer, issue one NVMe write,
// wait for its completion.
func (s *NVMeSink) Write(p *sim.Proc, data []byte) error {
	bs := s.dev.BlockSize()
	blocks := (len(data) + bs - 1) / bs
	copy(s.hostMem.Bytes()[s.scratch:], data)
	if s.nextLBA+int64(blocks) > s.lbaEnd {
		s.nextLBA = s.startLBA // recycle the log range
	}
	lba := s.nextLBA
	c := s.driver.Submit(p, nvme.Command{Opcode: nvme.OpWrite, LBA: lba, Blocks: blocks, PRP: s.scratch})
	s.nextLBA += int64(blocks)
	if c.Status != nvme.StatusSuccess {
		return fmt.Errorf("%w: NVMe write of %d blocks at lba %d, status %d", ErrSinkWrite, blocks, lba, c.Status)
	}
	return nil
}

// Name implements Sink.
func (s *NVMeSink) Name() string { return "NVMe" }
