// Journal: the paper's §7.2 non-database use case — a journaled
// file-system commit path (ext4/JBD2-style) using the X-SSD fast side as
// its journal area. With replication off, the CMB acts as a low-latency
// append region with precise crash semantics; the journal's checkpointing
// corresponds to the device's automatic destaging.
//
// The example also exercises the §5.2 advanced API: each journal
// transaction allocates a fast-side area, fills its blocks in arbitrary
// order (as parallel flushers would) and frees it, which makes the area
// destage-eligible as a unit.
package main

import (
	"encoding/binary"
	"fmt"

	"xssd"
)

// journalBlock is a fixed-size journal record (a metadata block image).
const journalBlock = 512

func main() {
	sys := xssd.NewSystem(21)
	dev, err := sys.NewDevice(xssd.DeviceOptions{
		Name:    "jbd",
		Backing: xssd.SRAM,
		// Opt into the multi-queue host interface: four SQ/CQ pairs,
		// completion interrupts coalesced four at a time (or 8 µs after the
		// first pending completion, whichever comes first). Leaving Queues
		// nil keeps the classic single-pair interface.
		Queues: &xssd.QueueOptions{Pairs: 4, CoalesceOps: 4},
	})
	if err != nil {
		panic(err)
	}

	sys.Run(func(p *xssd.Proc) {
		log := dev.OpenLog(p)

		// Commit three journal transactions, each with a handful of
		// metadata blocks written out of order into an allocated area.
		var journalled int64
		for txn := 1; txn <= 3; txn++ {
			blocks := 2 + txn // growing transactions
			size := blocks * journalBlock
			start, err := log.Alloc(p, size)
			if err != nil {
				panic(err)
			}
			// Parallel flushers fill the area back to front.
			for b := blocks - 1; b >= 0; b-- {
				block := make([]byte, journalBlock)
				binary.LittleEndian.PutUint32(block[0:4], uint32(txn))
				binary.LittleEndian.PutUint32(block[4:8], uint32(b))
				copy(block[8:], fmt.Sprintf("inode-update tx=%d block=%d", txn, b))
				if err := log.WriteAt(p, start+int64(b*journalBlock), block); err != nil {
					panic(err)
				}
			}
			// Commit record: freeing the area seals the transaction and
			// lets the device destage (checkpoint) it.
			if err := log.Free(p, start); err != nil {
				panic(err)
			}
			journalled += int64(size)
			fmt.Printf("t=%-12v journal txn %d committed: %d blocks at offset %d\n",
				p.Now(), txn, blocks, start)
		}

		// Wait for the device to checkpoint everything to flash.
		for dev.Stats().Destage.Stream < journalled {
			p.Sleep(1 << 20) // ~1ms
		}
		st := dev.Stats().Destage
		fmt.Printf("t=%-12v checkpoint complete: %d bytes destaged in %d pages\n",
			p.Now(), st.Stream, st.Pages)

		// Crash: whatever the journal had committed survives as a
		// gap-free prefix (precise crash semantics, §4.1).
		dev.InjectPowerLoss()
	})
	sys.RunFor(1 << 28) // let the drain finish
	fmt.Printf("post-crash drain complete: %v\n", dev.Drained())
}
