// Tiering example: watch Distributed and Hierarchical data Placement (DHP)
// spill a growing dataset across the storage hierarchy. The per-process
// DRAM log is deliberately tiny, so successive writes walk DRAM → burst
// buffer → parallel file system; the metadata service then tells us exactly
// where every segment landed, via its virtual address (Eq. 1).
package main

import (
	"fmt"
	"log"

	"univistor"
	"univistor/internal/meta"
)

func main() {
	opts := univistor.Defaults()
	opts.Machine.Nodes = 2
	opts.Machine.BBNodes = 2
	// Tiny logs: 4 MiB of DRAM and 4 MiB of BB per process.
	opts.Service.ChunkSize = 1 << 20
	opts.Service.DRAMLogBytes = 4 << 20
	opts.Service.BBLogBytes = 4 << 20
	opts.Service.FlushOnClose = false

	cluster, err := univistor.New(opts)
	if err != nil {
		log.Fatalf("building cluster: %v", err)
	}

	const (
		segments = 12
		segBytes = int64(1) << 20
	)

	job := cluster.Launch("tiering", 1, func(a *univistor.App) {
		f, err := a.Create("big.dat")
		if err != nil {
			log.Fatalf("create: %v", err)
		}
		for i := int64(0); i < segments; i++ {
			if err := f.WriteAt(i*segBytes, segBytes, nil); err != nil {
				log.Fatalf("write %d: %v", i, err)
			}
		}
		f.Close()
	}, univistor.WithRanksPerNode(1))

	if _, err := cluster.Run(job); err != nil {
		log.Fatalf("simulation: %v", err)
	}

	// Walk the file's metadata records and decode each segment's virtual
	// address.
	fmt.Printf("segment placement for big.dat (%d × %d MiB):\n", segments, segBytes>>20)
	counts := map[meta.Tier]int{}
	for _, rec := range cluster.System.Segments("big.dat") {
		// All segments came from one producer; its address space lives on
		// the client file handle the system retains.
		tier := tierOf(cluster, rec)
		counts[tier]++
		fmt.Printf("  offset %3d MiB  →  VA %10d  on %s\n", rec.Offset>>20, rec.VA, tier)
	}
	fmt.Println("\ntier totals:")
	for _, t := range []meta.Tier{meta.TierDRAM, meta.TierBB, meta.TierPFS} {
		fmt.Printf("  %-5s %2d segments\n", t, counts[t])
	}
}

// tierOf decodes a record's tier using the DRAM/BB log sizes configured
// above (4 MiB each, chunk-aligned).
func tierOf(cluster *univistor.Cluster, rec meta.Record) meta.Tier {
	space, err := meta.NewAddressSpace([meta.NumTiers]int64{4 << 20, 0, 4 << 20, 0})
	if err != nil {
		log.Fatal(err)
	}
	tier, _, err := space.Decode(rec.VA)
	if err != nil {
		log.Fatal(err)
	}
	return tier
}
