// Command univistor-trace is the tracing front-end: it runs a small
// configurable UniviStor workload with the trace recorder attached, writes
// the Chrome trace-event JSON (load it at ui.perfetto.dev), and prints the
// span/resource summary digest.
//
// Usage:
//
//	univistor-trace -procs 16 -mb 32 -tiers dram,bb -read -flush -o trace.json
//	univistor-trace -check trace.json    # validate an exported trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"univistor/internal/core"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/trace"
	"univistor/internal/workloads"
)

func main() {
	var (
		procs   = flag.Int("procs", 16, "client process count")
		perNode = flag.Int("ranks-per-node", 8, "ranks per compute node")
		mb      = flag.Int64("mb", 32, "MiB written per process")
		segMB   = flag.Int64("seg-mb", 8, "MiB per write call")
		tiers   = flag.String("tiers", "dram,bb", "cache tiers: dram,ssd,bb,object (empty = straight to PFS)")
		doRead  = flag.Bool("read", false, "read the data back after writing")
		doFlush = flag.Bool("flush", false, "flush to the PFS on close")
		out     = flag.String("o", "trace.json", "output path for the Chrome trace-event JSON")
		check   = flag.String("check", "", "validate an existing trace file instead of running (exit 1 on invalid)")
	)
	flag.Parse()

	if *check != "" {
		runCheck(*check)
		return
	}

	tc := topology.Cori()
	nodes := (*procs + *perNode - 1) / *perNode
	if nodes < 1 {
		nodes = 1
	}
	tc.Nodes = nodes
	tc.BBNodes = nodes / 2
	if tc.BBNodes < 2 {
		tc.BBNodes = 2
	}

	e := sim.NewEngine()
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.InterferenceAware)
	rec := trace.New()
	w.SetTrace(rec)

	cc := core.DefaultConfig()
	cc.FlushOnClose = *doFlush
	cc.CacheTiers = nil
	for _, tok := range strings.Split(*tiers, ",") {
		switch strings.TrimSpace(tok) {
		case "dram":
			cc.CacheTiers = append(cc.CacheTiers, meta.TierDRAM)
		case "ssd":
			cc.CacheTiers = append(cc.CacheTiers, meta.TierLocalSSD)
		case "bb":
			cc.CacheTiers = append(cc.CacheTiers, meta.TierBB)
		case "object":
			cc.CacheTiers = append(cc.CacheTiers, meta.TierObject)
		case "":
		default:
			fatal("unknown tier %q", tok)
		}
	}
	sys, err := core.NewSystem(w, cc)
	if err != nil {
		fatal("%v", err)
	}
	uv := mpiio.NewUniviStorDriver(sys)
	env, err := mpiio.NewEnv("univistor", uv)
	if err != nil {
		fatal("%v", err)
	}

	cfg := workloads.MicroConfig{
		BytesPerRank: *mb << 20,
		SegmentBytes: *segMB << 20,
		FileName:     "trace.h5",
	}
	app := w.Launch("app", *procs, func(r *mpi.Rank) {
		if _, err := workloads.MicroWrite(r, env, cfg); err != nil {
			fatal("write: %v", err)
		}
		r.Barrier()
		if *doFlush || *doRead {
			uv.Sys.WaitFlush(r.P, cfg.FileName)
			r.Barrier()
		}
		if *doRead {
			if _, err := workloads.MicroRead(r, env, cfg); err != nil {
				fatal("read: %v", err)
			}
		}
		uv.Disconnect(r)
	}, mpi.LaunchOpts{RanksPerNode: *perNode})
	e.Go("janitor", func(p *sim.Proc) {
		app.Wait(p)
		uv.Sys.Shutdown()
	})
	e.Run()
	if d := e.Deadlocked(); d != 0 {
		fatal("%d simulated processes deadlocked", d)
	}

	if err := rec.ExportChromeFile(*out); err != nil {
		fatal("writing trace: %v", err)
	}
	fmt.Printf("wrote %s (%d events, %d flows) — open it at ui.perfetto.dev\n\n",
		*out, rec.Events(), rec.Flows())
	rec.Summarize(12).Format(os.Stdout)
}

// runCheck validates an exported trace file and prints what it found.
func runCheck(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	rep, err := trace.ValidateChrome(data)
	if err != nil {
		fatal("invalid trace %s: %v", path, err)
	}
	fmt.Printf("%s: valid — %d events, %d spans, %d flows, %d resource tracks, %d counter series\n",
		path, rep.Events, rep.Spans, rep.Flows, len(rep.Resources), len(rep.Counters))
	fmt.Printf("categories: %s\n", strings.Join(rep.Categories, ", "))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "univistor-trace: "+format+"\n", args...)
	os.Exit(1)
}
