// Command univistor-sim runs a single configurable experiment on the
// simulated cluster and emits the measurements as JSON — the building block
// for scripting custom sweeps beyond the paper's figures.
//
// Usage:
//
//	univistor-sim -procs 256 -mb 256 -tiers dram,bb -read -flush
//	univistor-sim -procs 64 -driver lustre
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"univistor/internal/bench"
	"univistor/internal/castore"
	"univistor/internal/chaos"
	"univistor/internal/core"
	"univistor/internal/gateway"
	"univistor/internal/meta"
	"univistor/internal/metaplane"
	"univistor/internal/sim"
	"univistor/internal/trace"
	"univistor/internal/workloads"
)

// Output is the JSON result document.
type Output struct {
	Driver       string  `json:"driver"`
	Procs        int     `json:"procs"`
	Nodes        int     `json:"nodes"`
	BytesPerRank int64   `json:"bytes_per_rank"`
	WriteSecs    float64 `json:"write_seconds"`
	WriteGiBs    float64 `json:"write_gib_per_sec"`
	ReadSecs     float64 `json:"read_seconds,omitempty"`
	ReadGiBs     float64 `json:"read_gib_per_sec,omitempty"`
	FlushSecs    float64 `json:"flush_seconds,omitempty"`
	FlushGiBs    float64 `json:"flush_gib_per_sec,omitempty"`
	VirtualEnd   float64 `json:"virtual_end_seconds"`

	// Stats is the full core counter snapshot (univistor driver only).
	Stats *core.Stats `json:"stats,omitempty"`
	// CAS is the content-addressed block store's counter snapshot, present
	// only with -dedup.
	CAS *castore.Stats `json:"cas,omitempty"`
	// MetaOps breaks the metadata record operations down by kind and by
	// serving store — per metadata server in ring mode, per shard with
	// -meta-shards (univistor driver only).
	MetaOps *core.MetaOpDetail `json:"meta_op_detail,omitempty"`
	// MetaPlane is the sharded metadata plane's counter snapshot, present
	// only with -meta-shards.
	MetaPlane *metaplane.Stats `json:"metaplane,omitempty"`
	// Alloc is the engine's cumulative flow-allocator counters.
	Alloc *sim.AllocStats `json:"alloc,omitempty"`
	// TraceSummary digests the recorded spans when -trace is given.
	TraceSummary *trace.Summary `json:"trace_summary,omitempty"`
	// Gateway is the multi-tenant front-end report when -gateway is given
	// (univistor driver only).
	Gateway *gateway.Report `json:"gateway,omitempty"`
	// Chaos is the fault-injection and invariant report when -chaos is
	// given. Same seed and flags, byte-identical document.
	Chaos *chaos.Report `json:"chaos,omitempty"`
	// ReadLostRanks counts ranks whose read-back hit data loss (crashed
	// producer, no replica, no flushed copy) — only possible under -chaos.
	ReadLostRanks int `json:"read_lost_ranks,omitempty"`
}

func main() {
	var (
		procs      = flag.Int("procs", 64, "client process count")
		perNode    = flag.Int("ranks-per-node", 32, "ranks per compute node")
		mb         = flag.Int64("mb", 256, "MiB written per process")
		segMB      = flag.Int64("seg-mb", 32, "MiB per write call")
		driver     = flag.String("driver", "univistor", "univistor | dataelevator | lustre")
		tiers      = flag.String("tiers", "dram,bb", "univistor cache tiers, any of dram,ssd,bb,object in any order: writes fill them fastest first (empty = straight to PFS)")
		doRead     = flag.Bool("read", false, "read the data back and report read rate")
		doFlush    = flag.Bool("flush", false, "flush to the PFS and report flush rate")
		noIA       = flag.Bool("no-ia", false, "disable interference-aware scheduling")
		noCOC      = flag.Bool("no-coc", false, "disable collective open/close")
		noADPT     = flag.Bool("no-adpt", false, "flush with the conventional stripe-all layout instead of adaptive striping")
		metaShards = flag.Int("meta-shards", 0,
			"run the metadata service as this many replicated shards (0 = legacy single ring; univistor driver only)")
		metaReplicas = flag.Int("meta-replicas", 1,
			"replication factor per metadata shard (requires -meta-shards)")
		metaFollowerReads = flag.Bool("meta-follower-reads", false,
			"serve metadata Stat/Lookup from lease-holding followers (requires -meta-shards; wants -meta-replicas > 1)")
		dedup = flag.Bool("dedup", false,
			"enable the content-addressed dedup flush layer (univistor driver only)")
		ckptSteps = flag.Int("ckpt", 0,
			"run the checkpoint kernel for this many time steps instead of the micro workload")
		ckptChange = flag.Float64("ckpt-change", 0.1,
			"checkpoint: fraction of each rank's segments changed between steps")
		ckptRetain = flag.Int("ckpt-retain", 0,
			"checkpoint: keep only this many newest step files, deleting older ones (0 = keep all)")
		gwMode = flag.Bool("gateway", false,
			"drive the system through the multi-tenant QoS gateway instead of the micro workload (univistor driver only)")
		tenants = flag.Int("tenants", 64, "gateway: simulated tenant count")
		zipfS   = flag.Float64("zipf", 1.2, "gateway: Zipf skew of object popularity (>1)")
		qos     = flag.Bool("qos", false, "gateway: enable per-tenant token-bucket admission, byte quotas and rate caps")
		gwOps   = flag.Int("gw-ops", 0, "gateway: closed-loop ops per tenant (0 = gateway default)")
		gwRate  = flag.Float64("gw-arrival", 0,
			"gateway: open-loop arrivals per tenant per virtual second (>0 switches from closed to open loop)")
		gwSecs  = flag.Float64("gw-seconds", 0, "gateway: open-loop duration in virtual seconds (0 = gateway default)")
		gwKiB   = flag.Int64("gw-kb", 0, "gateway: payload KiB per data op (0 = gateway default)")
		seed    = flag.Int64("seed", 1, "workload seed of -gateway, or of -ckpt with -dedup")
		traceTo = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto) to this path")
		chaosIn = flag.String("chaos", "", "chaos spec, e.g. seed=1,check=0.5,crash=0@2 (univistor driver only; exits 1 on invariant violations)")
	)
	// An unknown flag, such as one a release removed, is refused like any
	// other bad input: exit 1 with a univistor-sim: message naming it.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			flag.CommandLine.SetOutput(os.Stderr)
			flag.Usage()
			os.Exit(0)
		}
		fatal("%v", err)
	}
	for _, sz := range []struct {
		name string
		v    int64
	}{{"-procs", int64(*procs)}, {"-ranks-per-node", int64(*perNode)}, {"-mb", *mb}, {"-seg-mb", *segMB}} {
		if sz.v < 1 {
			fatal("%s must be at least 1, got %d", sz.name, sz.v)
		}
	}
	if !(*ckptChange >= 0 && *ckptChange <= 1) { // also rejects NaN
		fatal("-ckpt-change must lie in [0, 1], got %v", *ckptChange)
	}
	// Flags that would silently do nothing are refused; flag.Visit sees
	// only the flags set on the command line.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	requires := func(ok bool, need string, names ...string) {
		for _, name := range names {
			if !ok && set[name] {
				fatal("-%s requires %s", name, need)
			}
		}
	}
	requires(*driver == "univistor", "-driver univistor", "tiers", "no-ia", "no-coc", "no-adpt", "meta-shards",
		"meta-replicas", "meta-follower-reads", "dedup", "gateway", "chaos", "ckpt-retain")
	requires(*gwMode, "-gateway", "tenants", "zipf", "qos", "gw-ops", "gw-arrival", "gw-seconds", "gw-kb")
	requires(*gwRate > 0, "-gw-arrival", "gw-seconds")
	requires(*gwRate <= 0, "a closed loop (no -gw-arrival)", "gw-ops")
	requires(*ckptSteps > 0, "-ckpt", "ckpt-change", "ckpt-retain")
	// The checkpoint's change rate and seed only shape content tags, which
	// only the dedup layer reads.
	requires(*dedup, "-dedup", "ckpt-change")
	requires(*gwMode || *ckptSteps > 0 && *dedup, "-gateway, or -ckpt with -dedup", "seed")
	requires(*metaShards > 0, "-meta-shards", "meta-replicas", "meta-follower-reads")
	if *ckptSteps > 0 && *doRead {
		fatal("-read is not supported with -ckpt (the checkpoint kernel is write-only)")
	}
	if *gwMode && (*ckptSteps > 0 || *doRead || *doFlush) {
		fatal("-gateway drives its own workload; drop -ckpt/-read/-flush")
	}

	cc := core.DefaultConfig()
	cc.InterferenceAware = !*noIA
	cc.CollectiveOpenClose = !*noCOC
	if *noADPT {
		cc.FlushStriping = "stripe-all"
	}
	cc.FlushOnClose = *doFlush
	cc.MetaShards = *metaShards
	if *metaShards > 0 {
		cc.MetaReplicas = *metaReplicas
		cc.MetaFollowerReads = *metaFollowerReads
	}
	if *dedup {
		// One CAS block per write call.
		cc.Dedup = true
		cc.DedupBlockBytes = *segMB << 20
	}
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
	tc := bench.CoriCluster(*procs, *perNode)
	st, err := bench.NewStack(tc, *driver, cc, *chaosIn, *traceTo)
	if err != nil {
		fatal("%v", err)
	}

	out := Output{Driver: *driver, Procs: *procs, Nodes: tc.Nodes, BytesPerRank: *mb << 20}
	var end sim.Time
	switch {
	case *gwMode:
		gcfg := gateway.DefaultConfig()
		gcfg.Tenants = *tenants
		gcfg.ZipfS = *zipfS
		gcfg.QoS = *qos
		gcfg.Seed = *seed
		if *gwOps > 0 {
			gcfg.OpsPerTenant = *gwOps
		}
		if *gwKiB > 0 {
			gcfg.OpBytes = *gwKiB << 10
		}
		if *gwRate > 0 {
			gcfg.ArrivalRate = *gwRate
			gcfg.OpsPerTenant = 0
			gcfg.DurationSeconds = 3
		}
		if *gwSecs > 0 {
			gcfg.DurationSeconds = *gwSecs
		}
		rep, gwEnd, err := st.Gateway(gcfg)
		if err != nil {
			fatal("%v", err)
		}
		// The report counts tenants, not ranks, and no per-rank block.
		out.Procs, out.BytesPerRank = gcfg.Tenants, 0
		out.Gateway, end = &rep, gwEnd
	case *ckptSteps > 0:
		// The checkpoint kernel: segments sized to the write call, each
		// step's flush triggered explicitly inside the kernel.
		ccfg := workloads.CheckpointConfig{
			SegmentsPerRank: max(1, int(*mb / *segMB)),
			SegmentBytes:    *segMB << 20,
			TimeSteps:       *ckptSteps,
			ChangeRate:      *ckptChange,
			ComputeSeconds:  5,
			Seed:            *seed,
			Retention:       *ckptRetain,
		}
		ck, err := st.Checkpoint(*procs, *perNode, ccfg)
		if err != nil {
			fatal("%v", err)
		}
		end = ck.End
		out.WriteSecs = float64(ck.TotalIO)
	default:
		cfg := workloads.MicroConfig{BytesPerRank: *mb << 20, SegmentBytes: *segMB << 20, FileName: "sim.h5"}
		m, err := st.Micro(*procs, *perNode, cfg, *doRead, *doFlush)
		if err != nil {
			fatal("%v", err)
		}
		end = m.End
		out.WriteSecs = float64(m.Write)
		out.ReadSecs = float64(m.Read)
		out.ReadLostRanks = m.ReadLost
		if m.FlushTime > 0 {
			out.FlushSecs = float64(m.FlushTime)
			out.FlushGiBs = float64(m.FlushBytes) / out.FlushSecs / gib
		}
	}
	out.VirtualEnd = float64(end)
	total := float64(*procs) * float64(out.BytesPerRank)
	if out.WriteSecs > 0 {
		out.WriteGiBs = total / out.WriteSecs / gib
	}
	if out.ReadSecs > 0 {
		out.ReadGiBs = total / out.ReadSecs / gib
	}
	report(out, st)
}

const gib = float64(1 << 30)

// report completes out with the counter snapshots every run carries — the
// core, dedup, metadata and plane counters (univistor driver only), the
// allocator counters, the chaos report and the trace summary — writes the
// trace file, and prints the JSON document. It exits 1 when the chaos
// sweep found invariant violations.
func report(out Output, st *bench.Stack) {
	if uv := st.UV; uv != nil {
		cs := uv.Sys.Stats()
		out.Stats = &cs
		out.CAS = uv.Sys.CASStats()
		d := uv.Sys.MetaOpDetail()
		out.MetaOps = &d
		if pl := uv.Sys.Plane(); pl != nil {
			pst := pl.Stats()
			out.MetaPlane = &pst
		}
	}
	as := st.E.AllocStats()
	out.Alloc = &as
	rep, err := st.Finish()
	if err != nil {
		fatal("%v", err)
	}
	out.Chaos = rep
	if st.Rec != nil {
		out.TraceSummary = st.Rec.Summarize(8)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal("%v", err)
	}
	if out.Chaos != nil && len(out.Chaos.Violations) > 0 {
		fatal("%d invariant violation(s) under chaos", len(out.Chaos.Violations))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "univistor-sim: "+format+"\n", args...)
	os.Exit(1)
}
