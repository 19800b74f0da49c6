package main

// One run of one scenario in a fresh process. The parent re-executes its
// own binary with -child; the child builds the scenario, runs it, checks it
// and prints one runRecord as JSON on standard output.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"univistor/internal/trace"
)

// Child modes.
const (
	modeSetup   = "setup"   // build the scenario only: set-up time
	modeMeasure = "measure" // build and run, untraced
	modeProfile = "profile" // run under the CPU profiler
	modeRecord  = "record"  // run with a trace recorder, then export it
)

// runRecord is what one child reports.
type runRecord struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Div        int      `json:"div"`
	Mode       string   `json:"mode"`
	Digest     string   `json:"digest,omitempty"`
	Violations []string `json:"violations,omitempty"`
	// Err is set by the parent when the child failed to report.
	Err string `json:"error,omitempty"`

	// CalS is the parent's calibration at the start of the run's round; 0
	// for a run outside a round.
	CalS float64 `json:"cal_s"`

	Ops       int64   `json:"ops"`
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`

	// Runtime counters over Run.
	GCCycles   float64 `json:"gc_cycles"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	SchedCount float64 `json:"sched_latency_samples"`
	SchedWaitS float64 `json:"sched_wait_s"`

	// Counters are the per-layer counters read from public accessors after
	// Run, keyed by their per-layer metric name.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Layers is the CPU seconds per layer (profile mode).
	Layers map[string]float64 `json:"layers,omitempty"`
	// TraceEvents and ExportS describe the recorder (record mode).
	TraceEvents int64   `json:"trace_events,omitempty"`
	ExportS     float64 `json:"export_s,omitempty"`
}

// failed reports whether the run counts as failed.
func (r *runRecord) failed() bool { return r.Err != "" || len(r.Violations) > 0 }

// benchProcs is the worker count of every run: GOMAXPROCS and the solver
// pool both get min(2, nproc), so the load stays within the host's CPUs.
func benchProcs() int { return min(2, runtime.NumCPU()) }

// runChild executes one child run and writes its record to stdout.
func runChild(mode, name string, seed int64, div int, workdir string) error {
	runtime.GOMAXPROCS(benchProcs())
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rec := runRecord{Workload: name, Seed: seed, Div: div, Mode: mode}
	var tr *trace.Recorder
	if mode == modeRecord {
		tr = trace.New()
	}

	t0 := time.Now()
	sc, err := w.build(seed, div, tr)
	if err != nil {
		return fmt.Errorf("building %s: %w", name, err)
	}
	rec.SetupS = time.Since(t0).Seconds()
	if mode == modeSetup {
		return json.NewEncoder(os.Stdout).Encode(rec)
	}

	// Start every run from the same heap: the set-up garbage is not the
	// measured work's to collect.
	runtime.GC()
	var prof bytes.Buffer
	if mode == modeProfile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("starting profiler: %w", err)
		}
	}
	m0 := readRuntime()
	t1 := time.Now()
	end := sc.e.Run()
	rec.WallS = time.Since(t1).Seconds()
	m1 := readRuntime()
	if mode == modeProfile {
		pprof.StopCPUProfile()
	}

	rec.AllocMB = (m1.allocBytes - m0.allocBytes) / (1 << 20)
	rec.GCCycles = m1.gcCycles - m0.gcCycles
	rec.GCCPUS = m1.gcCPU - m0.gcCPU
	rec.SchedCount = m1.schedCount - m0.schedCount
	rec.SchedWaitS = m1.schedWait - m0.schedWait
	rec.Ops = sc.ops()
	if rec.Digest, err = sc.digest(end); err != nil {
		return err
	}
	rec.Violations = sc.violations()
	rec.Counters = sc.counters()

	switch mode {
	case modeProfile:
		p, err := decodeProfile(prof.Bytes())
		if err != nil {
			return err
		}
		rec.Layers = layerSeconds(p)
	case modeRecord:
		rec.TraceEvents = int64(tr.Events())
		out := filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.json", name, os.Getpid()))
		t2 := time.Now()
		if err := tr.ExportChromeFile(out); err != nil {
			return fmt.Errorf("exporting trace: %w", err)
		}
		rec.ExportS = time.Since(t2).Seconds()
		if err := os.Remove(out); err != nil {
			return fmt.Errorf("removing exported trace: %w", err)
		}
	}
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}

// counters reads the per-layer counters from the system's public
// accessors after Run; layers the workload does not use are left out.
func (sc *scenario) counters() map[string]float64 {
	as := sc.e.AllocStats()
	st := sc.sys.Stats()
	md := sc.sys.MetaOpDetail()
	const gib = 1 << 30
	c := map[string]float64{
		"sim.alloc.recomputes":        float64(as.Recomputes),
		"sim.alloc.flows_solved":      float64(as.FlowsSolved),
		"sim.alloc.components_solved": float64(as.ComponentsSolved),
		"sim.alloc.merges":            float64(as.Merges),
		"sim.alloc.splits":            float64(as.Splits),
		"sim.alloc.parallel_batches":  float64(sc.e.ParallelStats().Batches),
		"core.meta_ops":               float64(st.MetaOps),
		"core.open_ops":               float64(st.OpenOps),
		"core.spills":                 float64(st.Spills),
		"core.flushes":                float64(st.Flushes),
		"core.moved_gib":              float64(st.TotalBytesWritten()+st.TotalBytesRead()+st.BytesFlushed) / gib,
		"kvstore.ops":                 float64(md.Puts + md.Gets + md.Coverings + md.Deletes + md.StatOps),
	}
	if pl := sc.sys.Plane(); pl != nil {
		ps := pl.Stats()
		c["metaplane.ops"] = float64(ps.TotalOps)
		c["metaplane.lease_grants"] = float64(ps.LeaseGrants)
		c["metaplane.follower_reads"] = float64(ps.FollowerReads)
		c["metaplane.split_records"] = float64(ps.SplitRecords)
	}
	if cs := sc.sys.CASStats(); cs != nil {
		c["castore.dedup_hits"] = float64(cs.DedupHits)
		c["castore.gc_batches"] = float64(cs.GCBatches)
		if st.BytesFlushed > 0 {
			c["castore.physical_frac"] = float64(st.BytesFlushedPhysical) / float64(st.BytesFlushed)
		}
	}
	if sc.gw != nil {
		rep := sc.gw.Report()
		c["gateway.ops_completed"] = float64(rep.Completed)
		c["gateway.ops_rejected"] = float64(rep.Rejected)
		c["gateway.admission_wait_s"] = rep.AdmissionWaitSeconds
	}
	return c
}

// runtimeSnapshot holds the runtime/metrics values read around Run.
type runtimeSnapshot struct {
	allocBytes, gcCycles, gcCPU float64
	schedCount, schedWait       float64
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	snap := runtimeSnapshot{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
	}
	// The scheduling-latency histogram: count its samples and estimate
	// their total from bucket midpoints (open-ended buckets use their
	// finite edge).
	h := s[3].Value.Float64Histogram()
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		snap.schedCount += float64(n)
		snap.schedWait += float64(n) * mid
	}
	return snap
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}
