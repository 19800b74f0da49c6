// Command benchmark is the measurement of record for the UniviStor
// simulator's host performance: four fixed scenarios, each run repeatedly
// in fresh child processes, checked, and reported end to end and per layer.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh -label mine            # all workloads, measuredRuns rounds each
//	bash benchmark/run.sh -workload gateway -seconds 25 -trace 1
//	bash benchmark/run.sh -check                 # pinned digests, seeds 1 and 2
//	bash benchmark/run.sh -compare benchmark/results/a.json benchmark/results/b.json
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// digestsJSON pins the reference digest of every workload at full scale,
// per seed: {"workflow": {"1": "…", "2": "…"}, …}.
//
//go:embed digests.json
var digestsJSON []byte

// setupPerRound is the number of set-up-only runs after each measured run;
// with the measured runs' own set-ups they give setup_s its median.
const setupPerRound = 2

// measuredRuns is the number of measured runs per workload in a full
// invocation.
const measuredRuns = 7

// profileRound is the full invocation's round after which each workload's
// profiled run follows its measured run directly.
const profileRound = measuredRuns / 2

// traceDiv is the scale divisor of the program-trace pass: at full scale
// the recorder's memory grows past what a small host holds.
const traceDiv = 8

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all, interleaved)")
		seed     = flag.Int64("seed", 1, "workload seed (feeds the gateway and ckpt RNGs)")
		seconds  = flag.Float64("seconds", 0, "with -workload: measure for this many seconds")
		traced   = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
		label    = flag.String("label", "", "write every run and the host fingerprint to benchmark/results/<label>.json")
		check    = flag.Bool("check", false, "run each workload once per pinned seed and compare digests")
		compare  = flag.Bool("compare", false, "compare two results files: -compare base.json change.json")
		child    = flag.String("child", "", "internal: run one child of this mode")
		div      = flag.Int("div", 1, "internal: scale divisor of a child run")
		workdir  = flag.String("workdir", "", "internal: scratch directory for exported traces")
	)
	flag.Parse()
	if *child != "" {
		if err := runChild(*child, *workload, *seed, *div, *workdir); err != nil {
			fatal(err)
		}
		return
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two results files"))
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), filepath.Join(root, "BENCHMARK.json"), os.Stdout); err != nil {
			fatal(err)
		}
		return
	case flag.NArg() != 0:
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case *workload != "":
		if _, ok := workloadByName(*workload); !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		if !(*seconds > 0) {
			fatal(errors.New("-workload needs -seconds above 0"))
		}
	case *seconds != 0 || *traced != 0:
		fatal(errors.New("-seconds and -trace need -workload"))
	}
	r, err := newRunner(root)
	if err != nil {
		fatal(err)
	}
	var ok bool
	switch {
	case *check:
		ok = r.check()
	case *workload != "":
		// The result line carries correctness; the exit status says only
		// that a result was printed.
		r.single(*workload, *seed, *seconds, *traced == 1)
		return
	default:
		ok, err = r.full(*seed, *label)
		if err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// repoRoot finds the repository root: the directory holding
// BENCHMARK.json, the working directory or its parent.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root")
}

// runner launches child runs of its own binary.
type runner struct {
	exe, root, workdir string
	pinned             map[string]map[string]string
	deadline           time.Time // zero: none
	cal                *calibrator
}

func newRunner(root string) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	r := &runner{exe: exe, root: root, workdir: filepath.Join(root, ".bench_build"), cal: newCalibrator()}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(digestsJSON, &r.pinned); err != nil {
		return nil, fmt.Errorf("parsing pinned digests: %w", err)
	}
	return r, nil
}

// pinnedDigest returns the reference digest of a full-scale run, if pinned.
func (r *runner) pinnedDigest(name string, seed int64) string {
	return r.pinned[name][strconv.FormatInt(seed, 10)]
}

// childTimeout bounds one child run when no overall deadline is set.
const childTimeout = 5 * time.Minute

// child runs one child process to completion and returns its record. A
// child that fails to report is returned with Err set.
func (r *runner) child(mode, name string, seed int64, div int) runRecord {
	rec := runRecord{Workload: name, Seed: seed, Div: div, Mode: mode}
	deadline := time.Now().Add(childTimeout)
	if !r.deadline.IsZero() {
		deadline = r.deadline
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-div", strconv.Itoa(div), "-workdir", r.workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		rec.Err = fmt.Sprintf("child %s: %v", mode, err)
		return rec
	}
	if err := json.Unmarshal(out, &rec); err != nil {
		rec.Err = fmt.Sprintf("child %s: bad report: %v", mode, err)
	}
	return rec
}

// round calibrates, then makes setupPerRound set-up-only runs and one
// measured run of the workload, which all carry that calibration.
func (r *runner) round(wr *workloadRuns, seed int64) runRecord {
	cal := r.cal.run()
	for i := 0; i < setupPerRound; i++ {
		s := r.child(modeSetup, wr.Name, seed, 1)
		s.CalS = cal
		wr.Setup = append(wr.Setup, s)
	}
	m := r.child(modeMeasure, wr.Name, seed, 1)
	m.CalS = cal
	wr.Measured = append(wr.Measured, m)
	return m
}

// profile adds the profiled full-scale run. It directly follows a measured
// run of the same workload, which profile_overhead_frac compares it with.
func (r *runner) profile(wr *workloadRuns, seed int64) {
	p := r.child(modeProfile, wr.Name, seed, 1)
	wr.Profile = &p
	wr.ProfileAfter = len(wr.Measured) - 1
}

// recordPass adds the reduced-scale plain/recorded pair.
func (r *runner) recordPass(wr *workloadRuns, seed int64) {
	pl := r.child(modeMeasure, wr.Name, seed, traceDiv)
	wr.Plain = &pl
	rc := r.child(modeRecord, wr.Name, seed, traceDiv)
	wr.Record = &rc
}

// hardLimit keeps a single-workload invocation inside three minutes.
const hardLimit = 170 * time.Second

// recordReserve is the time kept back before hardLimit for the
// reduced-scale pair that ends a traced invocation.
const recordReserve = 20 * time.Second

// moreRuns reports whether a single-workload invocation starts another
// round, given the rounds made so far, the time elapsed, the last round's
// duration, the budget and the time left before the hard limit. The first
// round starts while any time is left; each later one starts while it is
// expected to end no more than half a round past the budget, so the
// invocation lasts about the budget on average, and to end before the
// hard limit.
func moreRuns(n int, elapsed, last, budget, left time.Duration) bool {
	if n == 0 {
		return left > 0
	}
	return elapsed+last/2 <= budget && last < left
}

// single measures one workload: rounds for the given seconds, with the
// profiled run after the first measured run when traced, then the
// reduced-scale pair when traced. The last line of output is the JSON
// result.
func (r *runner) single(name string, seed int64, seconds float64, traced bool) {
	start := time.Now()
	r.deadline = start.Add(hardLimit)
	reserve := time.Duration(0)
	if traced {
		reserve = recordReserve
	}
	wr := &workloadRuns{Name: name}
	budget := time.Duration(seconds * float64(time.Second))
	var last time.Duration
	for moreRuns(len(wr.Measured), time.Since(start), last, budget, time.Until(r.deadline)-reserve) {
		t := time.Now()
		r.round(wr, seed)
		last = time.Since(t)
		if traced && wr.Profile == nil {
			r.profile(wr, seed)
		}
	}
	if len(wr.Measured) == 0 {
		fatal(errors.New("no time left for a measured run"))
	}
	if traced {
		r.recordPass(wr, seed)
	}
	attempted, failed := wr.verify(r.pinnedDigest(name, seed))
	for _, p := range wr.problems() {
		fmt.Fprintln(os.Stderr, "FAIL", p)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s, seed %d: %d runs attempted, %d failed; host times scaled by %.4f (median)\n",
		name, seed, attempted, failed, wr.speed())
	if traced {
		pl := wr.perLayer()
		fmt.Fprintln(tw, "metric\tunit\tvalue")
		for _, d := range layerDefs {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\n", d.name, d.unit, pl[d.name])
			res.Metrics[d.name] = metricOut{Value: finite(pl[d.name]), Unit: d.unit}
		}
	} else {
		e2e := wr.endToEnd()
		printE2EHeader(tw, false)
		for _, d := range e2eDefs {
			s := e2e[d.name]
			printE2E(tw, "", d.name, s)
			res.Metrics[d.name] = metricOut{Value: finite(s.Median), Unit: d.unit}
		}
	}
	tw.Flush()
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// result is the last line of a single-workload invocation.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps the NaN of an empty summary to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func printE2EHeader(w io.Writer, withWorkload bool) {
	if withWorkload {
		fmt.Fprint(w, "workload\t")
	}
	fmt.Fprintln(w, "metric\tunit\tmedian\tq1\tq3\tn")
}

func printE2E(w io.Writer, workload, name string, s summary) {
	if workload != "" {
		fmt.Fprintf(w, "%s\t", workload)
	}
	fmt.Fprintf(w, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
}

// resultsFile is the record of one full invocation.
type resultsFile struct {
	Label       string           `json:"label"`
	Seed        int64            `json:"seed"`
	Runs        int              `json:"runs_per_workload"`
	Fingerprint fingerprint      `json:"fingerprint"`
	Workloads   []workloadResult `json:"workloads"`
}

func (f *resultsFile) workload(name string) (workloadResult, bool) {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

// workloadResult is one workload's part of a results file.
type workloadResult struct {
	Name      string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Speed is the median factor by which host times in EndToEnd were
	// scaled.
	Speed    float64            `json:"speed_factor"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
	Runs     *workloadRuns      `json:"runs"`
}

// full runs measuredRuns rounds of every workload, interleaved
// round-robin, with each workload's profiled run after its measured run of
// round profileRound, then the reduced-scale pairs. It prints every metric
// and, given a label, writes the results file.
func (r *runner) full(seed int64, label string) (bool, error) {
	all := make([]*workloadRuns, len(workloadList))
	for i, w := range workloadList {
		all[i] = &workloadRuns{Name: w.name}
	}
	for i := 0; i < measuredRuns; i++ {
		for _, wr := range all {
			rec := r.round(wr, seed)
			fmt.Fprintf(os.Stderr, "run %d/%d %-8s wall %.3fs cal %.3fs digest %s\n",
				i+1, measuredRuns, wr.Name, rec.WallS, rec.CalS, rec.Digest)
			if i == profileRound {
				r.profile(wr, seed)
			}
		}
	}
	for _, wr := range all {
		r.recordPass(wr, seed)
	}
	rf := resultsFile{Label: label, Seed: seed, Runs: measuredRuns, Fingerprint: hostFingerprint(r.root)}
	ok := true
	for _, wr := range all {
		attempted, failed := wr.verify(r.pinnedDigest(wr.Name, seed))
		for _, p := range wr.problems() {
			fmt.Fprintln(os.Stderr, "FAIL", p)
		}
		e2e := wr.endToEnd()
		e2e[failedFrac] = summarize("ratio", []float64{float64(failed) / float64(attempted)})
		rf.Workloads = append(rf.Workloads, workloadResult{
			Name: wr.Name, Attempted: attempted, Failed: failed,
			Speed: wr.speed(), EndToEnd: e2e, PerLayer: wr.perLayer(), Runs: wr,
		})
		ok = ok && failed == 0
	}

	fp := rf.Fingerprint
	fmt.Printf("host: %d CPUs (%s), GOMAXPROCS %d, %s, commit %s; seed %d, %d runs per workload\n",
		fp.NProc, fp.CPUModel, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, seed, measuredRuns)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	printE2EHeader(tw, true)
	for _, w := range rf.Workloads {
		for _, d := range e2eDefs {
			printE2E(tw, w.Name, d.name, w.EndToEnd[d.name])
		}
		printE2E(tw, w.Name, failedFrac, w.EndToEnd[failedFrac])
	}
	tw.Flush()
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "per-layer metric\tunit\t")
	for _, w := range rf.Workloads {
		fmt.Fprintf(tw, "%s\t", w.Name)
	}
	fmt.Fprintln(tw)
	for _, d := range layerDefs {
		fmt.Fprintf(tw, "%s\t%s\t", d.name, d.unit)
		for _, w := range rf.Workloads {
			fmt.Fprintf(tw, "%.4g\t", w.PerLayer[d.name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	if label != "" {
		path := filepath.Join(r.root, "benchmark", "results", label+".json")
		b, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return false, fmt.Errorf("writing results: %w", err)
		}
		fmt.Println("results written to", path)
	}
	return ok, nil
}

// check runs every workload once per pinned seed and compares digests.
func (r *runner) check() bool {
	ok := true
	for _, w := range workloadList {
		for _, seed := range []int64{1, 2} {
			wr := &workloadRuns{Name: w.name, Measured: []runRecord{r.child(modeMeasure, w.name, seed, 1)}}
			want := r.pinnedDigest(w.name, seed)
			_, failed := wr.verify(want)
			status := "ok"
			switch {
			case want == "":
				status = "NOT PINNED"
				ok = false
			case failed > 0:
				status = "FAIL"
				ok = false
			}
			fmt.Printf("%-8s seed %d digest %s %s\n", w.name, seed, wr.Measured[0].Digest, status)
			for _, p := range wr.problems() {
				fmt.Println("  ", p)
			}
		}
	}
	return ok
}

// fingerprint identifies the host and build a results file came from.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func hostFingerprint(root string) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: benchProcs(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}
