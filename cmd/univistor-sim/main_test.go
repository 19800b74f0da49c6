package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"univistor/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_reports.txt")

// The univistor-sim binary every test in this package runs: built at most
// once per test run, into simDir (removed by TestMain).
var (
	simDir   string
	simOnce  sync.Once
	simBuilt string
	simErr   error
)

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "univistor-sim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildSim returns the path of the univistor-sim binary, building it on
// first use.
func buildSim(t *testing.T) string {
	t.Helper()
	simOnce.Do(func() {
		bin := filepath.Join(simDir, "univistor-sim")
		build := exec.Command("go", "build", "-o", bin, ".")
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			simErr = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		simBuilt = bin
	})
	if simErr != nil {
		t.Fatal(simErr)
	}
	return simBuilt
}

// Sizes that would divide by zero, crash the launcher or produce a
// meaningless report, and flags that would silently do nothing (UniviStor
// flags with another driver, gateway flags without -gateway, checkpoint
// flags without -ckpt, -seed without either) or that the program does not
// know, are refused up front: exit 1 with a univistor-sim: message, never a
// panic.
func TestBadSizesRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSim(t)
	for _, args := range []string{
		"-procs 0",
		"-ranks-per-node 0",
		"-mb -4",
		"-ckpt 2 -seg-mb 0",
		"-ckpt-change 1.5",
		"-ckpt-change -0.1",
		"-ckpt-change NaN",
		"-driver lustre -chaos seed=1",
		"-driver lustre -meta-shards 2",
		"-driver dataelevator -tiers dram",
		"-driver lustre -no-ia",
		"-driver lustre -no-coc",
		"-driver dataelevator -no-adpt",
		"-tenants 8",
		"-zipf 1.5",
		"-seed 2",
		// The per-kernel seeds gave way to -seed; an old command line
		// that still passes one is refused, not run with the default.
		"-gw-seed 2",
		"-ckpt-seed 2",
		"-gateway -gw-arrival 10 -gw-ops 5",
		"-gateway -gw-seconds 2",
		"-ckpt-retain 2",
		"-ckpt-change 0.2",
		// Non-finite numbers are rejected before the run: the first three
		// would never finish, the rest would run a nonsense schedule.
		"-gateway -tenants 4 -gw-arrival Inf -gw-seconds 0.01",
		"-gateway -tenants 4 -zipf Inf",
		"-gateway -tenants 4 -gw-arrival 10 -gw-seconds Inf",
		"-chaos seed=1,degrade=fabric:0.5@0.001+Inf",
		"-chaos seed=1,crash=0@NaN",
		"-chaos seed=1,check=NaN",
		"-chaos seed=1,degrade=nic:0:NaN@0.1",
		"-chaos seed=1,metasplit@NaN",
	} {
		t.Run(args, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, strings.Fields(args)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("still running after 30s")
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("want exit 1, got %v\nstderr:\n%s", err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "univistor-sim: ") || strings.Contains(msg, "panic") {
				t.Errorf("want a univistor-sim: message and no panic, got:\n%s", msg)
			}
			// The message must name the input it rejects: one of the
			// row's flags.
			named := false
			for _, f := range strings.Fields(args) {
				isFlag := len(f) > 1 && f[0] == '-' && f[1] >= 'a' && f[1] <= 'z'
				named = named || isFlag && strings.Contains(msg, f[1:])
			}
			if !named {
				t.Errorf("message names none of the flags in %q:\n%s", args, msg)
			}
		})
	}
}

// reportRow is one pinned univistor-sim invocation.
type reportRow struct {
	name string
	args string
}

// goldenRows are the chaos gates over the sharded metadata plane, three
// seeds each, plus the same workloads on the legacy metadata ring:
//
//   - meta: a 3-shard, R=3 plane under shard-leader crashes (one with a
//     recovery window) during a write/read micro run.
//   - dedup: the checkpoint workload with the content-addressed store, a
//     shard-leader crash and a node crash pinned at t=15.045s — inside the
//     collector's second flow window — so a GC batch is in flight when the
//     fault lands.
//   - gateway: the multi-tenant QoS mix driven open-loop into overload
//     with shard-leader crashes mid-run; the chaos sweep also patrols the
//     gateway's admission invariants.
//   - split: a gateway stat storm with leased follower reads, an online
//     shard split at t=0.2 and a shard-leader crash at t=0.25, inside the
//     migration's transfer window.
//
// The ring rows drop the -meta-* flags, so the ring's puts, range deletes
// and stats (and its refusal of the plane-only faults) are pinned too. The
// last two rows pin the Data Elevator and Lustre driver paths of the micro
// workload.
func goldenRows() []reportRow {
	var rows []reportRow
	for seed := 1; seed <= 3; seed++ {
		rows = append(rows,
			reportRow{name: fmt.Sprintf("meta-seed%d", seed), args: fmt.Sprintf(
				"-procs 16 -ranks-per-node 8 -mb 16 -seg-mb 4 -read -meta-shards 3 -meta-replicas 3 "+
					"-chaos seed=%d,check=0.2,horizon=3,metacrash=0@0.05+0.4,metacrash=1@0.1,metacrash=2@0.15+0.5", seed)},
			reportRow{name: fmt.Sprintf("dedup-seed%d", seed), args: fmt.Sprintf(
				"-procs 16 -ranks-per-node 8 -mb 16 -seg-mb 4 -dedup -ckpt 5 -ckpt-retain 2 -meta-shards 3 -meta-replicas 3 "+
					"-chaos seed=%d,check=0.2,horizon=3,metacrash=0@6.5,metacrash=1@8.2,crash=1@15.045", seed)},
			reportRow{name: fmt.Sprintf("gateway-seed%d", seed), args: fmt.Sprintf(
				"-gateway -tenants 32 -qos -zipf 1.4 -gw-arrival 12 -gw-seconds 2 -seed %d -meta-shards 3 -meta-replicas 3 "+
					"-chaos seed=%d,check=0.2,horizon=4,metacrash=0@0.4+0.5,metacrash=1@0.8", seed, seed)},
			reportRow{name: fmt.Sprintf("split-seed%d", seed), args: fmt.Sprintf(
				"-gateway -tenants 16 -gw-arrival 400 -gw-seconds 0.6 -gw-kb 8 "+
					"-meta-shards 3 -meta-replicas 3 -meta-follower-reads "+
					"-chaos seed=%d,check=0.1,horizon=0.7,metasplit@0.2,metacrash=1@0.25", seed)},
		)
	}
	return append(rows,
		reportRow{name: "ring-micro", args: "-procs 16 -ranks-per-node 8 -mb 16 -seg-mb 4 -read -flush"},
		reportRow{name: "ring-dedup", args: "-procs 16 -ranks-per-node 8 -mb 16 -seg-mb 4 -dedup -ckpt 5 -ckpt-retain 2 " +
			"-chaos seed=1,check=0.2,horizon=3,metacrash=0@6.5,metacrash=1@8.2,crash=1@15.045"},
		reportRow{name: "ring-gateway", args: "-gateway -tenants 32 -qos -zipf 1.4 -gw-arrival 12 -gw-seconds 2 -seed 1 " +
			"-chaos seed=1,check=0.2,horizon=4,metacrash=0@0.4+0.5,metacrash=1@0.8"},
		reportRow{name: "de-micro", args: "-driver dataelevator -procs 16 -ranks-per-node 8 -mb 16 -seg-mb 4 -read -flush"},
		reportRow{name: "lustre-micro", args: "-driver lustre -procs 16 -ranks-per-node 8 -mb 16 -seg-mb 4 -read"},
	)
}

// runReport runs univistor-sim with a trace export and returns its stdout
// and the exported trace, failing the test on a non-zero exit (which
// includes any invariant violation under -chaos).
func runReport(t *testing.T, bin, args string) (report, traceJSON []byte) {
	t.Helper()
	tracePath := filepath.Join(t.TempDir(), "t.json")
	argv := append(strings.Fields(args), "-trace", tracePath)
	cmd := exec.Command(bin, argv...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("univistor-sim %s: %v\nstderr:\n%s", args, err, stderr.String())
	}
	traceJSON, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	return stdout.Bytes(), traceJSON
}

// checkTraceCounters validates an exported trace and requires the report's
// trace_summary.counters to name exactly the trace's counter series — the
// summary and the Perfetto export read the same series.
func checkTraceCounters(t *testing.T, report, traceJSON []byte) {
	t.Helper()
	rep, err := trace.ValidateChrome(traceJSON)
	if err != nil {
		t.Fatalf("exported trace: %v", err)
	}
	var out struct {
		TraceSummary *trace.Summary `json:"trace_summary"`
	}
	if err := json.Unmarshal(report, &out); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range out.TraceSummary.Counters {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, rep.Counters) {
		t.Errorf("trace_summary counters %v, trace counter series %v", names, rep.Counters)
	}
}

// TestGoldenReports pins the full JSON report of every golden row —
// including the meta_op_detail and trace_summary blocks — as one SHA-256
// digest per row. Every row must also exit 0, so this doubles as the
// metadata-plane, dedup, gateway and split chaos gate, and must export a
// valid trace whose counter series match the summary's.
// Regenerate with: go test ./cmd/univistor-sim -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSim(t)
	path := filepath.Join("testdata", "golden_reports.txt")
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading golden file (regenerate with -update): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if name, sum, ok := strings.Cut(line, " "); ok {
				want[name] = sum
			}
		}
	}
	rows := goldenRows()
	got := make([]string, len(rows))
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			out, traceJSON := runReport(t, bin, row.args)
			checkTraceCounters(t, out, traceJSON)
			got[i] = fmt.Sprintf("%x", sha256.Sum256(out))
			if !*update && got[i] != want[row.name] {
				t.Errorf("report digest %s, golden %s", got[i], want[row.name])
			}
		})
	}
	if *update {
		var b strings.Builder
		for i, row := range rows {
			if got[i] == "" {
				t.Fatalf("row %s did not run; regenerate without a subtest filter", row.name)
			}
			fmt.Fprintf(&b, "%s %s\n", row.name, got[i])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
