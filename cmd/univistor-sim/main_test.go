package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Regression test for the debug-diagnostics channel: with
// UNIVISTOR_SIM_DEBUG set, stdout must still be exactly one JSON
// document (the recompute diagnostics used to interleave with it and
// corrupt it) and the diagnostics must arrive on stderr instead.
func TestDebugDiagnosticsDoNotCorruptJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "univistor-sim")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-procs", "8", "-ranks-per-node", "4", "-mb", "8", "-seg-mb", "4")
	cmd.Env = append(os.Environ(), "UNIVISTOR_SIM_DEBUG=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("univistor-sim: %v\nstderr:\n%s", err, stderr.String())
	}

	var out Output
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not a single JSON document: %v\nstdout:\n%s", err, stdout.String())
	}
	if out.Driver != "univistor" || out.Procs != 8 || out.WriteSecs <= 0 {
		t.Errorf("unexpected output document: %+v", out)
	}
	if out.Alloc == nil || out.Alloc.Recomputes == 0 {
		t.Errorf("output missing allocator counters: %+v", out.Alloc)
	}
	if !strings.Contains(stderr.String(), "[sim] recompute #") {
		t.Errorf("stderr missing recompute diagnostics, got:\n%s", stderr.String())
	}
}
