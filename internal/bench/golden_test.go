package bench

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenQuickFigures pins the printed table of every quick-scale figure
// in the figure table — the -all set plus the feature figures — as one
// SHA-256 digest per figure. The simulation is deterministic, so a changed
// digest is a real change in simulated behaviour.
// Regenerate with: go test ./internal/bench -run Golden -update
func TestGoldenQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick figure sweep")
	}
	o := QuickOptions()
	var got strings.Builder
	for _, f := range figures {
		r := f.run(o)
		var buf bytes.Buffer
		r.Print(&buf)
		fmt.Fprintf(&got, "%s %x\n", r.ID, sha256.Sum256(buf.Bytes()))
	}
	checkGolden(t, "golden_quick.txt", "figure", got.String())
}

// checkGolden compares got with testdata/name, or rewrites the file first
// under -update. what names the digests in the failure message.
func checkGolden(t *testing.T, name, what, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s digests differ from golden file %s\ngot:\n%swant:\n%s", what, path, got, want)
	}
}

// goldenTraceFigures are the quick figures whose exported Chrome traces
// TestGoldenTraces pins: fig6a is a small UniviStor sweep, fig7 adds the
// Data Elevator and Lustre drivers (about 6,200 flows in its last run).
var goldenTraceFigures = []string{"fig6a", "fig7"}

// TestGoldenTraces pins the Chrome trace that -quick -trace exports for
// each of goldenTraceFigures (the last run of the sweep) as one SHA-256
// digest per figure, so a change to flow ids, resource samples or event
// order shows up without diffing traces by hand.
// Regenerate with: go test ./internal/bench -run GoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick figure sweeps with tracing")
	}
	if raceEnabled {
		t.Skip("traced sweeps are too slow under -race")
	}
	var got strings.Builder
	for _, id := range goldenTraceFigures {
		run, ok := ByID(id)
		if !ok {
			t.Fatalf("no figure %q", id)
		}
		o := QuickOptions()
		o.TracePath = filepath.Join(t.TempDir(), id+".json")
		run(o)
		data, err := os.ReadFile(o.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", id, sha256.Sum256(data))
	}
	checkGolden(t, "golden_traces.txt", "trace", got.String())
}
