package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// resultsMaxProcs bounds the committed rows TestResultsReproduce reruns:
// every row up to it takes a few seconds at paper data sizes, while the
// larger ones take minutes each.
const resultsMaxProcs = 128

// TestResultsReproduce reruns each committed results/<id>.txt table with
// DefaultOptions at its scales up to resultsMaxProcs and requires the
// header and those rows to match byte for byte, so a model change that
// moves a paper-scale number fails here instead of going stale on disk.
func TestResultsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("reruns paper-scale figure points")
	}
	if raceEnabled {
		t.Skip("paper-scale points are too slow under -race")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed results tables (err %v)", err)
	}
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".txt")
		t.Run(id, func(t *testing.T) {
			run, ok := ByID(id)
			if !ok {
				t.Fatalf("%s names no figure", path)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(data), "\n")
			if len(lines) < 3 {
				t.Fatalf("%s has no rows", path)
			}
			want := lines[0] + lines[1]
			o := DefaultOptions()
			o.Scales = nil
			for _, row := range lines[2:] {
				fields := strings.Fields(row)
				if len(fields) == 0 {
					continue
				}
				procs, err := strconv.Atoi(fields[0])
				if err != nil {
					t.Fatalf("%s: row %q has no rank count", path, row)
				}
				if procs <= resultsMaxProcs {
					o.Scales = append(o.Scales, procs)
					want += row
				}
			}
			var got bytes.Buffer
			run(o).Print(&got)
			if got.String() != want {
				t.Errorf("%s does not reproduce at ≤%d ranks\ngot:\n%swant:\n%s",
					path, resultsMaxProcs, got.String(), want)
			}
		})
	}
}
