package main

// -compare: per workload and end-to-end metric, the verdict of a change
// against a base, by the bounds in BENCHMARK.json.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts.
const (
	vBetter     = "better"
	vWorse      = "worse"
	vUnchanged  = "unchanged"
	vUnresolved = "unresolved"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// verdict judges change against base for one metric. better is "lower" or
// "higher"; bound is the share of the base median by which the metric may
// worsen.
//
//   - better: the change wins at least nine tenths of all base×change pairs
//     (ties count for neither) and the medians differ by more than the
//     base's interquartile distance;
//   - unresolved: otherwise, when the run-to-run spread of either side
//     exceeds the bound, unless every change run beats every base run;
//   - worse: the change's median is worse by more than the bound;
//   - unchanged: anything else.
func verdict(base, change []float64, better string, bound float64) string {
	if len(base) == 0 || len(change) == 0 {
		return vUnresolved
	}
	sign := 1.0 // >0 means worse
	if better == "higher" {
		sign = -1
	}
	b, c := summarize("", base), summarize("", change)
	wins, pairs, allBetter := 0, 0, true
	for _, bv := range base {
		for _, cv := range change {
			pairs++
			if d := sign * (cv - bv); d < 0 {
				wins++
			} else {
				allBetter = false
			}
		}
	}
	delta := sign * (c.Median - b.Median)
	if delta < 0 && -delta > b.Q3-b.Q1 && 10*wins >= 9*pairs {
		return vBetter
	}
	if max(b.spread(), c.spread()) > bound && !allBetter {
		return vUnresolved
	}
	worse := 0.0
	switch {
	case b.Median != 0:
		worse = delta / math.Abs(b.Median)
	case delta > 0:
		worse = math.Inf(1)
	}
	if worse > bound {
		return vWorse
	}
	return vUnchanged
}

// runCompare prints one row per workload and end-to-end metric of two
// results files, plus the failed-run fraction.
func runCompare(basePath, changePath, specPath string, w io.Writer) error {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	var base, change resultsFile
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(changePath, &change); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\tdelta\tbound\tverdict")
	row := func(wl, name, unit string, b, c summary, better string, bound float64) {
		d := "n/a"
		if b.Median != 0 {
			d = fmt.Sprintf("%+.1f%%", 100*(c.Median-b.Median)/math.Abs(b.Median))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] n=%d\t%.4g [%.4g, %.4g] n=%d\t%s\t%g\t%s\n",
			wl, name, unit, b.Median, b.Q1, b.Q3, b.N, c.Median, c.Q1, c.Q3, c.N, d, bound,
			verdict(b.Values, c.Values, better, bound))
	}
	for _, bw := range base.Workloads {
		cw, ok := change.workload(bw.Name)
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing from %s)\n", bw.Name, changePath)
			continue
		}
		for _, m := range sp.EndToEnd {
			row(bw.Name, m.Name, m.Unit, bw.EndToEnd[m.Name], cw.EndToEnd[m.Name], m.Better, m.Bound)
		}
		row(bw.Name, failedFrac, "ratio", bw.EndToEnd[failedFrac], cw.EndToEnd[failedFrac], "lower", 0)
	}
	return tw.Flush()
}
