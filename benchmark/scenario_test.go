package main

import (
	"path/filepath"
	"testing"
)

// runScenario builds and runs one workload in-process and returns its
// digest and violations.
func runScenario(t *testing.T, w workload, seed int64, div int) (string, []string) {
	t.Helper()
	sc, err := w.build(seed, div, nil)
	if err != nil {
		t.Fatalf("%s: build: %v", w.name, err)
	}
	d, err := sc.digest(sc.e.Run())
	if err != nil {
		t.Fatal(err)
	}
	return d, sc.violations()
}

func TestWorkloadsDeterministicAtSmallScale(t *testing.T) {
	for _, w := range workloadList {
		a, va := runScenario(t, w, 1, 64)
		b, vb := runScenario(t, w, 1, 64)
		if len(va)+len(vb) > 0 {
			t.Errorf("%s: violations %v / %v", w.name, va, vb)
		}
		if a != b {
			t.Errorf("%s: digests differ across identical runs: %s vs %s", w.name, a, b)
		}
	}
}

func TestSeedChangesSeededWorkloads(t *testing.T) {
	for _, name := range []string{"gateway", "ckpt"} {
		w, _ := workloadByName(name)
		a, _ := runScenario(t, w, 1, 64)
		b, _ := runScenario(t, w, 2, 64)
		if a == b {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", name, a)
		}
	}
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the
// program's metric and workload lists in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(sp.Workloads), len(workloadList))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadList[i].name)
		}
	}
	if len(sp.EndToEnd) != len(e2eDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, program has %d", len(sp.EndToEnd), len(e2eDefs))
	}
	for i, m := range sp.EndToEnd {
		d := e2eDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s",
				i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if len(sp.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program has %d", len(sp.PerLayer), len(layerDefs))
	}
	for i, m := range sp.PerLayer {
		if d := layerDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}
