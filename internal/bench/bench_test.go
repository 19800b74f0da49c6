package bench

import (
	"testing"
)

// get pulls one point's value, failing the test when missing.
func get(t *testing.T, r *Result, series string, procs int) float64 {
	t.Helper()
	for _, s := range r.Series {
		if s.Name == series {
			if v, ok := seriesValue(s, procs); ok {
				return v
			}
		}
	}
	t.Fatalf("%s: no point for series %q at procs=%d", r.ID, series, procs)
	return 0
}

func quick() Options {
	o := QuickOptions()
	o.Scales = []int{16, 32}
	return o
}

func TestFig5aShape(t *testing.T) {
	o := quick()
	r := Fig5a(o)
	for _, procs := range o.Scales {
		both := get(t, r, "IA+COC", procs)
		noIA := get(t, r, "noIA", procs)
		noCOC := get(t, r, "noCOC", procs)
		if both <= noIA {
			t.Errorf("procs=%d: IA+COC (%.2f) not faster than noIA (%.2f)", procs, both, noIA)
		}
		if both <= noCOC {
			t.Errorf("procs=%d: IA+COC (%.2f) not faster than noCOC (%.2f)", procs, both, noCOC)
		}
	}
}

func TestFig5bShape(t *testing.T) {
	o := quick()
	r := Fig5b(o)
	for _, procs := range o.Scales {
		both := get(t, r, "IA+COC", procs)
		noIA := get(t, r, "noIA", procs)
		if both <= noIA {
			t.Errorf("procs=%d: read IA+COC (%.2f) not faster than noIA (%.2f)", procs, both, noIA)
		}
	}
}

func TestFig5cShape(t *testing.T) {
	o := quick()
	r := Fig5c(o)
	for _, procs := range o.Scales {
		both := get(t, r, "IA+ADPT", procs)
		noADPT := get(t, r, "noADPT", procs)
		if both <= noADPT {
			t.Errorf("procs=%d: flush IA+ADPT (%.2f) not faster than noADPT (%.2f)", procs, both, noADPT)
		}
	}
}

func TestFig6aShape(t *testing.T) {
	o := quick()
	r := Fig6a(o)
	for _, procs := range o.Scales {
		dram := get(t, r, "UniviStor/DRAM", procs)
		bb := get(t, r, "UniviStor/BB", procs)
		de := get(t, r, "DataElevator", procs)
		lus := get(t, r, "Lustre", procs)
		if !(dram > bb && bb > de && de > lus) {
			t.Errorf("procs=%d: ordering violated: DRAM=%.2f BB=%.2f DE=%.2f Lustre=%.2f",
				procs, dram, bb, de, lus)
		}
	}
}

func TestFig6bShape(t *testing.T) {
	o := quick()
	r := Fig6b(o)
	for _, procs := range o.Scales {
		dram := get(t, r, "UniviStor/DRAM", procs)
		de := get(t, r, "DataElevator", procs)
		lus := get(t, r, "Lustre", procs)
		if !(dram > de && de > lus) {
			t.Errorf("procs=%d: read ordering violated: DRAM=%.2f DE=%.2f Lustre=%.2f",
				procs, dram, de, lus)
		}
	}
}

func TestFig6cShape(t *testing.T) {
	o := quick()
	r := Fig6c(o)
	for _, procs := range o.Scales {
		dram := get(t, r, "UniviStor/DRAM", procs)
		bb := get(t, r, "UniviStor/BB", procs)
		de := get(t, r, "DataElevator", procs)
		if dram <= de || bb <= de {
			t.Errorf("procs=%d: flush: UV/DRAM=%.2f UV/BB=%.2f not both above DE=%.2f",
				procs, dram, bb, de)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	o := quick()
	o.Scales = []int{16}
	r := Fig7(o)
	dram := get(t, r, "UniviStor/DRAM", 16)
	bb := get(t, r, "UniviStor/BB", 16)
	de := get(t, r, "DataElevator", 16)
	lus := get(t, r, "Lustre", 16)
	if !(dram < de && bb <= de*1.05 && de < lus) {
		t.Errorf("I/O times: DRAM=%.2f BB=%.2f DE=%.2f Lustre=%.2f — want DRAM<DE, BB≲DE, DE<Lustre",
			dram, bb, de, lus)
	}
}

func TestFig8Shape(t *testing.T) {
	o := quick()
	o.Scales = []int{16}
	// Shrink the DRAM pool so 10 steps overflow it roughly halfway.
	r := Fig8(o)
	both := get(t, r, "UV/(DRAM+BB+Disk)", 16)
	bb := get(t, r, "UV/(BB+Disk)", 16)
	disk := get(t, r, "UV/(Disk)", 16)
	if !(both < bb && bb < disk) {
		t.Errorf("times: DRAM+BB=%.2f BB=%.2f Disk=%.2f — want strictly improving with faster layers",
			both, bb, disk)
	}
}

func TestFig9Shape(t *testing.T) {
	o := quick()
	o.Scales = []int{16}
	r := Fig9(o)
	ovDRAM := get(t, r, "UV/DRAM Overlap", 16)
	nonDRAM := get(t, r, "UV/DRAM Nonoverlap", 16)
	de := get(t, r, "DataElevator", 16)
	lus := get(t, r, "Lustre", 16)
	if ovDRAM >= nonDRAM {
		t.Errorf("overlap (%.2f) not faster than nonoverlap (%.2f)", ovDRAM, nonDRAM)
	}
	if nonDRAM >= de {
		t.Errorf("UV/DRAM nonoverlap (%.2f) not faster than DE (%.2f)", nonDRAM, de)
	}
	if de >= lus {
		t.Errorf("DE (%.2f) not faster than Lustre (%.2f)", de, lus)
	}
}

func TestFig10Shape(t *testing.T) {
	o := quick()
	o.Scales = []int{16}
	r := Fig10(o)
	both := get(t, r, "UV/(DRAM+BB)", 16)
	bb := get(t, r, "UV/(BB)", 16)
	disk := get(t, r, "UV/(Disk)", 16)
	if !(both < bb && bb < disk) {
		t.Errorf("workflow times: DRAM+BB=%.2f BB=%.2f Disk=%.2f", both, bb, disk)
	}
}

func TestResultPrint(t *testing.T) {
	r := &Result{ID: "figX", Title: "test", Metric: "u",
		Series: []Series{
			{Name: "a", Points: []Point{{16, 10}, {32, 20}}},
			{Name: "b", Points: []Point{{16, 5}, {32, 4}}},
		}}
	var sb testWriter
	r.Print(&sb)
	if len(sb) == 0 {
		t.Error("Print produced nothing")
	}
}

type testWriter []byte

func (w *testWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}
