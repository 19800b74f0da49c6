package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func stack(names ...string) []frame {
	s := make([]frame, len(names))
	for i, n := range names {
		s[i] = frame{name: n}
	}
	return s
}

func TestAttributeRules(t *testing.T) {
	const in = internalPrefix
	for _, c := range []struct {
		name  string
		stack []frame
		want  string
	}{
		{"gc worker", stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), layerGC},
		{"mark assist beats the caller", stack("runtime.gcAssistAlloc", "runtime.mallocgc", in+"sim.(*flowSet).newFlow"), layerGC},
		{"channel switch", stack("runtime.futex", "runtime.notewakeup", "runtime.chansend1", in+"sim.(*Proc).park", in+"core.(*System).metaPut"), layerHandoff},
		{"scheduler thread", stack("runtime.futex", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.mstart"), layerHandoff},
		{"runtime leaf without scheduler frame goes to caller", stack("runtime.mallocgc", in+"sim.(*flowSet).add"), layerAlloc},
		{"event loop", stack(in+"sim.eventHeap.less", in+"sim.(*eventHeap).popMin", in+"sim.(*Engine).Run"), layerDispatch},
		{"parallel worker closure", stack(in + "sim.parallelDo.func1"), layerAlloc},
		{"key compare rolls up to the skiplist", stack(in+"meta.Key.Less", in+"kvstore.(*SkipList).Put", in+"metaplane.(*Plane).Put"), "kvstore"},
		{"key compare rolls up to the plane", stack(in+"meta.Key.Less", in+"metaplane.(*Plane).Stat"), "metaplane"},
		{"helper alone", stack(in + "extent.(*Map).Insert"), "kvstore"},
		{"innermost package decides", stack(in+"castore.(*Store).UpdateFile", in+"core.(*System).flushCAS"), "castore"},
		{"tier backends", stack(in+"logstore.(*Log).Append", in+"core.(*System).write"), "tier"},
		{"mpi family", stack(in+"topology.(*Cluster).NetPath", in+"mpi.(*Rank).Send"), "mpi"},
		{"kernels", stack(in+"hdf5lite.(*Dataset).WriteElems", in+"workloads.RunVPIC"), "workloads"},
		{"workflow state belongs to core", stack(in + "workflow.(*Manager).AcquireWrite"), "core"},
		{"unmapped package", stack(in + "chaos.(*Harness).sweep"), layerOther},
		{"no internal frames", stack("main.main", "runtime.main"), layerOther},
		{"empty stack", nil, layerOther},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSimLayerKnownFunctions(t *testing.T) {
	for sym, want := range map[string]string{
		"(*Engine).Run":                   layerDispatch,
		"(*Engine).dispatch":              layerDispatch,
		"(*Engine).At":                    layerDispatch,
		"(*eventHeap).push":               layerDispatch,
		"(*Mailbox).Recv":                 layerDispatch,
		"(*WaitGroup).Wait":               layerDispatch,
		"NewEngine":                       layerDispatch,
		"(*Engine).Go":                    layerHandoff,
		"(*Engine).Go.func1.1":            layerHandoff,
		"(*Proc).park":                    layerHandoff,
		"(*Proc).Sleep":                   layerHandoff,
		"(*Proc).resumeAt":                layerHandoff,
		"(*Proc).Transfer":                layerAlloc,
		"(*Proc).TransferGroup":           layerAlloc,
		"(*Engine).StartTransfer":         layerAlloc,
		"(*flowSet).advance":              layerAlloc,
		"(*solveScratch).allocateFast":    layerAlloc,
		"fastHeap.down":                   layerAlloc,
		"shareHeap.Less":                  layerAlloc,
		"(*flowSet).solveBatch.func1":     layerAlloc,
		"parallelDo":                      layerAlloc,
		"NewResource":                     layerAlloc,
		"(*FlowGroup).Stats":              layerAlloc,
		"mergeBySeq[go.shape.int]":        layerAlloc,
		"(*Resource).Utilization":         layerAlloc,
		"(*Engine).CheckFlowConservation": layerAlloc,
	} {
		if got := simLayer(sym, ""); got != want {
			t.Errorf("sim.%s: got %s, want %s", sym, got, want)
		}
	}
}

// TestEverySimFunctionHasASimLayer walks the sim package's source and
// checks that each function and method, named as the runtime names it in a
// profile, lands in one of the three sim layers, and that a function the
// tables do not list follows its file.
func TestEverySimFunctionHasASimLayer(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "internal", "sim", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no sim sources found: %v", err)
	}
	fset := token.NewFileSet()
	n := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			sym := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				switch rt := fd.Recv.List[0].Type.(type) {
				case *ast.StarExpr:
					sym = "(*" + rt.X.(*ast.Ident).Name + ")." + sym
				case *ast.Ident:
					sym = rt.Name + "." + sym
				}
			}
			n++
			switch got := attribute([]frame{{name: internalPrefix + "sim." + sym, file: path}}); got {
			case layerDispatch, layerHandoff, layerAlloc:
			default:
				t.Errorf("sim.%s (%s) attributed to %s", sym, filepath.Base(path), got)
			}
			if base := filepath.Base(path); simAllocFiles[base] {
				if got := simLayer(sym, path); got != layerAlloc {
					t.Errorf("sim.%s in %s: got %s, want %s", sym, base, got, layerAlloc)
				}
			}
		}
	}
	if n < 50 {
		t.Errorf("walked only %d sim functions", n)
	}
}
