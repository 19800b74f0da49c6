package main

// Attribution of CPU-profile samples to the simulator's layers. Each
// sample goes to exactly one layer:
//
//  1. runtime.gc if any frame is a GC worker, mark-assist or sweep frame;
//  2. sim.handoff if the leaf is in the runtime and the stack holds a
//     channel or scheduler frame (Proc park/resume is a goroutine switch);
//  3. otherwise the innermost univistor/internal frame decides through
//     pkgLayer, with meta/extent helpers rolled up to their caller;
//  4. otherwise other.

import (
	"path"
	"strings"
)

// The layers, in report order.
const (
	layerDispatch = "sim.dispatch"
	layerHandoff  = "sim.handoff"
	layerAlloc    = "sim.alloc"
	layerOther    = "other"
	layerGC       = "runtime.gc"
)

var layerNames = []string{
	layerDispatch, layerHandoff, layerAlloc,
	"core", "tier", "kvstore", "metaplane", "castore", "gateway",
	"mpi", "workloads", "trace", layerGC, layerOther,
}

// pkgLayer maps each univistor/internal package to its layer. sim is split
// three ways by simLayer.
var pkgLayer = map[string]string{
	"core":         "core",
	"workflow":     "core",
	"tier":         "tier",
	"logstore":     "tier",
	"bb":           "tier",
	"lustre":       "tier",
	"striping":     "tier",
	"dataelevator": "tier",
	"kvstore":      "kvstore",
	"meta":         "kvstore",
	"extent":       "kvstore",
	"metaplane":    "metaplane",
	"castore":      "castore",
	"gateway":      "gateway",
	"mpi":          "mpi",
	"mpiio":        "mpi",
	"schedule":     "mpi",
	"topology":     "mpi",
	"workloads":    "workloads",
	"hdf5lite":     "workloads",
	"netcdflite":   "workloads",
	"trace":        "trace",
}

// helperPkgs hold record and extent helpers (meta.Key.Less and friends)
// whose cost belongs to whichever layer called them.
var helperPkgs = map[string]bool{"meta": true, "extent": true}

const internalPrefix = "univistor/internal/"

// splitInternal splits an internal symbol into its package and the rest,
// e.g. "sim", "(*Engine).Run". ok is false outside univistor/internal.
func splitInternal(name string) (pkg, rest string, ok bool) {
	s, ok := strings.CutPrefix(name, internalPrefix)
	if !ok {
		return "", "", false
	}
	pkg, rest, _ = strings.Cut(s, ".")
	return pkg, rest, true
}

// attribute assigns one sample's stack (leaf first) to a layer.
func attribute(stack []frame) string {
	for _, f := range stack {
		if isGCFrame(f.name) {
			return layerGC
		}
	}
	if len(stack) > 0 && isRuntime(stack[0].name) {
		for _, f := range stack {
			if schedFrames[f.name] {
				return layerHandoff
			}
		}
	}
	helper := false
	for _, f := range stack {
		pkg, rest, ok := splitInternal(f.name)
		if !ok {
			continue
		}
		if helperPkgs[pkg] {
			helper = true
			continue
		}
		if pkg == "sim" {
			return simLayer(rest, f.file)
		}
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
	}
	if helper {
		return pkgLayer["meta"]
	}
	return layerOther
}

func isRuntime(name string) bool {
	return strings.HasPrefix(name, "runtime.") ||
		strings.HasPrefix(name, "internal/runtime/") ||
		strings.HasPrefix(name, "runtime/internal/")
}

// isGCFrame reports frames of the collector: background mark workers,
// mark assists, sweeping, scavenging and write-barrier flushes.
func isGCFrame(name string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanstack", "runtime.sweepone",
		"runtime.deductSweepCredit", "runtime.wbBufFlush", "runtime.(*gcWork)",
		"runtime.(*sweepLocked)", "runtime._GC",
	} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// schedFrames are the runtime's channel and scheduler entry points: every
// Proc park/resume crosses one of them.
var schedFrames = setOf(
	"runtime.chansend", "runtime.chansend1", "runtime.chanrecv", "runtime.chanrecv1",
	"runtime.chanrecv2", "runtime.selectgo", "runtime.closechan", "runtime.send",
	"runtime.recv", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.mcall",
	"runtime.gosched_m", "runtime.goschedImpl", "runtime.Gosched", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.execute", "runtime.newproc",
	"runtime.newproc1", "runtime.goexit0", "runtime.gdestroy", "runtime.mstart",
	"runtime.mstart0", "runtime.mstart1", "runtime.semacquire1", "runtime.semrelease1",
	"runtime.notesleep", "runtime.notewakeup", "runtime.runqget", "runtime.runqput",
	"runtime.runqsteal", "runtime.stealWork", "runtime.handoffp", "runtime.acquirep",
	"runtime.releasep", "runtime.resetspinning",
)

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Types of internal/sim by layer. Methods default to their receiver's
// layer; the method tables below override single methods.
var (
	simAllocTypes = setOf(
		"flowSet", "flow", "fanout", "Flow", "Resource", "shareEntry", "shareHeap",
		"resState", "fastEntry", "fastHeap", "solveScratch", "resSample", "taskBuf",
		"component", "splitResidue", "FlowGroup", "FlowGroupStats", "AllocMode",
		"AllocStats", "ParallelStats",
	)
	simDispatchTypes = setOf(
		"Engine", "event", "eventHeap", "Mailbox", "WaitGroup", "Semaphore",
		"Barrier", "Event", "Time",
	)
	simHandoffTypes = setOf("Proc")

	// Engine and Proc methods that belong to another layer than their
	// receiver's.
	simAllocMethods = setOf(
		"SetAllocMode", "SetDifferentialCheck", "AllocStats", "ActiveComponents",
		"StartTransfer", "ActiveFlows", "RecomputeFlows", "RecomputeResources",
		"CheckFlowConservation", "ParallelStats", "NewFlowGroup", "StartTransferGroup",
		"Transfer", "TransferAll", "TransferGroup",
	)
	simHandoffMethods = setOf("Go")

	// Package-level functions of the allocator; other package-level
	// functions are engine plumbing.
	simAllocFuncs = setOf(
		"recomputeDebugConfig", "SetRecomputeDebug", "setRate", "getRate",
		"mergeBySeq", "numCPU", "parallelDo", "batchFlows", "NewResource",
	)
	simAllocFiles = setOf("alloc.go", "components.go", "parallel.go", "group.go")
)

// simLayer splits internal/sim between event dispatch, proc handoff and the
// flow allocator. rest is the symbol after "sim.", e.g. "(*flowSet).split",
// "eventHeap.less" or "parallelDo.func1"; file is the defining source file
// when known, and decides for names the tables do not list.
func simLayer(rest, file string) string {
	head, tail, _ := strings.Cut(rest, ".")
	recv := strings.TrimSuffix(strings.TrimPrefix(head, "(*"), ")")
	if i := strings.IndexByte(recv, '['); i >= 0 {
		recv = recv[:i] // generic instantiation
	}
	method, _, _ := strings.Cut(tail, ".")
	switch {
	case simAllocTypes[recv]:
		return layerAlloc
	case simDispatchTypes[recv], simHandoffTypes[recv]:
		switch {
		case simAllocMethods[method]:
			return layerAlloc
		case simHandoffMethods[method], simHandoffTypes[recv]:
			return layerHandoff
		}
		return layerDispatch
	case simAllocFuncs[recv]:
		return layerAlloc
	case simAllocFiles[path.Base(file)]:
		return layerAlloc
	}
	return layerDispatch
}

// layerSeconds attributes every sample of a CPU profile and returns the
// CPU seconds per layer.
func layerSeconds(p *profile) map[string]float64 {
	ns := map[string]int64{}
	if vi := p.valueIndex("cpu/nanoseconds"); vi >= 0 {
		for _, s := range p.samples {
			ns[attribute(s.stack)] += s.values[vi]
		}
	}
	out := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		out[l] = float64(ns[l]) / 1e9
	}
	return out
}
