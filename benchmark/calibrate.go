package main

// Host-speed calibration. The benchmark host is a shared VM whose speed
// drifts by up to 2x over minutes, with no steal time visible in the
// guest: neighbours contend for caches, memory and wake-ups. A fixed piece
// of work timed by the parent at the start of every round tracks that
// drift, and the round's host times are scaled by it, so two invocations
// on one commit agree while a change to the simulator still moves them in
// full.

import (
	"sync"
	"time"
)

// calRefS is the median kernel time on the reference host (see
// benchmark/README.md, Calibration). Time metrics are reported in seconds of
// that host at that speed.
const calRefS = 0.19

// calReps is the number of kernels one calibration times. The host's speed
// also flickers within a second, so one kernel reads too noisily.
const calReps = 2

// calibrator holds the calibration kernel's fixed data, built once.
type calibrator struct {
	ring []uint32 // one random cycle over all slots
}

// calRingSlots sizes the pointer-chase ring (16 MiB): past the private
// caches, so the chase waits on the shared cache and memory as the
// simulator's pointer-heavy solver does.
const calRingSlots = 1 << 22

func newCalibrator() *calibrator {
	ring := make([]uint32, calRingSlots)
	for i := range ring {
		ring[i] = uint32(i)
	}
	// Sattolo's shuffle makes the permutation one cycle.
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(ring) - 1; i > 0; i-- {
		j := int(xorshift(&x) % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return &calibrator{ring: ring}
}

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

// calSink keeps the kernel's results live.
var calSink uint64

// run returns the mean time of calReps kernels, in seconds. The kernel's
// three parts take about equal time on the reference host and stand for
// the simulator's three costs: dependent loads (flow solver and heaps),
// small-object allocation with map lookups (records and GC), and goroutine
// hand-offs over unbuffered channels (simulated-process park and resume).
func (c *calibrator) run() float64 {
	t := time.Now()
	for rep := 0; rep < calReps; rep++ {
		p := uint32(0)
		for i := 0; i < 560_000; i++ {
			p = c.ring[p]
		}
		calSink += uint64(p)
		calSink += calAlloc(110_000)
		calHandoff(160_000)
	}
	return time.Since(t).Seconds() / calReps
}

type calNode struct {
	left, right *calNode
	key         uint64
	val         [3]float64
}

// calAlloc inserts n random keys into an unbalanced binary tree and a map,
// then looks n keys up.
func calAlloc(n int) uint64 {
	m := make(map[uint64]*calNode)
	x := uint64(777)
	var root *calNode
	for i := 0; i < n; i++ {
		k := xorshift(&x)
		nd := &calNode{key: k}
		m[k%uint64(n/2)] = nd
		at := &root
		for *at != nil {
			if k < (*at).key {
				at = &(*at).left
			} else {
				at = &(*at).right
			}
		}
		*at = nd
	}
	sum := uint64(0)
	for i := 0; i < n; i++ {
		if nd := m[xorshift(&x)%uint64(n/2)]; nd != nil {
			sum += nd.key
		}
	}
	return sum
}

// calHandoff passes a token between two goroutines n times.
func calHandoff(n int) {
	ping, pong := make(chan int), make(chan int)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := range ping {
			pong <- v
		}
	}()
	for i := 0; i < n; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	wg.Wait()
}
