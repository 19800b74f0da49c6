package gateway

import (
	"testing"

	"univistor/internal/core"
	"univistor/internal/mpi"
	"univistor/internal/sim"
)

// BenchmarkOp times one op of the mix, issued back to back by a single
// warm tenant: its client is connected, every object open and every
// segment written before the timer starts. -benchmem prints its
// allocations per op.
func BenchmarkOp(b *testing.B) {
	sys := testSystem(b, leasedPlane)
	sys.W.E.SetDifferentialCheck(false) // the oracle's global re-solve allocates
	g := &Gateway{cfg: opMix(), sys: sys, ingress: sys.W.E.NewResource("gw-ingress", ingressBps)}
	t := g.newTenant(0, false)
	comm := sys.W.Launch("bench", 1, func(r *mpi.Rank) {
		c := sys.Connect(r)
		op := func() {
			if _, _, err := g.doOp(r, c, t); err != nil {
				b.Error(err)
			}
		}
		for range 256 {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			op()
		}
		b.StopTimer()
		for _, o := range t.objects {
			for _, f := range []*core.ClientFile{o.rf, o.wf} {
				if f != nil {
					if err := f.Close(); err != nil {
						b.Error(err)
					}
				}
			}
		}
	}, mpi.LaunchOpts{Nodes: []int{0}})
	sys.W.E.Go("janitor", func(p *sim.Proc) {
		comm.Wait(p)
		sys.Shutdown()
	})
	sys.W.E.Run()
}
