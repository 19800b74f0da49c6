package striping

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"univistor/internal/sim"
)

func TestPerServerUnitsEq2(t *testing.T) {
	cases := []struct {
		maxUnits, servers, alpha, want int
	}{
		{248, 31, 8, 8},   // 248/31 = 8 = α
		{248, 16, 8, 8},   // 15.5 capped at α
		{248, 124, 8, 2},  // 2 < α
		{248, 200, 8, 1},  // 1.24 floors to 1
		{248, 1000, 8, 1}, // below 1 clamps to 1
	}
	for _, tc := range cases {
		if got := PerServerUnits(tc.maxUnits, tc.servers, tc.alpha); got != tc.want {
			t.Errorf("PerServerUnits(%d, %d, %d) = %d, want %d",
				tc.maxUnits, tc.servers, tc.alpha, got, tc.want)
		}
	}
}

func TestDumServersEq6PaperExample(t *testing.T) {
	// Paper example: 512 servers on 248 OSTs. Eq. 6 gives
	// ceil(512/248) × 248 = 3 × 248 = 744; the paper's printed "724" is a
	// typo (724 is not a multiple of 248, which Eq. 6 guarantees).
	if got := DumServers(512, 248); got != 744 {
		t.Errorf("DumServers(512, 248) = %d, want 744 (3×248)", got)
	}
	if got := DumServers(496, 248); got != 496 {
		t.Errorf("DumServers(496, 248) = %d, want 496 (already a multiple)", got)
	}
	if got := DumServers(497, 248); got != 744 {
		t.Errorf("DumServers(497, 248) = %d, want 744", got)
	}
}

func TestAdaptiveCase1DistinctOSTSets(t *testing.T) {
	p := Params{MaxUnits: 16, Servers: 4, Alpha: 8, FileSize: 1 << 30, MaxStripe: 1 << 30}
	plan, err := Adaptive(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PerServer != 4 { // 16/4 = 4 < α
		t.Errorf("PerServer = %d, want 4", plan.PerServer)
	}
	seen := map[int]int{}
	for s := 0; s < p.Servers; s++ {
		parts := plan.Layout().Parts(ServerRange(p.FileSize, p.Servers, s))
		if len(parts) != 4 {
			t.Errorf("server %d has %d OSTs, want 4", s, len(parts))
		}
		for _, part := range parts {
			seen[part.Unit]++
		}
	}
	// Distinct sets: every OST used exactly once.
	if len(seen) != 16 {
		t.Fatalf("OSTs used = %d, want 16 distinct", len(seen))
	}
	for o, n := range seen {
		if n != 1 {
			t.Errorf("OST %d assigned to %d servers, want 1", o, n)
		}
	}
}

func TestAdaptiveCase1AlphaCapsWidth(t *testing.T) {
	p := Params{MaxUnits: 248, Servers: 2, Alpha: 8, FileSize: 1 << 30, MaxStripe: 1 << 30}
	plan, err := Adaptive(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PerServer != 8 {
		t.Errorf("PerServer = %d, want α=8 (124 would add sync overhead)", plan.PerServer)
	}
}

func TestAdaptiveCase1StripeSizeEq3(t *testing.T) {
	p := Params{MaxUnits: 16, Servers: 4, Alpha: 8, FileSize: 1 << 20, MaxStripe: 1 << 30}
	plan, _ := Adaptive(p)
	// S_stripe = S_file / (C_servers × C_per_server) = 1 MiB / 16 = 64 KiB.
	if plan.StripeSize != 1<<16 {
		t.Errorf("StripeSize = %d, want %d", plan.StripeSize, 1<<16)
	}
	// Capped by S_max.
	p.MaxStripe = 1 << 10
	plan, _ = Adaptive(p)
	if plan.StripeSize != 1<<10 {
		t.Errorf("StripeSize = %d, want S_max %d", plan.StripeSize, 1<<10)
	}
}

func TestAdaptiveCase2BalancesLoad(t *testing.T) {
	// 512 servers, 248 OSTs: Eq. 5 alone leaves 16 OSTs with 3 servers.
	p := Params{MaxUnits: 248, Servers: 512, Alpha: 8, FileSize: 512 << 20, MaxStripe: 1 << 30}
	adaptive, err := Adaptive(p)
	if err != nil {
		t.Fatal(err)
	}
	eq5, err := Eq5(p)
	if err != nil {
		t.Fatal(err)
	}
	ia, i5 := adaptive.Imbalance(), eq5.Imbalance()
	if ia >= i5 {
		t.Errorf("adaptive imbalance %v not better than Eq.5 %v", ia, i5)
	}
	if i5 < 1.3 {
		t.Errorf("Eq.5 imbalance %v, expected the 3-vs-2 straggler (≈1.45)", i5)
	}
	if ia > 1.1 {
		t.Errorf("adaptive imbalance %v, want near 1.0", ia)
	}
}

func TestEq5EvenWhenDivisible(t *testing.T) {
	p := Params{MaxUnits: 8, Servers: 16, Alpha: 8, FileSize: 16 << 20, MaxStripe: 1 << 30}
	eq5, _ := Eq5(p)
	if imb := eq5.Imbalance(); imb != 1.0 {
		t.Errorf("Eq.5 imbalance %v with divisible counts, want 1.0", imb)
	}
}

// Eq. 5 gives each server one stripe of ceil(S_file/C_servers) bytes over
// min(C_servers, C_max_units) OSTs: the layout the flush creates.
func TestEq5Layout(t *testing.T) {
	p := Params{MaxUnits: 6, Servers: 4, Alpha: 8, FileSize: 10, MaxStripe: 1 << 30}
	plan, err := ForPolicy("eq5", p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.StripeSize != 3 || plan.StripeCount != 4 {
		t.Errorf("Eq.5 layout = stripe %d × %d OSTs, want 3 × 4", plan.StripeSize, plan.StripeCount)
	}
}

func TestStripeAllTouchesEveryOST(t *testing.T) {
	p := Params{MaxUnits: 8, Servers: 2, Alpha: 8, FileSize: 1 << 20, MaxStripe: 1 << 30}
	plan, err := StripeAll(p, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p.Servers; s++ {
		if parts := plan.Layout().Parts(ServerRange(p.FileSize, p.Servers, s)); len(parts) != 8 {
			t.Errorf("server %d touches %d OSTs, want all 8", s, len(parts))
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{MaxUnits: 0, Servers: 1, Alpha: 1, FileSize: 1, MaxStripe: 1},
		{MaxUnits: 1, Servers: 0, Alpha: 1, FileSize: 1, MaxStripe: 1},
		{MaxUnits: 1, Servers: 1, Alpha: 0, FileSize: 1, MaxStripe: 1},
		{MaxUnits: 1, Servers: 1, Alpha: 1, FileSize: 0, MaxStripe: 1},
		{MaxUnits: 1, Servers: 1, Alpha: 1, FileSize: 1, MaxStripe: 0},
	}
	ok := Params{MaxUnits: 1, Servers: 1, Alpha: 1, FileSize: 1, MaxStripe: 1}
	if _, err := ForPolicy("stripe-none", ok); err == nil {
		t.Error("ForPolicy accepted an unknown policy")
	}
	for i, p := range bad {
		if _, err := Adaptive(p); err == nil {
			t.Errorf("case %d: Adaptive accepted invalid params", i)
		}
		if _, err := Eq5(p); err == nil {
			t.Errorf("case %d: Eq5 accepted invalid params", i)
		}
		if _, err := StripeAll(p, 1); err == nil {
			t.Errorf("case %d: StripeAll accepted invalid params", i)
		}
	}
}

// Property: the server ranges mapped through every plan's layout cover
// exactly FileSize bytes, every server with bytes lands on at least one OST
// in range, and adaptive case-1 plans never exceed α OSTs per server.
func TestPlanInvariantsProperty(t *testing.T) {
	prop := func(unitsRaw, serversRaw uint8, sizeRaw uint32) bool {
		p := Params{
			MaxUnits:  int(unitsRaw)%64 + 1,
			Servers:   int(serversRaw)%128 + 1,
			Alpha:     8,
			FileSize:  int64(sizeRaw)%(1<<24) + 1,
			MaxStripe: 1 << 20,
		}
		for _, mk := range []func(Params) (Plan, error){
			Adaptive, Eq5,
			func(p Params) (Plan, error) { return StripeAll(p, 1<<16) },
		} {
			plan, err := mk(p)
			if err != nil {
				return false
			}
			if plan.StripeSize <= 0 {
				return false
			}
			var total int64
			for s := 0; s < p.Servers; s++ {
				_, bytes := ServerRange(p.FileSize, p.Servers, s)
				parts := plan.Layout().Parts(ServerRange(p.FileSize, p.Servers, s))
				// Zero-byte servers (FileSize < Servers) legitimately land
				// nowhere; any server with bytes must have targets.
				if bytes > 0 && len(parts) == 0 {
					return false
				}
				if len(parts) > p.MaxUnits {
					return false
				}
				for _, part := range parts {
					if part.Unit < 0 || part.Unit >= p.MaxUnits {
						return false
					}
					total += part.Size
				}
			}
			if total != p.FileSize {
				return false
			}
			if plan.Policy == "adaptive" && p.Servers < p.MaxUnits && plan.PerServer > p.Alpha {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Tiny files — fewer bytes than flushing servers — leave trailing servers
// an empty range, which must land nowhere rather than panic.
func TestTinyFilePlansDoNotPanic(t *testing.T) {
	for _, servers := range []int{2, 7, 64, 128} {
		for _, size := range []int64{1, 2, int64(servers) - 1} {
			if size <= 0 {
				continue
			}
			p := Params{MaxUnits: 8, Servers: servers, Alpha: 8,
				FileSize: size, MaxStripe: 1 << 20}
			for _, mk := range []func(Params) (Plan, error){
				Adaptive, Eq5,
				func(p Params) (Plan, error) { return StripeAll(p, 1<<16) },
			} {
				plan, err := mk(p)
				if err != nil {
					t.Fatalf("servers=%d size=%d: %v", servers, size, err)
				}
				load := plan.LoadPerOST() // must not panic
				var sum int64
				for _, l := range load {
					sum += l
				}
				if sum != size {
					t.Errorf("%s servers=%d size=%d: load sum %d, want %d",
						plan.Policy, servers, size, sum, size)
				}
				_ = plan.Imbalance()
			}
		}
	}
}

// The tiny-file property: every plan maker handles FileSize < Servers.
func TestTinyFileProperty(t *testing.T) {
	prop := func(serversRaw uint8, sizeRaw uint8) bool {
		servers := int(serversRaw)%126 + 2
		size := int64(sizeRaw)%int64(servers-1) + 1 // always < servers
		p := Params{MaxUnits: 8, Servers: servers, Alpha: 8,
			FileSize: size, MaxStripe: 1 << 20}
		plan, err := Adaptive(p)
		if err != nil {
			return false
		}
		var sum int64
		for _, l := range plan.LoadPerOST() {
			if l < 0 {
				return false
			}
			sum += l
		}
		return sum == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: adaptive is never less balanced than Eq. 5.
func TestAdaptiveNeverWorseThanEq5Property(t *testing.T) {
	prop := func(unitsRaw, serversRaw uint8) bool {
		units := int(unitsRaw)%32 + 2
		servers := units + int(serversRaw)%256 // case 2 territory
		p := Params{MaxUnits: units, Servers: servers, Alpha: 8,
			FileSize: 1 << 26, MaxStripe: 1 << 30}
		a, err := Adaptive(p)
		if err != nil {
			return false
		}
		e, err := Eq5(p)
		if err != nil {
			return false
		}
		// Allow a small tolerance: stripe-boundary fragments can leave the
		// adaptive plan a hair above perfectly balanced while divisible Eq.5
		// configurations are exactly 1.0.
		return a.Imbalance() <= e.Imbalance()+0.05
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The flush charges OST load through Layout.Parts, so the plans' load
// metric must follow it where a per-server OST list would not: an S_max-
// capped adaptive stripe that fills only 64 of 248 OSTs, and stripe-all
// ranges that each cover eight consecutive 1 MiB stripes.
func TestImbalanceFollowsFlushPlacement(t *testing.T) {
	adaptive, err := Adaptive(Params{MaxUnits: 248, Servers: 4, Alpha: 8,
		FileSize: 64 << 30, MaxStripe: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	for _, l := range adaptive.LoadPerOST() {
		if l > 0 {
			used++
			if l != 1<<30 {
				t.Errorf("adaptive OST load %d, want 1 GiB", l)
			}
		}
	}
	if used != 64 {
		t.Errorf("adaptive uses %d OSTs, want 64", used)
	}
	if imb := adaptive.Imbalance(); imb != 3.875 {
		t.Errorf("adaptive imbalance %v, want 3.875 (248/64)", imb)
	}
	all, err := StripeAll(Params{MaxUnits: 248, Servers: 128, Alpha: 8,
		FileSize: 1 << 30, MaxStripe: 1 << 30}, DefaultStripeSize)
	if err != nil {
		t.Fatal(err)
	}
	// 1024 stripes over 248 OSTs: 32 OSTs carry a fifth stripe.
	if imb := all.Imbalance(); imb != 1.2109375 {
		t.Errorf("stripe-all imbalance %v, want 1.2109375 (5×248/1024)", imb)
	}
}

func TestServerRangeTilesFile(t *testing.T) {
	for _, tc := range []struct {
		size    int64
		servers int
	}{{10, 3}, {2, 5}, {1 << 30, 7}, {12, 4}} {
		next := int64(0)
		for s := 0; s < tc.servers; s++ {
			off, n := ServerRange(tc.size, tc.servers, s)
			if off != next {
				t.Errorf("size %d/%d servers: server %d starts at %d, want %d", tc.size, tc.servers, s, off, next)
			}
			if lo := tc.size / int64(tc.servers); n != lo && n != lo+1 {
				t.Errorf("size %d/%d servers: server %d gets %d bytes", tc.size, tc.servers, s, n)
			}
			next = off + n
		}
		if next != tc.size {
			t.Errorf("size %d/%d servers: ranges end at %d", tc.size, tc.servers, next)
		}
	}
}

func TestLayoutPartsCollapseToEvenSplit(t *testing.T) {
	l := Layout{Size: 10, Count: 3, Start: 7, Units: 8}
	// 13 stripes > 4 passes over 3 units: an even split from the start unit.
	parts := l.Parts(0, 130)
	want := []Part{{7, 44}, {0, 43}, {1, 43}}
	if len(parts) != len(want) {
		t.Fatalf("Parts = %v, want %v", parts, want)
	}
	for i := range want {
		if parts[i] != want[i] {
			t.Errorf("Parts = %v, want %v", parts, want)
		}
	}
	// Within four passes the split is exact: 12 stripes, 4 per unit.
	for _, part := range l.Parts(0, 120) {
		if part.Size != 40 {
			t.Errorf("exact Parts = %v, want 40 bytes each", l.Parts(0, 120))
		}
	}
}

// cutReference walks [off, off+size) one byte at a time: the reference
// the stripe cutter must reproduce exactly.
func cutReference(off, size, stripeSize int64, unit func(int64) int) []Part {
	var parts []Part
	for b := off; b < off+size; b++ {
		u, i := unit(b/stripeSize), 0
		for i < len(parts) && parts[i].Unit != u {
			i++
		}
		if i == len(parts) {
			parts = append(parts, Part{Unit: u})
		}
		parts[i].Size++
	}
	return parts
}

func TestCutMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		stripeSize := 1 + rng.Int63n(64)
		off := rng.Int63n(1024)
		size := rng.Int63n(2048) - 8 // a few empty and negative ranges
		units := 1 + rng.Intn(9)
		// Many-to-one: a hashed rule sends several stripes to one unit and
		// reaches the units out of index order.
		unit := func(stripe int64) int { return int(uint64(stripe)*0x9e3779b97f4a7c15>>40) % units }
		got := Cut(nil, off, size, stripeSize, units, unit)
		want := cutReference(off, size, stripeSize, unit)
		if len(got) != len(want) {
			t.Fatalf("Cut(%d, %d, %d) = %v, want %v", off, size, stripeSize, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Cut(%d, %d, %d) = %v, want %v", off, size, stripeSize, got, want)
			}
		}
		if n := Stripes(off, size, stripeSize); size > 0 && n != (off+size-1)/stripeSize-off/stripeSize+1 || size <= 0 && n != 0 {
			t.Fatalf("Stripes(%d, %d, %d) = %d", off, size, stripeSize, n)
		}
	}
}

func TestLayoutPartsMatchByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		l := Layout{Size: 1 + rng.Int63n(32), Units: 1 + rng.Intn(12)}
		l.Count = 1 + rng.Intn(l.Units)
		l.Start = rng.Intn(l.Units)
		off, size := rng.Int63n(512), 1+rng.Int63n(1024)
		if Stripes(off, size, l.Size) > 4*int64(l.Count) {
			continue // the even-split shortcut, pinned by TestLayoutPartsCollapseToEvenSplit
		}
		unit := func(stripe int64) int { return (l.Start + int(stripe%int64(l.Count))) % l.Units }
		got, want := l.Parts(off, size), cutReference(off, size, l.Size, unit)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%+v.Parts(%d, %d) = %v, want %v", l, off, size, got, want)
		}
	}
}

// Appending into a warm buffer gives exactly the fresh cut after the
// buffer's existing parts, for the stripe walk and both layout regimes
// (the walk and the even split), and allocates nothing. A layout reaches
// min(stripes, Count) units in both regimes.
func TestAppendIntoWarmBufferMatchesCut(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	head := []Part{{Unit: 7, Size: 11}}
	buf := make([]Part, 0, 64)
	for trial := 0; trial < 2000; trial++ {
		stripeSize := 1 + rng.Int63n(64)
		off, size := rng.Int63n(1024), rng.Int63n(2048)-8
		units := 1 + rng.Intn(9)
		unit := func(stripe int64) int { return int(uint64(stripe)*0x9e3779b97f4a7c15>>40) % units }
		buf = Cut(append(buf[:0], head...), off, size, stripeSize, units, unit)
		if want := append(slices.Clone(head), Cut(nil, off, size, stripeSize, units, unit)...); !slices.Equal(buf, want) {
			t.Fatalf("Cut into a warm buffer (%d, %d, %d) = %v, want %v", off, size, stripeSize, buf, want)
		}
		l := Layout{Size: stripeSize, Units: units, Count: 1 + rng.Intn(units), Start: rng.Intn(units)}
		buf = l.AppendParts(append(buf[:0], head...), off, size)
		if want := append(slices.Clone(head), l.Parts(off, size)...); !slices.Equal(buf, want) {
			t.Fatalf("%+v.AppendParts(%d, %d) = %v, want %v", l, off, size, buf, want)
		}
		// The PFS charges its RPC rounds from this count before it cuts.
		if got, want := int64(len(buf)-len(head)), min(Stripes(off, size, l.Size), int64(l.Count)); got != want {
			t.Fatalf("%+v.AppendParts(%d, %d) reaches %d units, want min(stripes, Count) = %d", l, off, size, got, want)
		}
	}
	l := Layout{Size: 1 << 20, Count: 16, Start: 3, Units: 20}
	for _, size := range []int64{5 << 20, 256 << 20} { // walk, even split
		buf = l.AppendParts(buf[:0], 1<<19, size)
		if allocs := testing.AllocsPerRun(50, func() { buf = l.AppendParts(buf[:0], 1<<19, size) }); allocs != 0 {
			t.Errorf("AppendParts of %d bytes into a warm buffer allocates %.1f objects/op, want 0", size, allocs)
		}
	}
}

// BenchmarkParts cuts a 256 MiB write into 1 MiB stripes over 248 OSTs,
// the shared-file shape of the Lustre baseline; it reports the cutter's
// allocations per call.
func BenchmarkParts(b *testing.B) {
	l := Layout{Size: 1 << 20, Count: 248, Units: 248}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Parts(int64(i%8)<<28, 256<<20)
	}
}

// pathRecorder is a sim.Tracer that keeps each started flow's size and
// path.
type pathRecorder struct {
	sizes []float64
	paths [][]*sim.Resource
}

func (r *pathRecorder) FlowBegin(_ sim.Time, _ int64, size float64, rs []*sim.Resource) {
	r.sizes = append(r.sizes, size)
	r.paths = append(r.paths, slices.Clone(rs))
}
func (r *pathRecorder) FlowEnd(sim.Time, int64)                         {}
func (r *pathRecorder) ResourceSample(sim.Time, *sim.Resource, float64) {}
func (r *pathRecorder) Counter(sim.Time, string, int64)                 {}

func TestFanoutTransferPathOrder(t *testing.T) {
	for _, withLock := range []bool{false, true} {
		t.Run(fmt.Sprintf("lock=%v", withLock), func(t *testing.T) {
			e := sim.NewEngine()
			rec := &pathRecorder{}
			e.SetTracer(rec)
			res := func(name string) *sim.Resource { return e.NewResource(name, 1<<30) }
			head := []*sim.Resource{res("port"), res("nic"), res("fabric")}
			units := []*sim.Resource{res("u0"), res("u1"), res("u2")}
			extra := []*sim.Resource{res("srv"), res("mem")}
			var lock *sim.Resource
			if withLock {
				lock = res("lock")
			}
			f := &Fanout{Parts: []Part{{Unit: 2, Size: 300}, {Unit: 0, Size: 100}, {Unit: 1, Size: 200}}}
			e.Go("writer", func(p *sim.Proc) {
				f.Transfer(p, head, func(u int) *sim.Resource { return units[u] }, lock, extra)
			})
			e.Run()
			if len(rec.paths) != len(f.Parts) {
				t.Fatalf("%d flows for %d parts", len(rec.paths), len(f.Parts))
			}
			for i, part := range f.Parts {
				want := append(slices.Clone(head), units[part.Unit])
				if lock != nil {
					want = append(want, lock)
				}
				want = append(want, extra...)
				if !slices.Equal(rec.paths[i], want) {
					t.Errorf("flow %d path %v, want %v", i, names(rec.paths[i]), names(want))
				}
				if rec.sizes[i] != float64(part.Size) {
					t.Errorf("flow %d size %v, want %d", i, rec.sizes[i], part.Size)
				}
			}
		})
	}
}

func names(rs []*sim.Resource) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}
