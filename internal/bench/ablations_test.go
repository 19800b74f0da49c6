package bench

import "testing"

func TestAblationStripingShape(t *testing.T) {
	o := quick()
	// 32 procs / 8 per node → 4 nodes → 8 flush servers over 6 OSTs:
	// the servers-exceed-OSTs regime where Eq. 5 leaves stragglers.
	o.Scales = []int{32}
	r := AblationStriping(o)
	adaptive := get(t, r, "adaptive", 32)
	eq5 := get(t, r, "eq5", 32)
	all := get(t, r, "stripe-all", 32)
	if adaptive <= eq5 {
		t.Errorf("adaptive flush (%.2f) not faster than Eq.5 stragglers (%.2f)", adaptive, eq5)
	}
	if adaptive <= all {
		t.Errorf("adaptive flush (%.2f) not faster than stripe-all (%.2f)", adaptive, all)
	}
}

func TestAblationLocationAwareReadShape(t *testing.T) {
	o := quick()
	o.Scales = []int{16}
	r := AblationLocationAwareRead(o)
	la := get(t, r, "location-aware", 16)
	via := get(t, r, "via-server", 16)
	if la <= via {
		t.Errorf("location-aware read (%.2f) not faster than via-server (%.2f)", la, via)
	}
}

func TestAblationCentralMetadataShape(t *testing.T) {
	o := quick()
	o.Scales = []int{32}
	r := AblationCentralMetadata(o)
	dist := get(t, r, "distributed", 32)
	central := get(t, r, "central", 32)
	if dist <= central {
		t.Errorf("distributed metadata (%.2f) not faster than central (%.2f)", dist, central)
	}
}

func TestAblationServersPerNodeShape(t *testing.T) {
	o := quick()
	o.Scales = []int{16}
	r := AblationServersPerNode(o)
	one := get(t, r, "1/node", 16)
	two := get(t, r, "2/node", 16)
	if two <= one {
		t.Errorf("2 servers/node (%.2f) not faster than 1 (%.2f): ingestion should scale", two, one)
	}
}

func TestAblationSegmentSizeShape(t *testing.T) {
	o := quick()
	o.Scales = []int{16}
	r := AblationSegmentSize(o)
	small := get(t, r, "64KiB", 16)
	big := get(t, r, "24MiB", 16)
	if big <= small*1.02 {
		t.Errorf("large segments (%.2f) not measurably faster than 64 KiB segments (%.2f)", big, small)
	}
}

func TestByIDAndIDsConsistent(t *testing.T) {
	for _, id := range IDs() {
		if _, ok := ByID(id); !ok {
			t.Errorf("IDs lists %q but ByID cannot resolve it", id)
		}
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("ByID resolved a nonsense id")
	}
}

// TestAllFigureSetStable pins the -all figure set: exactly the legacy ten
// paper figures plus the five ablations, in order. figmeta, figdedup,
// figtail and figsplit are runnable by id (and pinned by the golden digest
// test), but must never leak into All() — `univibench -quick -all` output
// stays byte-identical with those features compiled in but disabled.
func TestAllFigureSetStable(t *testing.T) {
	o := quick()
	o.Scales = []int{16}
	want := []string{
		"fig5a", "fig5b", "fig5c",
		"fig6a", "fig6b", "fig6c",
		"fig7", "fig8", "fig9", "fig10",
		"abl-striping", "abl-laread",
		"abl-centralmeta", "abl-servers", "abl-segsize",
	}
	got := All(o)
	if len(got) != len(want) {
		t.Fatalf("All() returns %d figures, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.ID != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, r.ID, want[i])
		}
	}
}
