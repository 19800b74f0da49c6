package chaos

import (
	"reflect"
	"strings"
	"testing"

	"univistor/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"seed=1",
		"seed=3,check=0.5,horizon=10,rand=2",
		"seed=1,crash=0@2.5",
		"seed=1,crash=2@w100",
		"seed=1,buddy=1@3",
		"seed=1,stall=0@1+0.5",
		"seed=1,degrade=nic:0:0.5@4+2",
		"seed=1,degrade=ost:3:0.25@6",
		"seed=1,degrade=bb:1:0.1@2+1",
		"seed=1,degrade=fabric:0.5@2+2",
		"seed=1,bboutage@3",
		"seed=1,bboutage@3+1.5",
		"seed=1,metacrash=0@2",
		"seed=1,metacrash=2@1.5+0.75",
		"seed=1,metasplit@0.5",
	}
	for _, s := range specs {
		spec, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		canon := spec.String()
		again, err := Parse(canon)
		if err != nil {
			t.Errorf("Parse(String(%q)) = %q: %v", s, canon, err)
			continue
		}
		if again.String() != canon {
			t.Errorf("round trip of %q: %q != %q", s, again.String(), canon)
		}
	}
}

func TestParseOrderIndependent(t *testing.T) {
	a, err := Parse("seed=1,crash=0@2,stall=1@1+0.5,degrade=fabric:0.5@3+1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("seed=1,degrade=fabric:0.5@3+1,stall=1@1+0.5,crash=0@2")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("token order changed the schedule: %q != %q", a.String(), b.String())
	}
	if len(a.Faults) != 3 || a.Faults[0].Kind != KindStall {
		t.Errorf("faults not sorted by time: %v", a.Faults)
	}
}

func TestParseDefaults(t *testing.T) {
	spec, err := Parse("check=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 {
		t.Errorf("default seed = %d, want 1", spec.Seed)
	}
	if spec.Horizon != DefaultHorizon {
		t.Errorf("check without horizon: horizon = %v, want %v", spec.Horizon, DefaultHorizon)
	}
	spec, err = Parse("seed=2,horizon=9,rand=1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Horizon != sim.Time(9) {
		t.Errorf("explicit horizon overridden: %v", spec.Horizon)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"seed=abc",
		"frobnicate=1",
		"crash=0",             // missing @TIME
		"crash=x@1",           // bad target
		"crash=0@w0",          // write trigger must be positive
		"metacrash=0",         // missing @TIME
		"metacrash=0@w5",      // write triggers are crash-only
		"stall=0@1",           // stall needs a window
		"stall=0@1+0",         // empty window
		"degrade=nic:0:1.5@1", // fraction outside (0,1]
		"degrade=nic:0:0@1",   // zero fraction
		"degrade=nope:0:0.5@1",
		"degrade=fabric:0.5", // missing @TIME
		"bboutage@",
		"check=-1",
		"metasplit@",      // missing time
		"metasplit@1+0.5", // migration has no window
		// Non-finite numbers.
		"check=NaN",
		"horizon=Inf",
		"crash=0@NaN",
		"crash=0@Inf",
		"stall=0@1+Inf",
		"degrade=nic:0:NaN@0.1",
		"degrade=fabric:0.5@0.001+Inf",
		"degrade=fabric:0.5@NaN",
		"bboutage@1+NaN",
		"metasplit@Inf",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
	// Specs that would silently do nothing are refused with a message
	// naming the token that does nothing.
	for s, token := range map[string]string{
		"crash=0@1+2":       "crash=0@1+2", // a crash has no window
		"buddy=1@1+2":       "buddy=1@1+2",
		"rand=-3":           "rand=-3",
		"horizon=4":         "horizon=4", // bounds neither sweeps nor random faults
		"check=2,horizon=1": "check=2",   // no sweep would run
		"check=6":           "check=6",   // past the default horizon
	} {
		_, err := Parse(s)
		if err == nil || !strings.Contains(err.Error(), token) {
			t.Errorf("Parse(%q): got %v, want an error naming %q", s, err, token)
		}
	}
}

// FuzzParse checks the canonical form: whatever spec Parse accepts, its
// String() parses back to an equal Spec with the same String(). The
// committed seed corpus in testdata/fuzz/FuzzParse runs under plain
// `go test`.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		canon := spec.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canonical form %q fails: %v", s, canon, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Errorf("Parse(%q) = %#v, but its canonical form %q parses to %#v", s, spec, canon, again)
		}
		if again.String() != canon {
			t.Errorf("canonical form of %q is unstable: %q then %q", s, canon, again.String())
		}
	})
}

// A degrade fraction of 0 is an outage request; the parser must refuse
// it (degrade would silently clamp to minDegradeFrac) and point the user
// at the bboutage fault kind instead.
func TestParseDegradeZeroPointsAtOutage(t *testing.T) {
	for _, s := range []string{"degrade=nic:0:0@1", "degrade=fabric:0@2", "degrade=bb:1:0.0@3+1"} {
		_, err := Parse(s)
		if err == nil {
			t.Fatalf("Parse(%q) accepted a zero degrade fraction", s)
		}
		if !strings.Contains(err.Error(), KindBBOutage) {
			t.Errorf("Parse(%q) error %q does not mention the %s fault kind", s, err, KindBBOutage)
		}
	}
}

func TestFaultStringCanonical(t *testing.T) {
	cases := map[string]Fault{
		"crash=1@2.5":            {Kind: KindCrash, Index: 1, At: 2.5},
		"crash=0@w10":            {Kind: KindCrash, Index: 0, AfterWrites: 10},
		"stall=2@1+0.5":          {Kind: KindStall, Index: 2, At: 1, Dur: 0.5},
		"degrade=fabric:0.5@2+2": {Kind: KindDegrade, Resource: ResFabric, Frac: 0.5, At: 2, Dur: 2},
		"degrade=nic:3:0.25@4":   {Kind: KindDegrade, Resource: ResNIC, Index: 3, Frac: 0.25, At: 4},
		"bboutage@3+1":           {Kind: KindBBOutage, At: 3, Dur: 1},
		"metacrash=1@2":          {Kind: KindMetaCrash, Index: 1, At: 2},
		"metacrash=0@1.5+0.5":    {Kind: KindMetaCrash, Index: 0, At: 1.5, Dur: 0.5},
		"metasplit@0.5":          {Kind: KindMetaSplit, At: 0.5},
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if !strings.Contains(want, "@") {
			t.Errorf("canonical form %q has no trigger", want)
		}
	}
}
