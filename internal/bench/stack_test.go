package bench

import (
	"strings"
	"testing"

	"univistor/internal/core"
	"univistor/internal/gateway"
	"univistor/internal/workloads"
)

// The gateway fronts a UniviStor system: on another driver the runner
// refuses with an error instead of dereferencing the missing system.
func TestStackGatewayNeedsUniviStor(t *testing.T) {
	st, err := NewStack(CoriCluster(8, 8), "lustre", core.DefaultConfig(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gateway.DefaultConfig()
	cfg.Tenants = 4
	if _, _, err := st.Gateway(cfg); err == nil || !strings.Contains(err.Error(), "univistor") {
		t.Fatalf("Gateway on a lustre stack: got %v, want an error naming the univistor driver", err)
	}
}

// A rank's kernel error wins over the run's own outcome, and it comes back
// only once the run has drained: every rank returned and no process is
// left blocked.
func TestStackCheckpointReturnsKernelError(t *testing.T) {
	st, err := NewStack(CoriCluster(8, 8), "univistor", core.DefaultConfig(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.CheckpointConfig{SegmentsPerRank: 1, SegmentBytes: 1 << 20, TimeSteps: 0}
	if _, err := st.Checkpoint(8, 8, cfg); err == nil || !strings.Contains(err.Error(), "TimeSteps") {
		t.Fatalf("Checkpoint with TimeSteps 0: got %v, want the kernel's error", err)
	}
	if d := st.E.Deadlocked(); d != 0 {
		t.Errorf("%d processes left blocked after the run", d)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
}

// A VPIC rank's kernel error comes back from the runner, once the run has
// drained, instead of panicking inside the simulated process.
func TestStackVPICReturnsKernelError(t *testing.T) {
	st, err := NewStack(CoriCluster(8, 8), "univistor", core.DefaultConfig(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads.DefaultVPIC(2)
	cfg.Props = 0
	if _, err := st.VPIC(8, 8, cfg); err == nil || !strings.Contains(err.Error(), "Props") {
		t.Fatalf("VPIC with Props 0: got %v, want the kernel's error", err)
	}
	if d := st.E.Deadlocked(); d != 0 {
		t.Errorf("%d processes left blocked after the run", d)
	}
}

// When the workflow's VPIC ranks fail, the runner returns their error: not
// the BD-CATS failure or the deadlock that follows, and not a panic out of
// Engine.Run. The workflow manager makes an overlapped BD-CATS wait for
// step files that never come.
func TestStackWorkflowReturnsVPICError(t *testing.T) {
	for _, overlap := range []bool{true, false} {
		cc := core.DefaultConfig()
		cc.Workflow = true
		st, err := NewStack(CoriCluster(8, 8), "univistor", cc, "", "")
		if err != nil {
			t.Fatal(err)
		}
		cfg := workloads.DefaultVPIC(2)
		cfg.Props = 0
		_, err = st.Workflow(4, 4, 4, cfg, overlap)
		if err == nil || !strings.Contains(err.Error(), "vpic: ") {
			t.Errorf("overlap=%v: got %v, want the VPIC kernel's error", overlap, err)
		}
		if st.E.Deadlocked() == 0 {
			t.Errorf("overlap=%v: BD-CATS did not block, so the case tests nothing", overlap)
		}
	}
}
