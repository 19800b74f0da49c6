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
