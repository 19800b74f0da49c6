package bench

// The PR9 tail-latency figure: the multi-tenant gateway in the open loop
// with a quarter of the tenants acting as noisy neighbors (4× the base
// arrival rate), sweeping the per-tenant offered load with QoS admission
// off vs on. Reported per offered rate: p99 and p999 write latency
// (measured from each op's scheduled arrival, so queueing delay lands in
// the tail) and Jain's fairness index over per-tenant delivered bytes.
// Without QoS the heavy tenants take whatever they ask for and fairness
// decays as load grows; with QoS the token buckets shape everyone to the
// sustained rate (inflating the shaped tenants' measured tails — the
// price of enforcement) and the byte quota clips the heavy tenants, so
// fairness holds. Deterministic: same options, same report.

import "univistor/internal/gateway"

// figtailTenants is the tenant population per data point; small enough to
// keep the sweep in smoke-test budgets, large enough for a meaningful
// fairness index.
const figtailTenants = 24

// figtailRates are the swept per-tenant offered loads in ops/s. With 1 MiB
// ops against the default 8 MiB/s per-tenant sustained rate, the sweep
// crosses from under-load (2, 4) through saturation (8) into overload (16).
func figtailRates() []int { return []int{2, 4, 8, 16} }

// FigTail sweeps the open-loop offered load through the gateway, QoS off
// vs on. The Point x-axis is the per-tenant arrival rate in ops/s, not a
// process count.
func FigTail(o Options) *Result {
	res := &Result{
		ID:     "figtail",
		Title:  "Multi-tenant gateway — tail latency and fairness vs offered load",
		Metric: "ms | index",
	}
	names := []string{"p99 ms off", "p99 ms qos", "p999 ms off", "p999 ms qos", "jain off", "jain qos"}
	sweep(res, o, names, figtailRates(), func(rate int) []float64 {
		var reps [2]gateway.Report
		for i, qos := range []bool{false, true} {
			st := uvVariant("", tiersDRAM, nil).stack(figtailTenants, o)
			gcfg := gateway.DefaultConfig()
			gcfg.Tenants = figtailTenants
			gcfg.OpBytes = 1 << 20
			gcfg.ArrivalRate = float64(rate)
			gcfg.DurationSeconds = 3
			gcfg.OpsPerTenant = 0
			gcfg.HeavyFrac = 0.25
			gcfg.HeavyFactor = 4
			gcfg.QoS = qos
			if qos {
				// Quota = sustained rate × duration: what a well-behaved
				// tenant could move; the 4× heavy tenants get clipped.
				gcfg.TenantQuotaBytes = int64(gateway.TenantRateBps * gcfg.DurationSeconds)
			}
			gcfg.Seed = 1717
			rep, _, err := st.Gateway(gcfg)
			st.finish(o, err)
			reps[i] = rep
		}
		off, on := reps[0], reps[1]
		return []float64{off.Write.P99 * 1e3, on.Write.P99 * 1e3,
			off.Write.P999 * 1e3, on.Write.P999 * 1e3, off.JainFairness, on.JainFairness}
	})
	return res
}
