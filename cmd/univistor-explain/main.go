// Command univistor-explain prints the arithmetic behind UniviStor's two
// address-level mechanisms for a given configuration: the virtual-address
// layout of Eq. 1 and the adaptive striping plan of Eqs. 2–6 — a debugging
// and teaching aid for the models in this repository.
//
// Usage:
//
//	univistor-explain -mode va -dram 8 -bb 16
//	univistor-explain -mode striping -servers 512 -osts 248 -file 128GiB
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"univistor/internal/meta"
	"univistor/internal/striping"
)

func main() {
	var (
		mode    = flag.String("mode", "striping", "va | striping")
		dram    = flag.Int64("dram", 4, "VA mode: DRAM log capacity (units)")
		ssd     = flag.Int64("ssd", 0, "VA mode: local SSD log capacity (units)")
		bbCap   = flag.Int64("bb", 6, "VA mode: BB log capacity (units)")
		servers = flag.Int("servers", 512, "striping mode: flushing servers (C_servers)")
		osts    = flag.Int("osts", 248, "striping mode: storage units (C_max_units)")
		alpha   = flag.Int("alpha", striping.DefaultAlpha, "striping mode: α (units that saturate one server)")
		file    = flag.String("file", "128GiB", "striping mode: flush file size")
		maxStr  = flag.String("maxstripe", "1GiB", "striping mode: S_max")
	)
	flag.Parse()

	switch *mode {
	case "va":
		explainVA(*dram, *ssd, *bbCap)
	case "striping":
		fileSize, err := parseSize(*file)
		if err != nil {
			fatal("bad -file: %v", err)
		}
		maxStripe, err := parseSize(*maxStr)
		if err != nil {
			fatal("bad -maxstripe: %v", err)
		}
		explainStriping(striping.Params{
			MaxUnits: *osts, Servers: *servers, Alpha: *alpha,
			FileSize: fileSize, MaxStripe: maxStripe,
		})
	default:
		fatal("unknown -mode %q (va | striping)", *mode)
	}
}

func explainVA(dram, ssd, bb int64) {
	space, err := meta.NewAddressSpace([meta.NumTiers]int64{dram, ssd, bb, 0})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println("Virtual address layout (Eq. 1: VA_i = Σ_{k<i} C_k + A_i):")
	for t := 0; t < meta.NumTiers; t++ {
		tier := meta.Tier(t)
		capStr := fmt.Sprintf("%d", space.Cap(tier))
		if tier == meta.TierPFS {
			capStr = "∞"
		}
		fmt.Printf("  %-9s base VA %6d  capacity %s\n", tier, space.Base(tier), capStr)
	}
	fmt.Println("\nexamples:")
	for _, t := range []meta.Tier{meta.TierDRAM, meta.TierBB, meta.TierPFS} {
		if t != meta.TierPFS && space.Cap(t) == 0 {
			continue
		}
		va, err := space.Encode(t, 1)
		if err != nil {
			continue
		}
		fmt.Printf("  segment at physical address 1 on %-5s → VA %d\n", t, va)
	}
}

func explainStriping(p striping.Params) {
	fmt.Printf("Inputs: C_servers=%d  C_max_units=%d  α=%d  S_file=%d  S_max=%d\n\n",
		p.Servers, p.MaxUnits, p.Alpha, p.FileSize, p.MaxStripe)
	var plans []striping.Plan
	for _, policy := range striping.Policies {
		pl, err := striping.ForPolicy(policy, p)
		if err != nil {
			fatal("%v", err)
		}
		plans = append(plans, pl)
	}
	adaptive := plans[0]

	if p.Servers < p.MaxUnits {
		fmt.Printf("Regime: servers < units (case 1, Eqs. 2–4)\n")
		fmt.Printf("  C_per_server = min(%d/%d, %d) = %d\n",
			p.MaxUnits, p.Servers, p.Alpha, adaptive.PerServer)
	} else {
		fmt.Printf("Regime: servers ≥ units (case 2, Eqs. 5–6)\n")
		fmt.Printf("  C_dum_servers = ceil(%d/%d)×%d = %d\n",
			p.Servers, p.MaxUnits, p.MaxUnits, adaptive.DumServers)
	}
	fmt.Printf("  S_stripe = %d   C_stripe = %d\n\n", adaptive.StripeSize, adaptive.StripeCount)

	fmt.Printf("%-12s %-14s %-14s\n", "policy", "stripe size", "imbalance (max/mean OST load)")
	for _, pl := range plans {
		fmt.Printf("%-12s %-14d %.4f\n", pl.Policy, pl.StripeSize, pl.Imbalance())
	}
}

func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	for suffix, m := range map[string]int64{
		"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30, "TiB": 1 << 40,
	} {
		if strings.HasSuffix(s, suffix) {
			mult = m
			s = strings.TrimSuffix(s, suffix)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "univistor-explain: "+format+"\n", args...)
	os.Exit(2)
}
