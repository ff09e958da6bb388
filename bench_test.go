// Package main_test holds the benchmark harness: one testing.B target per
// experiment table/figure in DESIGN.md §3. Each bench both measures the
// cost of regenerating an experiment and asserts its headline shape, so
// `go test -bench=. -benchmem` doubles as the reproduction run.
package main_test

import (
	"fmt"

	"testing"

	"mplsvpn/internal/experiments"
	"mplsvpn/internal/sim"
)

// BenchmarkE1Scalability regenerates the §2.1 provisioning-state table.
func BenchmarkE1Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E1Scalability([]int{10, 25, 50, 100, 200})
		if res.OverlayVCs[0] != 45 || res.OverlayVCs[4] != 19900 {
			b.Fatalf("paper numbers broken: %v", res.OverlayVCs)
		}
	}
}

// BenchmarkE2QoS regenerates the per-class service table under congestion.
func BenchmarkE2QoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E2QoS(2 * sim.Second)
		if res.VoiceLoss["mpls-hybrid"] > 0.001 {
			b.Fatalf("hybrid voice loss %v", res.VoiceLoss["mpls-hybrid"])
		}
		if res.VoiceP99["mpls-hybrid"] >= res.VoiceP99["mpls-fifo"] {
			b.Fatal("QoS architecture did not beat FIFO")
		}
	}
}

// BenchmarkE3IPsec regenerates the IPSec-vs-MPLS visibility comparison.
func BenchmarkE3IPsec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E3IPsec(2 * sim.Second)
		if res.VoiceP99["ipsec-hidden"] <= res.VoiceP99["mpls-vpn"] {
			b.Fatal("encryption did not erase QoS")
		}
	}
}

// BenchmarkE4Forwarding regenerates the label-vs-LPM lookup cost table.
func BenchmarkE4Forwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E4Forwarding([]int{1000, 10000, 100000}, 500000)
		if res.NsPerOp["ilm"] > res.NsPerOp["lpm-100000"] {
			b.Fatal("label lookup slower than 100k-prefix LPM")
		}
	}
}

// BenchmarkE5TE regenerates the TE-vs-shortest-path comparison.
func BenchmarkE5TE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E5TrafficEngineering(2 * sim.Second)
		if !res.LongPathUsed {
			b.Fatal("TE never used the long path")
		}
		if res.Loss["rsvp-te/flowB"] > 0.001 {
			b.Fatalf("TE flow lost %v", res.Loss["rsvp-te/flowB"])
		}
	}
}

// BenchmarkE6Provisioning regenerates the isolation sweep.
func BenchmarkE6Provisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E6Isolation(5, uint64(i)*97+1)
		if res.Violations != 0 || res.WrongReachability != 0 {
			b.Fatalf("isolation broken: %d violations, %d wrong outcomes",
				res.Violations, res.WrongReachability)
		}
	}
}

// BenchmarkE7EdgeMapping regenerates the DSCP->EXP fidelity matrix.
func BenchmarkE7EdgeMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E7EdgeMapping()
		if res.Mismatches != 0 {
			b.Fatalf("mapping mismatches: %d", res.Mismatches)
		}
	}
}

// BenchmarkE8Resilience regenerates the failure-restoration sweep and the
// iBGP scaling comparison.
func BenchmarkE8Resilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E8Resilience(2 * sim.Second)
		// Instant detection loses at most the packets already in flight
		// on the dying link (the failure instant is phase-dependent).
		if res.LossByDetect[0] > 0.005 {
			b.Fatalf("instant failover lost %v", res.LossByDetect[0])
		}
		if res.SessionsRR[32] >= res.SessionsFullMesh[32] {
			b.Fatal("route reflector did not reduce sessions")
		}
	}
}

// BenchmarkE9Ablations regenerates the design-choice ablation table.
func BenchmarkE9Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E9Ablations(sim.Second)
		if res.IndependentRounds >= res.OrderedRounds {
			b.Fatal("independent LDP did not converge faster")
		}
	}
}

// BenchmarkE10MultiCarrier regenerates the cross-carrier SLA comparison.
func BenchmarkE10MultiCarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E10MultiCarrier(2 * sim.Second)
		if res.VoiceP99["both-qos"] >= res.VoiceP99["as2-besteffort"] {
			b.Fatal("cross-carrier QoS no better than weakest-link baseline")
		}
	}
}

// BenchmarkE11VPNTiers regenerates the per-VPN QoS level table.
func BenchmarkE11VPNTiers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E11VPNTiers(2 * sim.Second)
		if !res.CheatBlocked {
			b.Fatal("edge re-marking failed")
		}
	}
}

// BenchmarkE12FastReroute regenerates the FRR protection comparison.
func BenchmarkE12FastReroute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E12FastReroute(2 * sim.Second)
		if res.Loss["frr"][1000] > 0.01 {
			b.Fatal("FRR failed to bound the loss window")
		}
	}
}

// BenchmarkE13InterASOptions regenerates the option A/B/C comparison.
func BenchmarkE13InterASOptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E13InterASOptions(sim.Second, 4)
		if d := res.Delivered; d["A"] != d["B"] || d["A"] != d["C"] {
			b.Fatal("inter-AS options diverged")
		}
	}
}

// BenchmarkBackbone200 drives the E15 200-site workload through the
// serial engine and the sharded backend at 2/4/8 shards. Parallel gain
// requires GOMAXPROCS > 1 — on a single-core host the sub-benchmarks
// measure coordination overhead instead; the delivered-packet assertion
// pins the workload as byte-equivalent either way.
func BenchmarkBackbone200(b *testing.B) {
	const dur = 200 * sim.Millisecond
	want := experiments.RunScaling(experiments.ScalingSites, 0, dur)
	for _, shards := range []int{0, 2, 4, 8} {
		name := "serial"
		if shards > 0 {
			name = fmt.Sprintf("shards-%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.RunScaling(experiments.ScalingSites, shards, dur)
				if r.Delivered != want.Delivered {
					b.Fatalf("delivered %d, serial %d", r.Delivered, want.Delivered)
				}
				b.ReportMetric(float64(r.Events)/r.Wall.Seconds(), "events/s")
			}
		})
	}
}
