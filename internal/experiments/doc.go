// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md §3, each returning paper-style tables that
// cmd/vpnbench prints and bench_test.go asserts on.
//
// Catalogue (claims refer to the paper's sections):
//
//	E1  Scalability      §2.1  overlay N(N-1)/2 VCs vs linear MPLS state
//	E2  QoS              §2.2/5 per-class service under congestion + scheduler ablation + latency CDF
//	E3  IPSec            §2.3/3 encryption hides the class; ToS copy; anti-replay interaction
//	E4  Forwarding cost  §3    label lookup flat vs LPM growing with table size
//	E5  Traffic eng.     §2.2/3 CSPF routes around reservations; IGP piles on
//	E6  Isolation        §4    randomized memberships, overlapping space, zero leaks
//	E7  Edge mapping     §5    DSCP -> EXP -> queue -> DSCP fidelity
//	E8  Resilience       §3/5  loss window vs detection delay; iBGP mesh vs RR
//	E9  Ablations        §4(D) LDP modes, PHP, route reflector: cost not correctness
//	E10 Multi-carrier    §5    option-A peering; weakest-link SLA
//	E11 VPN tiers        §2.2  per-VPN QoS levels; self-marking blocked
//	E12 Fast reroute     §3    RFC 4090 bypass bounds the loss window
//	E13 Inter-AS A/B/C   §5    provisioning-vs-state trade at the boundary
//	E14 Flap storm       §3/5  TE reservation continuity: retry/backoff + graceful degradation vs LDP fallback
//
// Every run is seeded; the recorded numbers in EXPERIMENTS.md regenerate
// exactly with `go run ./cmd/vpnbench -dur 5s`.
package experiments
