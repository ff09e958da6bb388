// Package stats provides the measurement side of the experiment harness:
// per-flow latency (a telemetry.Histogram), RFC 3550 interarrival jitter,
// loss and throughput accounting, and fixed-width table rendering for the
// paper-style reports in EXPERIMENTS.md.
package stats

import (
	"fmt"

	"mplsvpn/internal/sim"
	"mplsvpn/internal/telemetry"
)

// Jitter computes RFC 3550 §6.4.1 interarrival jitter: a smoothed estimate
// of transit-time variation, the metric voice SLAs are written against.
type Jitter struct {
	lastTransit sim.Time
	have        bool
	j           float64 // running jitter in ns
	n           int
}

// Observe records a packet that was sent at sent and arrived at arrived.
func (j *Jitter) Observe(sent, arrived sim.Time) {
	transit := arrived - sent
	if j.have {
		d := float64(transit - j.lastTransit)
		if d < 0 {
			d = -d
		}
		j.j += (d - j.j) / 16
	}
	j.lastTransit = transit
	j.have = true
	j.n++
}

// Value returns the current jitter estimate in milliseconds.
func (j *Jitter) Value() float64 { return j.j / float64(sim.Millisecond) }

// Count returns the number of packets observed.
func (j *Jitter) Count() int { return j.n }

// FlowStats aggregates everything measured about one traffic flow (or one
// traffic class): delivery, loss, latency distribution, jitter, goodput.
type FlowStats struct {
	Name      string
	Sent      int
	Delivered int
	Dropped   int
	Bytes     int64               // delivered payload bytes
	Latency   telemetry.Histogram // one-way latency, ms
	Jit       Jitter
	first     sim.Time
	last      sim.Time
	haveTime  bool
}

// RecordSent notes one transmitted packet.
func (f *FlowStats) RecordSent() { f.Sent++ }

// RecordDrop notes one packet lost in the network.
func (f *FlowStats) RecordDrop() { f.Dropped++ }

// RecordDelivery notes a packet that reached its destination.
func (f *FlowStats) RecordDelivery(sent, arrived sim.Time, payloadBytes int) {
	f.Delivered++
	f.Bytes += int64(payloadBytes)
	f.Latency.ObserveDuration(arrived - sent)
	f.Jit.Observe(sent, arrived)
	if !f.haveTime || sent < f.first {
		f.first = sent
	}
	if !f.haveTime || arrived > f.last {
		f.last = arrived
	}
	f.haveTime = true
}

// LossRate returns the fraction of sent packets not delivered, counting
// both recorded drops and packets still in flight at measurement time.
func (f *FlowStats) LossRate() float64 {
	if f.Sent == 0 {
		return 0
	}
	return float64(f.Sent-f.Delivered) / float64(f.Sent)
}

// ThroughputBps returns delivered payload bits per second over the flow's
// active interval.
func (f *FlowStats) ThroughputBps() float64 {
	if !f.haveTime || f.last <= f.first {
		return 0
	}
	return float64(f.Bytes*8) / (f.last - f.first).Seconds()
}

// Summary formats the headline metrics on one line.
func (f *FlowStats) Summary() string {
	return fmt.Sprintf("%-12s sent=%-7d dlvd=%-7d loss=%5.2f%% p50=%6.2fms p99=%7.2fms jit=%5.2fms thr=%8.2fkb/s",
		f.Name, f.Sent, f.Delivered, f.LossRate()*100,
		f.Latency.Percentile(50), f.Latency.Percentile(99),
		f.Jit.Value(), f.ThroughputBps()/1e3)
}
