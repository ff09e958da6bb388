package qos

import (
	"math"
	"testing"
	"testing/quick"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
)

func pkt(bytes int, c packet.DSCP) *packet.Packet {
	return &packet.Packet{
		IP:      packet.IPv4Header{DSCP: c, TTL: 64, Protocol: packet.ProtoUDP},
		Payload: bytes - packet.IPv4HeaderLen - packet.L4HeaderLen,
	}
}

func TestClassEXPRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if got := ClassForEXP(EXPForClass(c)); got != c {
			t.Errorf("class %v -> exp %d -> class %v", c, EXPForClass(c), got)
		}
	}
}

func TestClassDSCPRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if got := ClassForDSCP(DSCPForClass(c)); got != c {
			t.Errorf("class %v -> dscp %v -> class %v", c, DSCPForClass(c), got)
		}
	}
}

func TestClassOfUsesEXPWhenLabeled(t *testing.T) {
	p := pkt(100, packet.DSCPBestEffort)
	p.MPLS = packet.StackOf(packet.LabelStackEntry{Label: 100, EXP: 5})
	if got := ClassOf(p); got != ClassVoice {
		t.Fatalf("labeled packet class = %v, want voice", got)
	}
	p.MPLS.Clear()
	p.IP.DSCP = packet.DSCPEF
	if got := ClassOf(p); got != ClassVoice {
		t.Fatalf("IP packet class = %v, want voice", got)
	}
}

func TestTokenBucketConformance(t *testing.T) {
	tb := NewTokenBucket(1000, 500) // 1000 B/s, 500 B burst
	// Bucket starts full: 500 bytes conform immediately.
	if !tb.Conforms(0, 500) {
		t.Fatal("initial burst should conform")
	}
	if tb.Conforms(0, 1) {
		t.Fatal("empty bucket admitted a packet")
	}
	// After one second, 1000 tokens accrued but capped at 500.
	if got := tb.Tokens(sim.Second); got != 500 {
		t.Fatalf("tokens after 1s = %v, want 500 (cap)", got)
	}
	if !tb.Conforms(sim.Second, 400) {
		t.Fatal("refilled bucket rejected conforming packet")
	}
}

func TestTokenBucketDelayUntilConform(t *testing.T) {
	tb := NewTokenBucket(1000, 100)
	tb.Conforms(0, 100) // drain
	d := tb.DelayUntilConform(0, 50)
	if d != 50*sim.Millisecond {
		t.Fatalf("delay = %v, want 50ms", d)
	}
	if got := tb.DelayUntilConform(0, 0); got != 0 {
		t.Fatalf("zero-byte delay = %v", got)
	}
}

// Property: over any long window, admitted bytes never exceed burst + rate*t.
func TestTokenBucketRateBoundProperty(t *testing.T) {
	f := func(sizes []uint16, gapsMs []uint8) bool {
		const rate, burst = 10000.0, 2000.0
		tb := NewTokenBucket(rate, burst)
		var now sim.Time
		admitted := 0.0
		for i, sz := range sizes {
			if i < len(gapsMs) {
				now += sim.Time(gapsMs[i]) * sim.Millisecond
			}
			n := int(sz%3000) + 1
			if tb.Conforms(now, n) {
				admitted += float64(n)
			}
		}
		bound := burst + rate*now.Seconds() + 1e-6
		return admitted <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSrTCMColors(t *testing.T) {
	m := NewSrTCM(1000, 1000, 500)
	// Committed bucket full: first 1000 bytes green.
	if c := m.Mark(0, 1000); c != Green {
		t.Fatalf("first kilobyte = %v, want green", c)
	}
	// Next 500 bytes fit the excess bucket: yellow.
	if c := m.Mark(0, 500); c != Yellow {
		t.Fatalf("excess burst = %v, want yellow", c)
	}
	// Beyond both: red.
	if c := m.Mark(0, 100); c != Red {
		t.Fatalf("over both buckets = %v, want red", c)
	}
}

func TestQueueLimits(t *testing.T) {
	q := NewQueue(1000)
	if !q.Enqueue(0, pkt(600, 0)) {
		t.Fatal("first packet rejected")
	}
	if q.Enqueue(0, pkt(600, 0)) {
		t.Fatal("over-limit packet accepted")
	}
	if q.DroppedFull != 1 {
		t.Fatalf("DroppedFull = %d", q.DroppedFull)
	}
	if q.Len() != 1 || q.Bytes() != 600 {
		t.Fatalf("Len/Bytes = %d/%d", q.Len(), q.Bytes())
	}
	p := q.Dequeue()
	if p == nil || q.Len() != 0 || q.Bytes() != 0 {
		t.Fatal("dequeue accounting broken")
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty returned a packet")
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue(0)
	for i := 0; i < 10; i++ {
		p := pkt(100, 0)
		p.Seq = uint64(i)
		q.Enqueue(0, p)
	}
	for i := 0; i < 10; i++ {
		if got := q.Dequeue().Seq; got != uint64(i) {
			t.Fatalf("dequeue order broken: got %d at %d", got, i)
		}
	}
}

func TestREDDropsUnderLoad(t *testing.T) {
	rng := sim.NewRand(1)
	red := NewRED(5000, 15000, 0.1, rng)
	q := NewQueue(1000000)
	q.Drop = red
	drops := 0
	// Fill to a steady 20KB of occupancy: avg climbs above max -> drops.
	for i := 0; i < 400; i++ {
		if !q.Enqueue(0, pkt(500, 0)) {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("RED never dropped despite sustained overload")
	}
	if q.DroppedEarly != drops {
		t.Fatalf("drop accounting mismatch: %d vs %d", q.DroppedEarly, drops)
	}
	// And an empty queue never drops.
	red2 := NewRED(5000, 15000, 0.1, rng)
	q2 := NewQueue(1000000)
	q2.Drop = red2
	if !q2.Enqueue(0, pkt(500, 0)) {
		t.Fatal("RED dropped at zero occupancy")
	}
}

func TestPrioritySchedulerOrder(t *testing.T) {
	s := NewPriority(0)
	be := pkt(100, packet.DSCPBestEffort)
	ef := pkt(100, packet.DSCPEF)
	s.Enqueue(0, ClassBestEffort, be)
	s.Enqueue(0, ClassVoice, ef)
	if got := s.Dequeue(0); got != ef {
		t.Fatal("priority scheduler served BE before EF")
	}
	if got := s.Dequeue(0); got != be {
		t.Fatal("BE packet lost")
	}
	if s.Dequeue(0) != nil {
		t.Fatal("empty scheduler returned a packet")
	}
}

func TestFIFOSchedulerIgnoresClass(t *testing.T) {
	s := NewFIFO(0)
	be := pkt(100, packet.DSCPBestEffort)
	ef := pkt(100, packet.DSCPEF)
	s.Enqueue(0, ClassBestEffort, be)
	s.Enqueue(0, ClassVoice, ef)
	if got := s.Dequeue(0); got != be {
		t.Fatal("FIFO did not serve in arrival order")
	}
}

// drainShares runs a scheduler to exhaustion and returns bytes served per
// class.
func drainShares(s Scheduler) [NumClasses]int {
	var out [NumClasses]int
	for {
		p := s.Dequeue(0)
		if p == nil {
			return out
		}
		out[ClassForDSCP(p.IP.DSCP)] += p.SerializedLen()
	}
}

func TestWFQProportionalShares(t *testing.T) {
	var w [NumClasses]float64
	w[ClassBusiness] = 3
	w[ClassBestEffort] = 1
	s := NewWFQ(0, w)
	for i := 0; i < 400; i++ {
		s.Enqueue(0, ClassBusiness, pkt(500, packet.DSCPAF41))
		s.Enqueue(0, ClassBestEffort, pkt(500, packet.DSCPBestEffort))
	}
	// Serve only the first half of the backlog, then compare service.
	var served [NumClasses]int
	for i := 0; i < 400; i++ {
		p := s.Dequeue(0)
		served[ClassForDSCP(p.IP.DSCP)] += p.SerializedLen()
	}
	ratio := float64(served[ClassBusiness]) / float64(served[ClassBestEffort])
	if math.Abs(ratio-3) > 0.35 {
		t.Fatalf("WFQ share ratio = %v, want ~3", ratio)
	}
}

func TestWFQWorkConserving(t *testing.T) {
	var w [NumClasses]float64
	w[ClassBusiness] = 3
	w[ClassBestEffort] = 1
	s := NewWFQ(0, w)
	// Only BE is backlogged: it must receive full service.
	for i := 0; i < 10; i++ {
		s.Enqueue(0, ClassBestEffort, pkt(500, packet.DSCPBestEffort))
	}
	out := drainShares(s)
	if out[ClassBestEffort] != 10*500 {
		t.Fatalf("WFQ not work conserving: served %d bytes", out[ClassBestEffort])
	}
}

func TestDRRApproximateFairness(t *testing.T) {
	var q [NumClasses]int
	q[ClassBusiness] = 1500
	q[ClassBestEffort] = 500
	s := NewDRR(0, q)
	for i := 0; i < 300; i++ {
		s.Enqueue(0, ClassBusiness, pkt(500, packet.DSCPAF41))
		s.Enqueue(0, ClassBestEffort, pkt(500, packet.DSCPBestEffort))
	}
	var served [NumClasses]int
	for i := 0; i < 200; i++ {
		p := s.Dequeue(0)
		served[ClassForDSCP(p.IP.DSCP)] += p.SerializedLen()
	}
	ratio := float64(served[ClassBusiness]) / float64(served[ClassBestEffort])
	if math.Abs(ratio-3) > 0.7 {
		t.Fatalf("DRR share ratio = %v, want ~3", ratio)
	}
}

func TestHybridPriorityThenWFQ(t *testing.T) {
	var w [NumClasses]float64
	w[ClassBusiness] = 1
	w[ClassBestEffort] = 1
	s := NewHybrid(0, w)
	be := pkt(100, packet.DSCPBestEffort)
	ef := pkt(100, packet.DSCPEF)
	s.Enqueue(0, ClassBestEffort, be)
	s.Enqueue(0, ClassVoice, ef)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Dequeue(0); got != ef {
		t.Fatal("hybrid did not prioritize voice")
	}
	if got := s.Dequeue(0); got != be {
		t.Fatal("hybrid lost the BE packet")
	}
	if s.ClassQueue(ClassVoice) == nil || s.ClassQueue(ClassBestEffort) == nil {
		t.Fatal("ClassQueue returned nil")
	}
}

func TestClassifierFirstMatchAndDefault(t *testing.T) {
	cl := NewClassifier()
	cl.Add(&ClassPolicy{
		Name:  "voice",
		Rule:  Rule{Protocol: packet.ProtoUDP, DstPort: 5060},
		Class: ClassVoice,
		DSCP:  packet.DSCPEF,
	})
	p := pkt(200, 0)
	p.L4.DstPort = 5060
	c, ok := cl.Classify(0, p)
	if !ok || c != ClassVoice || p.IP.DSCP != packet.DSCPEF {
		t.Fatalf("voice classify = %v/%v dscp=%v", c, ok, p.IP.DSCP)
	}
	q := pkt(200, packet.DSCPAF41)
	q.L4.DstPort = 80
	c, ok = cl.Classify(0, q)
	if !ok || c != ClassBestEffort || q.IP.DSCP != packet.DSCPBestEffort {
		t.Fatalf("default classify = %v dscp=%v", c, q.IP.DSCP)
	}
}

func TestClassifierPolicing(t *testing.T) {
	cl := VoiceDataPolicy(5060, 1000) // 1 KB/s voice contract
	mk := func() *packet.Packet {
		p := pkt(1000, 0)
		p.L4.DstPort = 5060
		return p
	}
	greens, drops := 0, 0
	for i := 0; i < 40; i++ {
		_, ok := cl.Classify(0, mk())
		if ok {
			greens++
		} else {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("policer never dropped red traffic")
	}
	if greens == 0 {
		t.Fatal("policer admitted nothing")
	}
	pol := cl.Policies[0]
	if pol.Policed != drops || pol.Matched != 40 {
		t.Fatalf("counters: policed=%d matched=%d", pol.Policed, pol.Matched)
	}
}

func TestRuleMatching(t *testing.T) {
	r := Rule{
		SrcPrefix: addr.MustParsePrefix("10.0.0.0/8"),
		Protocol:  packet.ProtoUDP,
		DstPort:   53,
	}
	p := pkt(100, 0)
	p.IP.Src = addr.MustParseIPv4("10.1.1.1")
	p.L4.DstPort = 53
	if !r.Matches(p) {
		t.Fatal("rule should match")
	}
	p.IP.Src = addr.MustParseIPv4("11.1.1.1")
	if r.Matches(p) {
		t.Fatal("src prefix not enforced")
	}
	p.IP.Src = addr.MustParseIPv4("10.1.1.1")
	p.L4.DstPort = 80
	if r.Matches(p) {
		t.Fatal("dst port not enforced")
	}
	rd := Rule{MatchDSCP: true, DSCP: packet.DSCPEF}
	if rd.Matches(p) {
		t.Fatal("DSCP match not enforced")
	}
	p.IP.DSCP = packet.DSCPEF
	if !rd.Matches(p) {
		t.Fatal("DSCP match failed")
	}
}

func TestHybridEFLimit(t *testing.T) {
	var w [NumClasses]float64
	w[ClassBusiness] = 1
	s := NewHybrid(0, w)
	s.SetEFLimit(NewTokenBucket(1000, 1000)) // 1 KB/s voice cap
	admitted, dropped := 0, 0
	for i := 0; i < 30; i++ {
		p := pkt(500, packet.DSCPEF)
		if s.Enqueue(0, ClassVoice, p) {
			admitted++
		} else {
			dropped++
		}
	}
	if dropped == 0 || admitted == 0 {
		t.Fatalf("EF cap: admitted=%d dropped=%d", admitted, dropped)
	}
	if s.EFPoliced != dropped {
		t.Fatalf("EFPoliced = %d, want %d", s.EFPoliced, dropped)
	}
	// Other classes are unaffected by the cap.
	if !s.Enqueue(0, ClassBusiness, pkt(500, packet.DSCPAF41)) {
		t.Fatal("business blocked by EF cap")
	}
	// Control is also uncapped (it has its own protection upstream).
	if !s.Enqueue(0, ClassNetworkControl, pkt(500, packet.DSCPCS6)) {
		t.Fatal("control blocked by EF cap")
	}
}
