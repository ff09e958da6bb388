package netconf

import (
	"errors"
	"strings"
	"testing"

	"mplsvpn/internal/addr"
	"mplsvpn/internal/core"
	"mplsvpn/internal/dsl"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
)

const demoConf = `
# two-PE backbone
pe PE1
p  P1
pe PE2
link PE1 P1 100M 1ms 1
link P1 PE2 10M 2ms 1

vpn acme
site acme hq PE1 10.1.0.0/16
site acme br PE2 10.2.0.0/16

run 1s
flow voice hq br 5060 ef cbr 160 20ms
flow bulk  hq br 80   be cbr 1400 2ms
trace hq 10.2.0.1 ef
`

func load(t *testing.T, conf string) *Scenario {
	t.Helper()
	sc, err := Load(strings.NewReader(conf), "test.conf", core.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestLoadAndRun(t *testing.T) {
	sc := load(t, demoConf)
	if len(sc.Flows) != 2 || len(sc.Traces) != 1 || sc.Duration != sim.Second {
		t.Fatalf("scenario: flows=%d traces=%d dur=%v", len(sc.Flows), len(sc.Traces), sc.Duration)
	}
	sc.B.Net.RunUntil(sc.Duration + sim.Second)
	for _, f := range sc.Flows {
		if f.Stats.Delivered == 0 {
			t.Fatalf("flow %s delivered nothing", f.Stats.Name)
		}
	}
	if sc.Flows[0].DSCP != packet.DSCPEF {
		t.Fatalf("voice class = %v", sc.Flows[0].DSCP)
	}
	tr := sc.B.TraceRoute(sc.Traces[0].Site, sc.Traces[0].Dst, sc.Traces[0].DSCP)
	if !tr.Delivered {
		t.Fatalf("trace failed: %s", tr.Reason)
	}
}

func TestLoadErrorsCarryLineNumbers(t *testing.T) {
	_, err := Load(strings.NewReader("pe A\nbogus x\n"), "x.conf", core.Config{})
	if err == nil || !strings.Contains(err.Error(), "x.conf:2") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadTELSP(t *testing.T) {
	conf := `
pe A
p M
pe B
link A M 10M 1ms 1
link M B 10M 1ms 1
vpn v
site v s1 A 10.1.0.0/16
site v s2 B 10.2.0.0/16
telsp t1 A B 4M ef
run 100ms
`
	sc := load(t, conf)
	if len(sc.TELSPs) != 1 || sc.TELSPs[0].Bandwidth != 4e6 {
		t.Fatalf("TE LSPs = %v", sc.TELSPs)
	}
}

// TestParseHelpers: the value checks a config is read with.
func TestParseHelpers(t *testing.T) {
	if v, err := dsl.Bandwidth("bandwidth", "2.5G"); err != nil || v != 2.5e9 {
		t.Fatalf("Bandwidth = %v, %v", v, err)
	}
	if _, err := dsl.Bandwidth("bandwidth", "xx"); err == nil {
		t.Fatal("garbage bandwidth accepted")
	}
	if d, err := dsl.Duration("delay", "250ms"); err != nil || d != 250*sim.Millisecond {
		t.Fatalf("Duration = %v, %v", d, err)
	}
	if c, err := dsl.Class("AF41"); err != nil || c != packet.DSCPAF41 {
		t.Fatalf("Class = %v, %v", c, err)
	}
	if _, err := dsl.Class("gold"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestDefaultDurationAndAutoConverge(t *testing.T) {
	// No run directive, no flows: still loads and converges.
	sc := load(t, "pe A\npe B\nlink A B 10M 1ms 1\nvpn v\nsite v s A 10.1.0.0/16\n")
	if sc.Duration != 5*sim.Second {
		t.Fatalf("default duration = %v", sc.Duration)
	}
	if len(sc.B.Registry.Members("v")) != 1 {
		t.Fatal("site not provisioned")
	}
}

func TestSiteOptions(t *testing.T) {
	conf := `
pe A
pe B
pe C
link A B 100M 1ms 1
link B C 100M 1ms 1
vpn v
site v s1 A 10.1.0.0/16 hosts=2 shape=5M bw=50M delay=3ms
site v s2 B 10.2.0.0/16 backup=C
run 100ms
`
	sc := load(t, conf)
	// Hosts exist as nodes.
	if _, ok := sc.B.G.NodeByName("host-s1-1"); !ok {
		t.Fatal("hosts option ignored")
	}
	// Backup attachment created a second access link at C.
	if _, ok := sc.B.G.NodeByName("ce-s2"); !ok {
		t.Fatal("site s2 missing")
	}
	if err := sc.B.FailSitePrimary("s2"); err != nil {
		t.Fatalf("backup option ignored: %v", err)
	}
}

func TestSiteOptionErrors(t *testing.T) {
	base := "pe A\nvpn v\n"
	for _, bad := range []string{
		"site v s A 10.1.0.0/16 hosts=x\n",
		"site v s A 10.1.0.0/16 shape=zz\n",
		"site v s A 10.1.0.0/16 nonsense=1\n",
		"site v s A 10.1.0.0/16 solo\n",
	} {
		if _, err := Load(strings.NewReader(base+bad), "t", core.Config{}); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestAllFlowPatterns(t *testing.T) {
	conf := `
pe A
pe B
link A B 100M 1ms 1
vpn v
site v s1 A 10.1.0.0/16
site v s2 B 10.2.0.0/16
run 300ms
flow f1 s1 s2 80 be cbr 400 10ms
flow f2 s1 s2 81 af21 poisson 400 500
flow f3 s1 s2 82 af41 onoff 400 10ms 50ms 50ms
flow f4 s1 s2 83 be aimd 1000
`
	sc := load(t, conf)
	if len(sc.Flows) != 4 {
		t.Fatalf("flows = %d", len(sc.Flows))
	}
	sc.B.Net.RunUntil(sc.Duration + sim.Second)
	for _, f := range sc.Flows[:3] {
		if f.Stats.Delivered == 0 {
			t.Fatalf("flow %s dead", f.Stats.Name)
		}
	}
}

func TestFlowErrors(t *testing.T) {
	base := `pe A
pe B
link A B 10M 1ms 1
vpn v
site v s1 A 10.1.0.0/16
site v s2 B 10.2.0.0/16
`
	for _, bad := range []string{
		"flow f s1 s2 xx be cbr 100 1ms\n",
		"flow f s1 s2 80 warp cbr 100 1ms\n",
		"flow f s1 s2 80 be cbr 100\n",
		"flow f s1 s2 80 be cbr xx 1ms\n",
		"flow f s1 s2 80 be cbr 100 zz\n",
		"flow f s1 s2 80 be poisson 100 zz\n",
		"flow f s1 s2 80 be onoff 100 1ms 1ms\n",
		"flow f s1 s2 80 be onoff 100 zz 1ms 1ms\n",
		"flow f s1 s2 80 be aimd 100 extra\n",
		"flow f s1 s2 80 be blast 100 1ms\n",
		"flow f s1 ghost 80 be cbr 100 1ms\n",
	} {
		if _, err := Load(strings.NewReader(base+bad), "t", core.Config{}); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestTopLevelErrors(t *testing.T) {
	for _, bad := range []string{
		"pe\n", "p\n", "vpn\n", "link A B 10M 1ms\n",
		"link A B zz 1ms 1\n", "link A B 10M zz 1\n", "link A B 10M 1ms zz\n",
		"run\n", "run zz\n",
		"trace s\n", "trace s notanip\n", "trace s 10.0.0.1 warp\n",
		"fail A B 1s\n", "fail A B zz 1ms\n", "fail A B 1s zz\n",
		"telsp t A B\n", "telsp t A B zz\n", "telsp t A B 1M warp\n",
		"routereflector\n", "dste\n", "dste zz\n",
		"site v s A notaprefix\n",
	} {
		if _, err := Load(strings.NewReader("pe A\npe B\nvpn v\n"+bad), "t", core.Config{}); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// TestParseClassAll: every class name the grammar documents is accepted
// where a config names a class, and an unknown one is refused at its line.
func TestParseClassAll(t *testing.T) {
	for _, c := range []string{"ef", "af41", "af21", "be", "cs0", "cs1", "cs6", "EF"} {
		conf := "pe A\npe B\nlink A B 100M 1ms 1\nvpn v sla=" + c + "\n"
		if _, err := Load(strings.NewReader(conf), "test.conf", core.Config{Seed: 1}); err != nil {
			t.Fatalf("class %s rejected: %v", c, err)
		}
	}
	_, err := Load(strings.NewReader("pe A\npe B\nlink A B 100M 1ms 1\nvpn v sla=gold\n"), "test.conf", core.Config{Seed: 1})
	var de *dsl.Error
	if !errors.As(err, &de) || de.Line != 4 || !strings.Contains(err.Error(), `unknown class "gold"`) {
		t.Fatalf("sla=gold: %v", err)
	}
}

func TestVPNSLAOption(t *testing.T) {
	conf := `
pe A
pe B
link A B 100M 1ms 1
vpn gold sla=ef
site gold s1 A 10.1.0.0/16
site gold s2 B 10.2.0.0/16
run 100ms
`
	sc := load(t, conf)
	tr := sc.B.TraceRoute("s1", addr.MustParseIPv4("10.2.0.1"), 0)
	if !tr.Delivered {
		t.Fatal(tr.Reason)
	}
	// BE-marked probe is re-marked to the gold tier at the PE.
	if !strings.Contains(tr.String(), "class voice") {
		t.Fatalf("SLA not applied:\n%s", tr.String())
	}
	if _, err := Load(strings.NewReader("pe A\nvpn v bogus=1\n"), "t", core.Config{}); err == nil {
		t.Fatal("bad vpn option accepted")
	}
}

func TestSLADirective(t *testing.T) {
	conf := `
pe A
pe B
link A B 100M 1ms 1
vpn v
site v s1 A 10.1.0.0/16
site v s2 B 10.2.0.0/16
run 500ms
flow voice s1 s2 5060 ef cbr 160 20ms
sla voice p99=20ms loss=0.01 jitter=5ms mos=4.0 kbps=10
sla bulk p50=100ms
`
	sc := load(t, conf)
	if len(sc.SLAs) != 2 {
		t.Fatalf("SLAs = %d", len(sc.SLAs))
	}
	sc.B.Net.RunUntil(sc.Duration + sim.Second)
	r := sc.SLAs["voice"].Evaluate(sc.Flows[0].Stats)
	if !r.Pass {
		t.Fatalf("voice SLA failed: %v", r.Violations)
	}
	for _, bad := range []string{
		"sla\n", "sla f bogus\n", "sla f p99=zz\n", "sla f loss=zz\n", "sla f warp=1\n",
	} {
		if _, err := Load(strings.NewReader("pe A\n"+bad), "t", core.Config{}); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
