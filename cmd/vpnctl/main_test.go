package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mplsvpn/internal/dsl"
	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
)

func TestRunDemoConfig(t *testing.T) {
	if err := run(filepath.Join("testdata", "demo.conf"), "hybrid", 1, true, "", "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunTEConfig(t *testing.T) {
	if err := run(filepath.Join("testdata", "te.conf"), "fifo", 1, false, "", "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, s := range []string{"fifo", "priority", "wfq", "drr", "hybrid"} {
		if err := run(filepath.Join("testdata", "demo.conf"), s, 1, false, "", "", "", ""); err != nil {
			t.Fatalf("scheduler %s: %v", s, err)
		}
	}
}

func TestBadScheduler(t *testing.T) {
	if err := run(filepath.Join("testdata", "demo.conf"), "nope", 1, false, "", "", "", ""); err == nil {
		t.Fatal("accepted unknown scheduler")
	}
}

func TestMissingFile(t *testing.T) {
	if err := run("testdata/absent.conf", "hybrid", 1, false, "", "", "", ""); err == nil {
		t.Fatal("accepted missing file")
	}
}

func writeConf(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "c.conf")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"bad-directive", "frobnicate x\n", "unknown directive"},
		{"bad-bw", "pe A\npe B\nlink A B 10Q 1ms 1\n", "bad bandwidth"},
		{"bad-delay", "pe A\npe B\nlink A B 10M xs 1\n", "bad delay"},
		{"bad-metric", "pe A\npe B\nlink A B 10M 1ms x\n", "bad metric"},
		{"bad-prefix", "pe A\nvpn v\nsite v s A notaprefix\n", "bad prefix"},
		{"bad-class", "pe A\npe B\nlink A B 10M 1ms 1\nvpn v\nsite v s1 A 10.1.0.0/16\nsite v s2 B 10.2.0.0/16\nflow f s1 s2 80 warp cbr 100 1ms\n", "unknown class"},
		{"short-link", "link A\n", "link <a>"},
		{"bad-pattern", "pe A\npe B\nlink A B 10M 1ms 1\nvpn v\nsite v s1 A 10.1.0.0/16\nsite v s2 B 10.2.0.0/16\nflow f s1 s2 80 be blast 100 1ms\n", "unknown pattern"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(writeConf(t, c.body), "hybrid", 1, false, "", "", "", "")
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestDOTFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "topo.dot")
	if err := run(filepath.Join("testdata", "demo.conf"), "hybrid", 1, false, out, "", "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph backbone") {
		t.Fatalf("dot output wrong:\n%s", data)
	}
}

// TestParseBw, TestParseClassCoverage and TestParseDur: the bandwidth,
// class and duration notation a config is written in.
func TestParseBw(t *testing.T) {
	cases := map[string]float64{"10M": 10e6, "2.5G": 2.5e9, "100K": 100e3, "42": 42}
	for in, want := range cases {
		got, err := dsl.Bandwidth("bandwidth", in)
		if err != nil || got != want {
			t.Fatalf("dsl.Bandwidth(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := dsl.Bandwidth("bandwidth", "x"); err == nil {
		t.Fatal("dsl.Bandwidth accepted garbage")
	}
}

func TestParseClassCoverage(t *testing.T) {
	for in, want := range map[string]packet.DSCP{
		"ef": packet.DSCPEF, "af41": packet.DSCPAF41, "af21": packet.DSCPAF21,
		"be": packet.DSCPBestEffort, "cs0": packet.DSCPBestEffort,
		"cs1": packet.DSCPCS1, "cs6": packet.DSCPCS6, "EF": packet.DSCPEF,
	} {
		got, err := dsl.Class(in)
		if err != nil || got != want {
			t.Fatalf("dsl.Class(%q) = %v, %v", in, got, err)
		}
	}
}

func TestParseDur(t *testing.T) {
	d, err := dsl.Duration("duration", "1500ms")
	if err != nil || d != 1500*sim.Millisecond {
		t.Fatalf("dsl.Duration = %v, %v", d, err)
	}
}

func TestRunFailoverConfig(t *testing.T) {
	if err := run(filepath.Join("testdata", "failover.conf"), "hybrid", 1, false, "", "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestDirectiveOrderErrors(t *testing.T) {
	// routereflector after build must fail.
	body := "pe A\npe B\nlink A B 10M 1ms 1\nvpn v\nroutereflector A\n"
	if err := run(writeConf(t, body), "hybrid", 1, false, "", "", "", ""); err == nil {
		t.Fatal("routereflector after build accepted")
	}
	if err := run(writeConf(t, "dste 2.0\n"), "hybrid", 1, false, "", "", "", ""); err == nil {
		t.Fatal("dste > 1 accepted")
	}
}

func TestMetricsFlagText(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.txt")
	if err := run(filepath.Join("testdata", "demo.conf"), "hybrid", 1, false, "", out, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"=== telemetry snapshot", "-- metrics", "port_offered_bytes", "-- flow records"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}

func TestMetricsFlagJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	if err := run(filepath.Join("testdata", "demo.conf"), "hybrid", 1, false, "", out, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
		Flows []struct {
			VPN string `json:"vpn"`
		} `json:"flows"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, data)
	}
	if len(snap.Metrics) == 0 || len(snap.Flows) == 0 {
		t.Fatalf("metrics JSON empty: %d metrics, %d flows", len(snap.Metrics), len(snap.Flows))
	}
	var offered float64
	for _, m := range snap.Metrics {
		if m.Name == "port_offered_bytes" {
			offered += m.Value
		}
	}
	if offered == 0 {
		t.Fatal("no port_offered_bytes in JSON snapshot")
	}
}

func TestMetricsFlagStdout(t *testing.T) {
	if err := run(filepath.Join("testdata", "demo.conf"), "hybrid", 1, false, "", "-", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRRAndDSTEDirectives(t *testing.T) {
	body := `routereflector P1
dste 0.4
pe A
p P1
pe B
link A P1 10M 1ms 1
link P1 B 10M 1ms 1
vpn v
site v s1 A 10.1.0.0/16
site v s2 B 10.2.0.0/16
telsp prem A B 3M ef
run 500ms
flow f s1 s2 80 ef cbr 160 20ms
`
	if err := run(writeConf(t, body), "hybrid", 1, false, "", "", "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosScenario(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(filepath.Join("testdata", "failover.conf"), "hybrid", 1, false, "", "",
			filepath.Join("testdata", "flapstorm.scn"), ""); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{"=== chaos report ===", "invariant checks", "0 violations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunChaosBadScenario(t *testing.T) {
	scn := filepath.Join(t.TempDir(), "bad.scn")
	if err := os.WriteFile(scn, []byte("explode X Y at=1s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join("testdata", "failover.conf"), "hybrid", 1, false, "", "", scn, ""); err == nil {
		t.Fatal("bad scenario accepted")
	}
	if err := run(filepath.Join("testdata", "failover.conf"), "hybrid", 1, false, "", "",
		"testdata/absent.scn", ""); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	defer func() {
		os.Stdout = old
		r.Close()
	}()
	fn()
	w.Close()
	return <-done
}

func TestRunIntentFlag(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(filepath.Join("testdata", "demo.conf"), "hybrid", 1, false, "", "", "",
			filepath.Join("testdata", "provision.int")); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{"=== intent report", "converged=true", "quarantined=0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunIntentBadSpec(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.int")
	if err := os.WriteFile(bad, []byte("vpn headless\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join("testdata", "demo.conf"), "hybrid", 1, false, "", "", "", bad); err == nil {
		t.Fatal("bad intent spec accepted")
	}
	if err := run(filepath.Join("testdata", "demo.conf"), "hybrid", 1, false, "", "", "",
		"testdata/absent.int"); err == nil {
		t.Fatal("missing intent file accepted")
	}
}
