package netconf

import (
	"errors"
	"strings"
	"testing"

	"mplsvpn/internal/core"
	"mplsvpn/internal/dsl"
)

// loadEdge is the table-test driver: every case must return cleanly — a
// malformed config is a parse error with the offending line number, never
// a panic out of the provisioning layer.
func loadEdge(t *testing.T, text string) (*Scenario, error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Load panicked: %v", r)
		}
	}()
	return Load(strings.NewReader(text), "edge.conf", core.Config{Seed: 1})
}

// validPreamble is a minimal working topology the error cases extend.
const validPreamble = `
pe PE1
pe PE2
p  P1
link PE1 P1 100M 1ms 1
link P1 PE2 100M 1ms 1
vpn acme
site acme west PE1 10.1.0.0/16
site acme east PE2 10.2.0.0/16
`

func TestLoadEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		config  string
		wantErr string // substring of the error; "" means must succeed
	}{
		// Empty and near-empty sections.
		{"empty input", "", ""},
		{"only comments", "# nothing here\n\n   \n# still nothing\n", ""},
		{"whitespace only", "   \n\t\n", ""},
		{"topology without vpns", "pe PE1\npe PE2\nlink PE1 PE2 1G 1ms 1\n", ""},
		{"vpn without sites", "pe PE1\nvpn lonely\n", ""},

		// CRLF and odd whitespace: a config saved on Windows must parse
		// identically.
		{"crlf line endings", strings.ReplaceAll(validPreamble, "\n", "\r\n"), ""},
		{"tabs between fields", "pe\tPE1\r\npe\tPE2\r\nlink\tPE1\tPE2\t1G\t1ms\t1\r\n", ""},

		// Duplicate names: user input, so a located error — not the
		// provisioning layer's duplicate-name panic.
		{"duplicate pe", "pe PE1\npe PE1\n", "edge.conf:2"},
		{"duplicate p", "p P1\np P1\n", "edge.conf:2"},
		{"pe then p same name", "pe X\np X\n", "edge.conf:2"},
		{"duplicate vpn", validPreamble + "vpn acme\n", "already defined"},
		{"duplicate site", validPreamble + "site acme west PE1 10.9.0.0/16\n", "already provisioned"},

		// Unknown names.
		{"link unknown node", "pe PE1\nlink PE1 GHOST 1G 1ms 1\n", "unknown node"},
		{"site unknown vpn", validPreamble + "site ghost g1 PE1 10.9.0.0/16\n", "not defined"},
		{"site unknown pe", validPreamble + "site acme g1 GHOST 10.9.0.0/16\n", "unknown node"},
		{"telsp unknown ingress", validPreamble + "telsp t1 GHOST PE2 1M\n", "GHOST"},
		{"site on a P router", validPreamble + "site acme g1 P1 10.9.0.0/16\n", `"P1" is not a PE`},
		// Refused when the lines commit, at the end of the input, and
		// placed at the line of the op that failed.
		{"telsp no path admits", validPreamble + "telsp t1 PE1 PE2 1G\n", "setup-tunnel lsp:t1: rsvp: insufficient bandwidth"},
		{"fail unknown node parses", validPreamble + "fail PE1 GHOST 1s 10ms\n", ""}, // rejected at run time, journaled

		// Duplicate option keys.
		{"duplicate site option", validPreamble + "site acme s3 PE1 10.3.0.0/16 hosts=2 hosts=3\n", "duplicate site option"},
		{"duplicate sla option", validPreamble + "sla f1 p99=10ms p99=20ms\n", "duplicate sla option"},

		// Oversized and out-of-range values.
		{"port too large", validPreamble + "flow f1 west east 70000 ef cbr 100 1ms\n", "bad port"},
		{"port negative", validPreamble + "flow f1 west east -1 ef cbr 100 1ms\n", "bad port"},
		{"payload zero", validPreamble + "flow f1 west east 80 ef cbr 0 1ms\n", "bad payload"},
		{"payload oversized", validPreamble + "flow f1 west east 80 ef cbr 1000000 1ms\n", "bad payload"},
		{"hosts oversized", validPreamble + "site acme s3 PE1 10.3.0.0/16 hosts=100000\n", "bad hosts"},
		{"link zero bandwidth", "pe A\npe B\nlink A B 0 1ms 1\n", `bad bandwidth "0"`},
		{"link zero metric", "pe A\npe B\nlink A B 1G 1ms 0\n", `bad metric "0"`},

		// Degenerate generator parameters that would livelock the engine.
		{"cbr zero interval", validPreamble + "flow f1 west east 80 ef cbr 100 0s\n", `bad interval "0s"`},
		{"poisson zero rate", validPreamble + "flow f1 west east 80 ef poisson 100 0\n", "bad rate"},
		{"poisson negative rate", validPreamble + "flow f1 west east 80 ef poisson 100 -5\n", "bad rate"},
		{"onoff zero meanOn", validPreamble + "flow f1 west east 80 ef onoff 100 1ms 0s 1ms\n", `bad meanOn "0s"`},
		{"run zero", validPreamble + "run 0s\n", `bad duration "0s"`},
		{"run negative", validPreamble + "run -3s\n", `bad duration "-3s"`},

		// Hostile values the engine must never see: each used to load and
		// then panic on the first packet, or signal a negative reservation.
		{"link NaN bandwidth", "pe A\npe B\nlink A B NaN 1ms 1\n", `bad bandwidth "NaN"`},
		{"site negative delay", validPreamble + "site acme s3 PE1 10.3.0.0/16 delay=-5ms\n", `bad delay "-5ms"`},
		{"site negative bw", validPreamble + "site acme s3 PE1 10.3.0.0/16 bw=-1M\n", `bad bw "-1M"`},
		{"site NaN bw", validPreamble + "site acme s3 PE1 10.3.0.0/16 bw=NaN\n", `bad bw "NaN"`},
		{"telsp negative bandwidth", validPreamble + "telsp t1 PE1 PE2 -1M\n", `bad bandwidth "-1M"`},
		{"site negative shape", validPreamble + "site acme s3 PE1 10.3.0.0/16 shape=-1M\n", `bad shape "-1M"`},
		{"sla NaN loss", validPreamble + "sla f loss=NaN\n", `bad loss "NaN"`},

		// Lexical rules shared with the chaos and intent languages.
		{"inline comment", "pe PE3 # core\n", ""},
		{"unknown route reflector", "pe A\nroutereflector GHOST\nvpn v\n", "GHOST"},
	}
	// A name the core refuses keeps the core's typed code.
	codes := map[string]core.ProvisionCode{
		"duplicate site":          core.ProvDuplicateSite,
		"site unknown vpn":        core.ProvUnknownVPN,
		"site unknown pe":         core.ProvUnknownNode,
		"telsp no path admits":    core.ProvNoTEPath,
		"unknown route reflector": core.ProvUnknownNode,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := loadEdge(t, tc.config)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if sc == nil || sc.B == nil {
					t.Fatal("nil scenario on success")
				}
				return
			}
			if err == nil {
				t.Fatalf("no error, want one containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
			// The offending line is the input's last.
			var de *dsl.Error
			if want := lastLine(tc.config); !errors.As(err, &de) || de.Line != want {
				t.Fatalf("error %#v is not a *dsl.Error at line %d", err, want)
			}
			if want, typed := codes[tc.name]; typed {
				if code, ok := core.CodeOf(err); !ok || code != want {
					t.Fatalf("CodeOf(%v) = %v, %t; want %v", err, code, ok, want)
				}
			}
		})
	}
}

// lastLine is the number of the last line of text holding anything.
func lastLine(text string) int {
	return strings.Count(strings.TrimRight(text, "\n\t "), "\n") + 1
}

// TestLoadOversizedLine: a line beyond the scanner's token limit must
// surface as a located error, not a silent truncation or a panic.
func TestLoadOversizedLine(t *testing.T) {
	_, err := loadEdge(t, "pe PE1\n# "+strings.Repeat("x", 1<<20)+"\n")
	if err == nil {
		t.Fatal("no error for a 1 MiB line")
	}
	if !strings.Contains(err.Error(), "edge.conf") {
		t.Fatalf("error %q lacks the file name", err)
	}
}

// TestLoadEmptySectionsRunnable: a config that parses but provisions
// nothing still yields a scenario whose engine can run — empty sections
// must not leave the backbone half-built.
func TestLoadEmptySectionsRunnable(t *testing.T) {
	sc, err := loadEdge(t, "# empty\n")
	if err != nil {
		t.Fatal(err)
	}
	sc.B.Net.RunUntil(sc.Duration)
	if sc.B.Net.Injected != 0 {
		t.Fatalf("empty config injected %d packets", sc.B.Net.Injected)
	}
}
