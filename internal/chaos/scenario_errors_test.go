package chaos

import (
	"errors"
	"strings"
	"testing"

	"mplsvpn/internal/dsl"
	"mplsvpn/internal/sim"
)

// TestParseScenarioErrorPaths pins the parser's rejection surface: every
// malformed line must fail with an error naming the script and line and
// describing the defect, never parse into a half-formed event or panic.
func TestParseScenarioErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"unknown verb", "explode PE1 at=1s\n", `unknown directive "explode"`},
		{"negative at", "fail PE1 P1 at=-1s\n", `bad at "-1s"`},
		{"negative detect", "crash P1 at=1s detect=-5ms\n", `bad detect "-5ms"`},
		{"fail missing operand", "fail PE1 at=1s\n", "fail <a> <z>"},
		{"fail missing at", "fail PE1 P1 detect=5ms\n", "needs at=<t>"},
		{"crash missing at", "crash P1 detect=5ms\n", "needs at=<t>"},
		{"asfail missing at", "asfail beta\n", "asfail <name> at=<t>"},
		{"asfail missing at kv", "asfail beta detect=5ms\n", "needs at=<t>"},
		{"asfail negative at", "asfail beta at=-2s\n", `bad at "-2s"`},
		{"asrestore unknown key", "asrestore beta at=1s grace=5ms\n", `unknown asrestore option "grace"`},
		{"asrestore bare token", "asrestore beta at=1s now\n", `asrestore option "now" is not key=value`},
		{"flap without count", "flap A B at=1s down=1ms up=1ms\n", "needs count=<n>"},
		{"flap zero period", "flap A B at=1s count=2 down=0s up=1ms\n", `bad down "0s"`},
		{"flap bad count", "flap A B at=1s count=zero down=1ms up=1ms\n", `bad count "zero"`},
		{"ctrlloss bad prob", "ctrlloss 1.5\n", `bad probability "1.5"`},
		{"survivability dup", "survivability hello=10ms\nsurvivability hold=2\n", "duplicate survivability"},
		{"survivability junk", "survivability turbo\n", `survivability option "turbo" is not key=value`},
		{"damping incomplete", "damping penalty=100\n", "damping needs"},
		{"ckpt missing at", "ckpt\n", "ckpt at=<t>"},
		{"rkill extra token", "rkill at=1s extra\n", "rkill at=<t>"},

		// Hostile values that used to parse.
		{"ctrlloss NaN", "# lossy\nctrlloss NaN\n", `bad probability "NaN"`},
		{"damping NaN penalty", "damping penalty=NaN suppress=2000 halflife=15s\n", `bad penalty "NaN"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ParseScenario(strings.NewReader(tc.in), "bad.chaos")
			if err == nil {
				t.Fatalf("parsed %q into %+v, want error containing %q", tc.in, sc, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), tc.want)
			}
			if !strings.Contains(err.Error(), "bad.chaos:") {
				t.Fatalf("error %q does not name the script and line", err.Error())
			}
			// The offending line is the script's last.
			var de *dsl.Error
			if want := strings.Count(strings.TrimRight(tc.in, "\n"), "\n") + 1; !errors.As(err, &de) || de.Line != want {
				t.Fatalf("error %#v is not a *dsl.Error at line %d", err, want)
			}
		})
	}
}

// TestParseScenarioASDirectives pins the asfail/asrestore grammar: the AS
// name is a free-form token and detect applies only to the restore.
func TestParseScenarioASDirectives(t *testing.T) {
	sc, err := ParseScenario(strings.NewReader(
		"asfail beta at=2500ms\nasrestore beta at=5500ms detect=100ms\n"), "as.chaos")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(sc.Events))
	}
	if sc.Events[0].Op != OpASFail || sc.Events[0].A != "beta" {
		t.Fatalf("first event = %+v, want asfail beta", sc.Events[0])
	}
	if sc.Events[1].Op != OpASRestore || sc.Events[1].Detect != 100*sim.Millisecond {
		t.Fatalf("second event = %+v, want asrestore with detect=100ms", sc.Events[1])
	}
	if got := sc.EventCount(); got != 2 {
		t.Fatalf("EventCount = %d, want 2", got)
	}
	if OpASFail.String() != "asfail" || OpASRestore.String() != "asrestore" {
		t.Fatalf("op names = %q/%q", OpASFail.String(), OpASRestore.String())
	}
}
