package dsl

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
)

// scan runs Scan over text and returns the fields of every line it hands
// out, with the line numbers.
func scan(t *testing.T, text string) ([]string, []int, error) {
	t.Helper()
	var got []string
	var lines []int
	_, err := Scan(strings.NewReader(text), "t.in", func(ln *Line) error {
		got = append(got, strings.Join(ln.Fields, " "))
		lines = append(lines, ln.N)
		return nil
	})
	return got, lines, err
}

func TestScanLexicalRules(t *testing.T) {
	got, lines, err := scan(t, "# header\n\npe PE1 # core\r\n\tlink\tA  B\r\n   # indented comment\nrun 1s#no space")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pe PE1", "link A B", "run 1s"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("fields = %q, want %q", got, want)
	}
	if lines[0] != 3 || lines[1] != 4 || lines[2] != 6 {
		t.Fatalf("line numbers = %v, want [3 4 6]", lines)
	}
}

func TestScanPlacesErrors(t *testing.T) {
	cause := errors.New("no such thing")
	end, err := Scan(strings.NewReader("a\n\nb\nc\n"), "t.in", func(ln *Line) error {
		if ln.Fields[0] == "b" {
			return cause
		}
		return nil
	})
	var de *Error
	if !errors.As(err, &de) || de.Line != 3 || de.File != "t.in" || !errors.Is(err, cause) {
		t.Fatalf("err = %#v, want *Error at t.in:3 wrapping the cause", err)
	}
	if err.Error() != "t.in:3: no such thing" {
		t.Fatalf("rendered %q", err.Error())
	}
	if end.N != 3 {
		t.Fatalf("stopped at line %d, want 3", end.N)
	}
	// An *Error returned by fn keeps its own position.
	_, err = Scan(strings.NewReader("a\nb\n"), "t.in", func(ln *Line) error {
		return &Error{File: "other", Line: 9, Msg: "x"}
	})
	if err.Error() != "other:9: x" {
		t.Fatalf("rendered %q", err.Error())
	}
	// The end of the input is the line after the last.
	end, err = Scan(strings.NewReader("a\nb\n\n"), "t.in", func(*Line) error { return nil })
	if err != nil || end.N != 4 {
		t.Fatalf("end = %d, %v; want 4", end.N, err)
	}
}

func TestScanRefusesOversizedLine(t *testing.T) {
	_, _, err := scan(t, "a\n"+strings.Repeat("x", MaxLine)+"\n")
	var de *Error
	if !errors.As(err, &de) || de.Line != 2 {
		t.Fatalf("err = %v, want an *Error at line 2", err)
	}
}

func TestOptions(t *testing.T) {
	var d sim.Time
	var n int
	opts := Options{"at": Set(&d, Duration), "count": SetInt(&n, 1, 10)}
	if err := opts.Apply("flap", []string{"at=5ms", "count=3"}); err != nil || d != 5*sim.Millisecond || n != 3 {
		t.Fatalf("Apply = %v, at=%v count=%d", err, d, n)
	}
	for _, tc := range []struct{ tokens, want string }{
		{"at", `flap option "at" is not key=value`},
		{"at=1s at=2s", `duplicate flap option "at"`},
		{"grace=1s", `unknown flap option "grace"`},
		{"at=-1s", `bad at "-1s": must be a duration >= 0 (like 10ms)`},
		{"count=11", `bad count "11": must be an integer in 1..10`},
	} {
		err := opts.Apply("flap", strings.Fields(tc.tokens))
		if err == nil || err.Error() != tc.want {
			t.Errorf("Apply(%q) = %v, want %q", tc.tokens, err, tc.want)
		}
	}
}

// TestValueBounds pins each kind's bounds, hostile values included.
func TestValueBounds(t *testing.T) {
	ok := func(err error) bool { return err == nil }
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"duration 0", second(Duration("d", "0s")), true},
		{"duration negative", second(Duration("d", "-5ms")), false},
		{"duration garbage", second(Duration("d", "5")), false},
		{"positive duration 0", second(PositiveDuration("d", "0s")), false},
		{"positive duration", second(PositiveDuration("d", "1ns")), true},
		{"bandwidth K", second(Bandwidth("bw", "100K")), true},
		{"bandwidth zero", second(Bandwidth("bw", "0")), false},
		{"bandwidth negative", second(Bandwidth("bw", "-1M")), false},
		{"bandwidth NaN", second(Bandwidth("bw", "NaN")), false},
		{"bandwidth Inf", second(Bandwidth("bw", "Inf")), false},
		{"bandwidth overflow", second(Bandwidth("bw", "1e308G")), false},
		{"bandwidth bare suffix", second(Bandwidth("bw", "M")), false},
		{"int in range", second(Int("n", "7", 0, 7)), true},
		{"int above", second(Int("n", "8", 0, 7)), false},
		{"float NaN", second(Float("p", "NaN", 0, 1)), false},
		{"float Inf", second(Float("p", "+Inf", 0, math.Inf(1))), false},
		{"float edge", second(Float("p", "1", 0, 1)), true},
	} {
		if ok(tc.err) != tc.want {
			t.Errorf("%s: err = %v, want accepted=%t", tc.name, tc.err, tc.want)
		}
	}
	if v, _ := Bandwidth("bw", "2.5G"); v != 2.5e9 {
		t.Fatalf("2.5G = %v", v)
	}
}

func second[T any](_ T, err error) error { return err }

// TestClassTable: every name parses in any case, the table's first name
// for a code point is what ClassName renders, and a rendered name reads
// back as the same code point.
func TestClassTable(t *testing.T) {
	for in, want := range map[string]packet.DSCP{
		"ef": packet.DSCPEF, "af41": packet.DSCPAF41, "af21": packet.DSCPAF21,
		"be": packet.DSCPBestEffort, "cs0": packet.DSCPBestEffort,
		"cs1": packet.DSCPCS1, "cs6": packet.DSCPCS6, "EF": packet.DSCPEF, "Af41": packet.DSCPAF41,
	} {
		got, err := Class(in)
		if err != nil || got != want {
			t.Fatalf("Class(%q) = %v, %v", in, got, err)
		}
		if back, err := Class(ClassName(got)); err != nil || back != got {
			t.Fatalf("ClassName(%v) = %q reads back as %v, %v", got, ClassName(got), back, err)
		}
	}
	if ClassName(packet.DSCPBestEffort) != "be" {
		t.Fatalf("best effort renders as %q", ClassName(packet.DSCPBestEffort))
	}
	if _, err := Class("gold"); err == nil || !strings.Contains(err.Error(), `unknown class "gold"`) {
		t.Fatalf("Class(gold) = %v", err)
	}
}
