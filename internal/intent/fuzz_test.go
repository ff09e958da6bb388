package intent

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mplsvpn/internal/dsl"
)

// FuzzIntentSpec checks the parser's total-function contract: arbitrary
// input never panics, and any input the parser accepts must survive the
// canonical round trip — Render output reparses into a deeply equal Spec.
func FuzzIntentSpec(f *testing.F) {
	f.Add(testSpec)
	f.Add("intent a version=1\nvpn v sla=ef\n")
	f.Add("intent b version=7\nbulk c count=3 pes=PE1,PE2 base=10.0.0.0/16 sites=2 sla=af21 bw=50M\n")
	f.Add("intent s version=2\nvpn v\nsite v s1 PE1 10.0.0.0/24 hosts=4 shape=20M backup=PE2 bw=25M delay=2ms\ntunnel v t1 PE1 PE2 10M class=af41\n")
	f.Add("# comment\n\nintent x version=1\n")
	f.Add("intent a version=1\nbulk c count=65536 pes=P base=0.0.0.0/0\n")
	f.Add("intent a version=1\nvpn v\ntunnel v t PE1 PE2 NaN\n")
	f.Add("intent a version=1\nvpn v\nsite v s PE1 10.0.0.0/24 bw=Inf\n")
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := Parse(strings.NewReader(text), "fuzz")
		if err != nil {
			var de *dsl.Error
			if lines := strings.Count(text, "\n") + 1; !errors.As(err, &de) || de.Line < 1 || de.Line > lines+1 {
				t.Fatalf("error %#v is not a *dsl.Error within the input's %d lines", err, lines)
			}
			return
		}
		if verr := sp.Validate(); verr != nil {
			t.Fatalf("parser accepted a spec Validate rejects: %v\ninput: %q", verr, text)
		}
		out := sp.Render()
		again, err := Parse(strings.NewReader(out), "fuzz-render")
		if err != nil {
			t.Fatalf("render does not reparse: %v\nrendered: %q", err, out)
		}
		if !reflect.DeepEqual(sp, again) {
			t.Fatalf("round trip diverged\ninput: %q\nrendered: %q", text, out)
		}
	})
}
