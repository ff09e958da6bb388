package netconf

import (
	"errors"
	"strings"
	"testing"

	"mplsvpn/internal/core"
	"mplsvpn/internal/dsl"
)

// FuzzLoad hardens the config parser: arbitrary text must either load or
// fail with a *dsl.Error inside the input — never panic, neither while
// loading nor while the loaded scenario runs. A run is at most maxSteps
// engine events, whatever rates the config asks for.
func FuzzLoad(f *testing.F) {
	f.Add("pe A\npe B\nlink A B 10M 1ms 1\nvpn v\nsite v s A 10.1.0.0/16\n")
	f.Add("run 1s\nflow f a b 80 ef cbr 100 1ms\n")
	f.Add("# comment\n\n\n")
	f.Add("link A A 10M 1ms 1")
	// Hostile values that once loaded and then panicked the engine or
	// signalled a negative reservation.
	const topo = "pe PE1\npe PE2\nlink PE1 PE2 10M 1ms 1\nvpn v\n"
	f.Add("pe A\npe B\nlink A B NaN 1ms 1\nvpn v\nsite v s1 A 10.1.0.0/16\nsite v s2 B 10.2.0.0/16\nflow f s1 s2 80 ef cbr 100 1ms\n")
	f.Add(topo + "site v s1 PE1 10.1.0.0/16 delay=-5ms\nsite v s2 PE2 10.2.0.0/16\nflow f s1 s2 80 ef cbr 100 1ms\n")
	f.Add(topo + "site v s1 PE1 10.1.0.0/16 bw=-1M\n")
	f.Add(topo + "site v s1 PE1 10.1.0.0/16 bw=NaN\n")
	f.Add(topo + "telsp t1 PE1 PE2 -1M\n")
	f.Add(topo + "site v s1 PE1 10.1.0.0/16 shape=-1M\n")
	f.Add(topo + "sla f loss=NaN\n")
	f.Add("pe A\nroutereflector GHOST\nvpn v\n")
	f.Fuzz(func(t *testing.T, conf string) {
		sc, err := Load(strings.NewReader(conf), "fuzz", core.Config{Seed: 1})
		if err != nil {
			var de *dsl.Error
			if lines := strings.Count(conf, "\n") + 1; !errors.As(err, &de) || de.Line < 1 || de.Line > lines+1 {
				t.Fatalf("error %#v is not a *dsl.Error within the input's %d lines", err, lines)
			}
			return
		}
		if sc == nil {
			t.Fatal("nil scenario without error")
		}
		const maxSteps = 10000
		for i := 0; i < maxSteps && sc.B.E.Step(); i++ {
		}
	})
}
