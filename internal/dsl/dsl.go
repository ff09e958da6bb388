// Package dsl is the front end the repository's three line languages
// share: the vpnctl configuration (internal/netconf), the fault script
// (internal/chaos) and the intent spec (internal/intent). Each package owns
// its grammar; this one owns the lexical rules, the error type, the option
// reader and the value checks, so the three cannot drift apart.
//
// Lexical rules: one directive per line, lines numbered from 1 and at most
// MaxLine bytes long. # starts a comment anywhere on a line. Fields are
// separated by spaces or tabs, and CRLF ends a line like LF. Options are
// key=value tokens: a token without '=', a repeated key or a key the
// directive does not take is refused.
//
// Value kinds and their bounds:
//
//	duration   Go syntax (250ms, 1.5s), >= 0; PositiveDuration wants > 0
//	bandwidth  bits/s with an optional K, M or G suffix, finite and > 0
//	integer    decimal, within the caller's range
//	number     finite float, within the caller's range
//	class      ef, af41, af21, be, cs0, cs1, cs6 (any case)
//
// Every error a Scan returns is an *Error naming the input and the line.
package dsl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"mplsvpn/internal/packet"
	"mplsvpn/internal/sim"
)

// MaxLine is the longest line Scan reads.
const MaxLine = 1 << 20

// Error is a parse error at one line of a named input. Err, when set, is
// the cause: a typed provisioning error the line triggered stays reachable
// through errors.As.
type Error struct {
	File string
	Line int
	Msg  string
	Err  error
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// Unwrap returns the cause.
func (e *Error) Unwrap() error { return e.Err }

// Line is one line holding at least one field, comment removed.
type Line struct {
	File   string
	N      int
	Fields []string
}

// Scan calls fn with every line of r that holds a field, in order, and
// stops at the first error. An error fn returns that is not already an
// *Error is placed at the line. The returned Line stands just past the
// last line read: a defect of the input as a whole is reported there.
func Scan(r io.Reader, file string, fn func(*Line) error) (*Line, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLine)
	ln := &Line{File: file}
	for sc.Scan() {
		ln.N++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		if ln.Fields = strings.Fields(text); len(ln.Fields) == 0 {
			continue
		}
		if err := fn(ln); err != nil {
			return ln, ln.At(err)
		}
	}
	ln.N++
	ln.Fields = nil
	return ln, ln.At(sc.Err())
}

// At places err at this line, keeping it as the cause. An *Error and nil
// are returned as they are.
func (l *Line) At(err error) error {
	var de *Error
	if err == nil || errors.As(err, &de) {
		return err
	}
	return &Error{File: l.File, Line: l.N, Msg: err.Error(), Err: err}
}

// Options is one directive's option table: each key it takes, and the
// setter that checks the key's value and stores it.
type Options map[string]func(key, val string) error

// Apply reads tokens as the key=value options of the directive what.
func (o Options) Apply(what string, tokens []string) error {
	seen := make(map[string]bool, len(tokens))
	for _, tok := range tokens {
		k, v, ok := strings.Cut(tok, "=")
		switch {
		case !ok:
			return fmt.Errorf("%s option %q is not key=value", what, tok)
		case seen[k]:
			return fmt.Errorf("duplicate %s option %q", what, k)
		case o[k] == nil:
			return fmt.Errorf("unknown %s option %q", what, k)
		}
		seen[k] = true
		if err := o[k](k, v); err != nil {
			return err
		}
	}
	return nil
}

// Set returns an option setter that checks a value with check, under the
// option's key, and stores it in p.
func Set[T any](p *T, check func(name, s string) (T, error)) func(string, string) error {
	return func(k, v string) (err error) {
		*p, err = check(k, v)
		return err
	}
}

// SetInt is Set for an integer in lo..hi.
func SetInt(p *int, lo, hi int) func(string, string) error {
	return func(k, v string) (err error) {
		*p, err = Int(k, v, lo, hi)
		return err
	}
}

// SetFloat is Set for a number in lo..hi.
func SetFloat(p *float64, lo, hi float64) func(string, string) error {
	return func(k, v string) (err error) {
		*p, err = Float(k, v, lo, hi)
		return err
	}
}

// bad is the one shape of a value error: the value's name, the token as
// written, and what it must be.
func bad(name, s, want string, args ...any) error {
	return fmt.Errorf("bad %s %q: must be %s", name, s, fmt.Sprintf(want, args...))
}

// Duration reads a duration >= 0.
func Duration(name, s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, bad(name, s, "a duration >= 0 (like 10ms)")
	}
	return sim.Time(d), nil
}

// PositiveDuration reads a duration > 0.
func PositiveDuration(name, s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, bad(name, s, "a duration > 0 (like 10ms)")
	}
	return sim.Time(d), nil
}

// Bandwidth reads bits/s: "10M", "2.5G", "100K" or a plain number, finite
// and > 0.
func Bandwidth(name, s string) (float64, error) {
	mult, num := 1.0, s
	if i := len(s) - 1; i >= 0 {
		if m := strings.IndexByte("KMG", s[i]); m >= 0 {
			mult, num = [...]float64{1e3, 1e6, 1e9}[m], s[:i]
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if v *= mult; err != nil || !(v > 0) || math.IsInf(v, 0) {
		return 0, bad(name, s, "a finite bandwidth > 0 (like 10M)")
	}
	return v, nil
}

// Int reads a decimal integer in lo..hi.
func Int(name, s string, lo, hi int) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < lo || n > hi {
		return 0, bad(name, s, "an integer in %d..%d", lo, hi)
	}
	return n, nil
}

// Float reads a finite number in lo..hi.
func Float(name, s string, lo, hi float64) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(f >= lo && f <= hi) || math.IsInf(f, 0) {
		return 0, bad(name, s, "a number in %g..%g", lo, hi)
	}
	return f, nil
}

// classes is the one class table: parsing reads every row, ClassName
// renders a code point as its first row.
var classes = []struct {
	name string
	dscp packet.DSCP
}{
	{"be", packet.DSCPBestEffort},
	{"cs0", packet.DSCPBestEffort},
	{"ef", packet.DSCPEF},
	{"af41", packet.DSCPAF41},
	{"af21", packet.DSCPAF21},
	{"cs1", packet.DSCPCS1},
	{"cs6", packet.DSCPCS6},
}

// Class reads a DiffServ class name, in any case.
func Class(s string) (packet.DSCP, error) {
	lower := strings.ToLower(s)
	for _, c := range classes {
		if lower == c.name {
			return c.dscp, nil
		}
	}
	return 0, fmt.Errorf("unknown class %q (want ef, af41, af21, be, cs0, cs1 or cs6)", s)
}

// ClassName is the canonical name of a code point the class table holds,
// and "be" for any other.
func ClassName(d packet.DSCP) string {
	for _, c := range classes {
		if c.dscp == d {
			return c.name
		}
	}
	return "be"
}
