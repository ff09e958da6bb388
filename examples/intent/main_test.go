package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestMainPrintsIdentical runs the example and asserts its verdict: the
// killed-and-restarted run provides the uninterrupted run's service, and
// the kill did land in a commit window.
func TestMainPrintsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("provisions 2,000 sites twice (about 6 s)")
	}
	if out := stdoutOf(t, main); !strings.Contains(out, "digests IDENTICAL") {
		t.Fatalf("no IDENTICAL verdict:\n%s", out)
	}
}

// stdoutOf runs fn and returns what it printed.
func stdoutOf(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	fn()
	w.Close()
	return <-out
}
