package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestMainKeepsIsolation runs the example and asserts its claim: after
// every injected fault the invariant checker finds nothing, and no packet
// crossed between the two VPNs.
func TestMainKeepsIsolation(t *testing.T) {
	out := stdoutOf(t, main)
	if strings.Contains(out, "VIOLATION:") {
		t.Fatalf("invariant violations:\n%s", out)
	}
	if !strings.Contains(out, "isolation violations: 0\n") {
		t.Fatalf("no clean isolation verdict:\n%s", out)
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
