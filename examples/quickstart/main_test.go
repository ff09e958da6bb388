package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestMainDeliversEveryProbe runs the example and asserts its verdict:
// every probe crossed the backbone from hq to branch.
func TestMainDeliversEveryProbe(t *testing.T) {
	if out := stdoutOf(t, main); !strings.Contains(out, "\nOK: all probes delivered end to end\n") {
		t.Fatalf("no OK verdict:\n%s", out)
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
