package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestMainPrintsVerdict runs the example and asserts its verdict: voice
// survives the transit carrier's outage on the direct backup peering and
// returns through the transit carrier once it is restored.
func TestMainPrintsVerdict(t *testing.T) {
	if out := stdoutOf(t, main); !strings.Contains(out, "OK: voice survived") {
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
