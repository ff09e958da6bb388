// Package testio is test support shared by the example programs' tests.
package testio

import (
	"io"
	"os"
	"testing"
)

// StdoutOf runs fn and returns what it printed to standard output.
func StdoutOf(t testing.TB, fn func()) string {
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
