// Package waltest crashes a data directory for tests: a server a test
// abandons still holds its wal.Open lock, so the next owner opens a copy.
package waltest

import (
	"os"
	"path/filepath"
	"testing"
)

// Crash copies the data directory dir as a crash leaves it to the next
// process and returns the copy's path.
func Crash(t testing.TB, dir string) string {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return cp
}
