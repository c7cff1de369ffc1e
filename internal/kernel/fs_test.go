package kernel

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"kleb/internal/fault"
)

// TestFSSegmentsReadBackAsWritten appends chunks through a reused buffer,
// the controller's pattern, and requires the file to read back as their
// concatenation after any number of appends.
func TestFSSegmentsReadBackAsWritten(t *testing.T) {
	fs := testKernel(70).FS()
	var want []byte
	buf := make([]byte, 0, 64)
	for i := 0; i < 40; i++ {
		buf = fmt.Appendf(buf[:0], "row %d,%d\n", i, i*i)
		if err := fs.Append("/var/log/a.csv", buf); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf...)
		if i%13 != 0 {
			continue
		}
		if got, ok := fs.ReadFile("/var/log/a.csv"); !ok || !bytes.Equal(got, want) {
			t.Fatalf("after %d appends the file reads %q, want %q", i+1, got, want)
		}
	}
	if got, _ := fs.ReadFile("/var/log/a.csv"); !bytes.Equal(got, want) {
		t.Errorf("the file reads %q, want %q", got, want)
	}
}

// TestFSEmptyAndFailedAppends: an empty Append creates an empty file; an
// Append the fault plan fails leaves the file as it was, while still
// charging the VFS cost.
func TestFSEmptyAndFailedAppends(t *testing.T) {
	k := testKernel(71)
	fs := k.FS()
	if err := fs.Append("/empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := fs.ReadFile("/empty"); !ok || len(got) != 0 {
		t.Errorf("empty append: ReadFile = %q, %v; want an existing empty file", got, ok)
	}
	if err := fs.Append("/log", []byte("kept,")); err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(71)
	plan.PFSWrite = 1
	k.SetFaults(plan)
	before := k.Now()
	if err := fs.Append("/log", []byte("lost")); err == nil {
		t.Fatal("the fault plan fails every write, yet Append succeeded")
	}
	if err := fs.Append("/never", []byte("lost")); err == nil {
		t.Fatal("the fault plan fails every write, yet Append succeeded")
	}
	if k.Now() == before {
		t.Error("a failed append should still cost VFS time")
	}
	k.SetFaults(nil)
	if got, _ := fs.ReadFile("/log"); string(got) != "kept," {
		t.Errorf("after a failed append the file reads %q, want %q", got, "kept,")
	}
	if _, ok := fs.ReadFile("/never"); ok {
		t.Error("a failed first append created the file")
	}
}

// TestFSAppendCopiesOnce pins what a write costs the host: once the file's
// segment list has room, Append allocates one object, the exact-size copy
// of its data, and re-copies nothing the file already holds.
func TestFSAppendCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	fs := testKernel(72).FS()
	data := bytes.Repeat([]byte("x"), 1024) // a size class: the copy is exactly len(data) bytes
	for i := 0; i < 5 || cap(fs.files["/log"]) == len(fs.files["/log"]); i++ {
		if err := fs.Append("/log", data); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fs.Append("/log", data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != 1 || b != uint64(len(data)) {
		t.Errorf("append number %d allocated %d objects, %d bytes; want 1 object of %d bytes",
			len(fs.files["/log"]), n, b, len(data))
	}
}
