package kernel

import (
	"bytes"
	"errors"
	"sort"

	"kleb/internal/fault"
	"kleb/internal/ktime"
)

// FS is the kernel's minimal filesystem: named append-only files backed by
// page-cache-like buffers. It exists because the paper's design point is
// that "hardware event counts are logged to the file system by the
// controller process in user space" — the controller's log is a real
// artifact of a run, not an abstraction, and tests can read it back.
//
// Costs: writes pay a fixed VFS entry price plus a per-byte copy price,
// charged to the calling process's kernel time. Reads are free (inspection
// of a run before its Release, not simulated activity).
//
// A file is the list of its appended segments, so every byte written is
// copied once: a log that grows by a drain's rows at a time never
// re-copies what it already holds, and holds no spare capacity.
//
// The files live as long as the run that writes them: Release drops them
// when the machine's storage ends (machine.Machine.Release), and any use
// of the filesystem after that panics.
type FS struct {
	k     *Kernel
	files map[string][][]byte // nil once released
}

var errFSReleased = errors.New("kernel: filesystem used after Release")

// Write costs for the VFS path.
const (
	fsWriteBase    = 3 * ktime.Microsecond
	fsWritePerByte = 700 * ktime.Nanosecond / 512 // ~0.7µs per 512B block
)

func newFS(k *Kernel) *FS {
	return &FS{k: k, files: make(map[string][][]byte)}
}

// FS returns the kernel's filesystem.
func (k *Kernel) FS() *FS { return k.fs }

// Append writes data to the end of the named file (creating it, even for
// empty data), charging the VFS cost. It must be called from syscall
// context. The VFS cost is charged even on an injected failure (the kernel
// did the work of rejecting the write); on error nothing is appended. The
// file keeps an exact-size copy of data, so the caller may reuse its
// buffer.
func (f *FS) Append(name string, data []byte) error {
	f.live()
	f.k.ChargeKernel(fsWriteBase + ktime.Duration(len(data))*fsWritePerByte)
	if err := f.k.faults.FSWriteError(name); err != nil {
		f.k.tel.FaultInjected(f.k.clock.Now(), fault.KindFSWrite)
		return err
	}
	segs := f.files[name]
	if len(data) > 0 {
		segs = append(segs, bytes.Clone(data))
	}
	f.files[name] = segs
	return nil
}

// ReadFile returns a copy of a file's contents, its segments joined, and
// whether the file exists. Free: inspection, not simulated activity.
func (f *FS) ReadFile(name string) ([]byte, bool) {
	f.live()
	segs, ok := f.files[name]
	if !ok {
		return nil, false
	}
	return bytes.Join(segs, nil), true
}

// Names lists all files, sorted.
func (f *FS) Names() []string {
	f.live()
	out := make([]string, 0, len(f.files))
	for name := range f.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Release ends the filesystem's life with its run's: it drops every
// file's contents, so a finished run no longer holds its log, and any
// later Append, ReadFile or Names panics instead of finding no file. A
// second Release is a no-op.
func (f *FS) Release() { f.files = nil }

// live panics once the filesystem is released.
func (f *FS) live() {
	if f.files == nil {
		panic(errFSReleased)
	}
}
