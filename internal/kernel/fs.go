package kernel

import (
	"bytes"
	"fmt"
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
// charged to the calling process's kernel time. Reads are free (post-run
// inspection, not simulated activity).
//
// A file is the list of its appended segments, so every byte written is
// copied once: a log that grows by a drain's rows at a time never
// re-copies what it already holds, and holds no spare capacity.
type FS struct {
	k     *Kernel
	files map[string][][]byte
}

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

// ReadFile returns a file's contents (nil if absent). Free: post-run
// inspection. The first read after a write joins the file's segments into
// one, which later reads return until the next write.
func (f *FS) ReadFile(name string) ([]byte, bool) {
	segs, ok := f.files[name]
	switch {
	case !ok:
		return nil, false
	case len(segs) == 0:
		return nil, true
	case len(segs) > 1:
		segs = [][]byte{bytes.Join(segs, nil)}
		f.files[name] = segs
	}
	return segs[0], true
}

// Size returns a file's length in bytes.
func (f *FS) Size(name string) int {
	n := 0
	for _, seg := range f.files[name] {
		n += len(seg)
	}
	return n
}

// Names lists all files, sorted.
func (f *FS) Names() []string {
	out := make([]string, 0, len(f.files))
	for name := range f.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Remove deletes a file.
func (f *FS) Remove(name string) error {
	if _, ok := f.files[name]; !ok {
		return fmt.Errorf("fs: no such file %q", name)
	}
	delete(f.files, name)
	return nil
}
