package kleb

import (
	"kleb/internal/ktime"
	"kleb/internal/monitor"
)

// ring is the bounded sample buffer the K-LEB module keeps in kernel
// memory. The module fills it from the HRTimer interrupt handler; the
// controller drains it with periodic read syscalls. When it holds its
// capacity (BufferSamples), the module pauses collection (the paper's
// safety mechanism) instead of overwriting data.
//
// The ring costs only what the run buffers: newRing allocates no slot, and
// the slots, with their deltas carved out of one slab, are allocated on
// the first push, ringFirstSlots at a time, then doubled whenever every
// allocated slot is full, up to the capacity. A run whose controller keeps
// up never grows past its peak occupancy, and a ring allocates once plus
// at most ⌈log2(capacity/ringFirstSlots)⌉ doublings per configure. Outside
// growth the interrupt handler allocates nothing: push copies into the
// slot's slab segment, and only popN — the controller's cold syscall path —
// allocates, because drained samples outlive the slot they came from. popN
// copies a drain into a Batch of two exact-size arrays, times and deltas,
// and that copy is the only one a run keeps: the controller renders its log
// rows from the batch, and Controller.Samples adds only the headers.
type ring struct {
	buf   []monitor.Sample // allocated slots, len(buf) <= capacity
	width int              // deltas per slot
	max   int              // capacity: the occupancy at which push refuses
	head  int              // next slot to pop
	count int
}

// ringFirstSlots is the number of slots a ring's first push allocates: a
// 1 ms run drained every 50 ms (DefaultDrainInterval) buffers 50 samples,
// so such runs allocate once.
const ringFirstSlots = 64

// newRing builds an empty ring of capacity slots, each able to hold width
// deltas. It allocates no slot; push grows the ring on demand.
func newRing(capacity, width int) *ring {
	if capacity <= 0 {
		capacity = DefaultBufferSamples
	}
	return &ring{width: width, max: capacity}
}

// push appends one sample, copying deltas into the slot's preallocated
// backing; it reports false (and stores nothing) when the ring holds its
// capacity. len(deltas) must not exceed the configured width.
//
//klebvet:hotpath
func (r *ring) push(t ktime.Time, deltas []uint64) bool {
	if r.count == r.max {
		return false
	}
	if r.count == len(r.buf) {
		r.grow()
	}
	s := &r.buf[(r.head+r.count)%len(r.buf)]
	s.Time = t
	s.Deltas = append(s.Deltas[:0], deltas...) //klebvet:allow hotalloc -- slot backing is carved by grow with cap == width and len(deltas) <= width, so this append can never grow
	r.count++
	return true
}

// grow reallocates the slots at twice their number (ringFirstSlots at
// first), capped at the capacity, and moves the buffered samples to the
// front of the new slab in FIFO order.
func (r *ring) grow() {
	n := 2 * len(r.buf)
	if n < ringFirstSlots {
		n = ringFirstSlots
	}
	if n > r.max {
		n = r.max
	}
	buf := make([]monitor.Sample, n) //klebvet:allow hotalloc -- ring growth: one first allocation and at most ⌈log2(capacity/ringFirstSlots)⌉ doublings per configure, after which push never allocates
	if w := r.width; w > 0 {
		backing := make([]uint64, n*w) //klebvet:allow hotalloc -- the new slots' delta slab, allocated with buf under the same bound
		for i := range buf {
			// Three-index slice: len 0, cap width — append stays in place.
			buf[i].Deltas = backing[i*w : i*w : (i+1)*w]
		}
	}
	for i := 0; i < r.count; i++ {
		old := &r.buf[(r.head+i)%len(r.buf)]
		s := &buf[i]
		s.Time = old.Time
		s.Deltas = s.Deltas[:len(old.Deltas)]
		copy(s.Deltas, old.Deltas)
	}
	r.buf, r.head = buf, 0
}

// popN removes up to n samples in FIFO order and returns them as one Batch
// of exact-size arrays, width deltas per sample; a slot holding fewer
// deltas reads 0 in the rest. The batch owns its storage, so it stays valid
// after the slots are reused.
func (r *ring) popN(n int) Batch {
	if n > r.count {
		n = r.count
	}
	if n <= 0 {
		return Batch{}
	}
	w := r.width
	b := Batch{Times: make([]ktime.Time, n), Deltas: make([]uint64, n*w)}
	for i := range b.Times {
		s := &r.buf[(r.head+i)%len(r.buf)]
		b.Times[i] = s.Time
		copy(b.Deltas[i*w:(i+1)*w], s.Deltas)
		s.Deltas = s.Deltas[:0] // slot keeps its slab segment for reuse
	}
	r.head = (r.head + n) % len(r.buf)
	r.count -= n
	return b
}

// len returns the number of buffered samples.
func (r *ring) len() int { return r.count }

// capacity returns the occupancy at which push refuses: the configured
// BufferSamples, however few slots are allocated so far.
func (r *ring) capacity() int { return r.max }

// free returns the remaining capacity.
func (r *ring) free() int { return r.max - r.count }
