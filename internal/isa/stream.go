package isa

// CompiledStream is a workload lowered to a flat run-length-encoded array
// of macro-op blocks: each Run is one block repeated Count times. Steady
// phases — thousands of identical blocks — compress to a single Run, which
// is what lets the kernel's batch executor ask "how many more copies of
// this block are coming?" in O(1) instead of re-deriving blockAt per step
// (DESIGN.md §13).
type CompiledStream struct {
	Runs []Run
}

// Run is Count consecutive copies of one Block.
type Run struct {
	Block Block
	Count uint64
}
