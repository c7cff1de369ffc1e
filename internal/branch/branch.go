// Package branch provides a small branch predictor model. The CPU model
// uses it to turn a workload's declared branch behaviour into mispredict
// counts and pipeline-flush penalties.
//
// Workload blocks declare a mispredict *tendency* (how hard their branches
// are to predict); the predictor converts that into an actual mispredict
// stream by running a gshare predictor over a synthetic outcome sequence
// whose entropy matches the tendency. This keeps mispredict counts
// responsive to predictor state (cold after context switches, warm during
// steady phases) instead of being a fixed percentage.
package branch

// Predictor is a gshare predictor: a global history register XORed with the
// branch address indexes a table of 2-bit saturating counters.
type Predictor struct {
	table   []uint8
	mask    uint64
	history uint64
	stats   Stats
}

// Stats accumulates prediction outcomes.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
}

// MispredictRatio returns mispredicts/branches, or 0 for an idle predictor.
func (s Stats) MispredictRatio() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// New creates a predictor with 2^bits entries.
func New(bits uint) *Predictor {
	size := uint64(1) << bits
	return &Predictor{table: make([]uint8, size), mask: size - 1}
}

// Predict runs one branch with address pc and actual outcome taken,
// updating predictor state. It returns true if the branch was mispredicted.
func (p *Predictor) Predict(pc uint64, taken bool) bool {
	idx := (pc ^ p.history) & p.mask
	ctr := p.table[idx]
	predictTaken := ctr >= 2
	mis := predictTaken != taken
	if taken {
		if ctr < 3 {
			p.table[idx] = ctr + 1
		}
	} else if ctr > 0 {
		p.table[idx] = ctr - 1
	}
	p.history = ((p.history << 1) | b2u(taken)) & p.mask
	p.stats.Branches++
	if mis {
		p.stats.Mispredicts++
	}
	return mis
}

// Stats returns the accumulated statistics.
func (p *Predictor) Stats() Stats { return p.stats }

// History returns the current global history register. The CPU's memo layer
// folds it into the state-class key so a cached block cost is only replayed
// when the predictor would start from an equivalent state.
func (p *Predictor) History() uint64 { return p.history }

// ResetStats clears statistics without clearing learned state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }

// FlushHistory clears the global history (modelled on a context switch);
// learned counter state survives, as it does on real hardware.
func (p *Predictor) FlushHistory() { p.history = 0 }

// SetHistory restores a previously observed history register. The CPU's
// memo layer uses it when replaying a cached block cost: a replay must
// reproduce the block's state transition, so the history advances to where
// the measured execution left it.
func (p *Predictor) SetHistory(h uint64) { p.history = h }

// State is a deep copy of the predictor's mutable state; the backing table
// slice is recycled across saves, so a long-lived State snapshots without
// allocating.
type State struct {
	table   []uint8
	history uint64
	stats   Stats
}

// Save captures the predictor's complete mutable state into s.
func (p *Predictor) Save(s *State) {
	s.table = append(s.table[:0], p.table...)
	s.history = p.history
	s.stats = p.stats
}

// Restore rewinds the predictor to a state captured by Save.
func (p *Predictor) Restore(s *State) {
	copy(p.table, s.table)
	p.history = s.history
	p.stats = s.stats
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
