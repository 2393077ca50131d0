package core

import (
	"fmt"

	"repro/internal/segment"
)

// iterK keeps the first k instances of every segment pattern verbatim;
// from the (k+1)-th instance on, every occurrence "matches" the last
// collected copy. Reconstruction therefore fills the missing executions
// with the last collected segment of the pattern (paper footnote 1).
type iterK struct{ k int }

// NewIterK returns the iter_k policy. k must be >= 1.
func NewIterK(k int) (Policy, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: iter_k requires k >= 1, got %d", k)
	}
	return &iterK{k: k}, nil
}

func (p *iterK) Name() string { return "iter_k" }

// Prepare only clears cs: iter_k matches on instance counts, not
// measurements.
func (p *iterK) Prepare(_ *segment.Segment, cs *RepState) { cs.reset() }

func (p *iterK) Match(cls *Class, _ *segment.Segment, _ *RepState) int {
	if cls.Len() >= p.k {
		return cls.Len() - 1
	}
	return -1
}

func (p *iterK) Absorb(*segment.Segment, *segment.Segment) bool { return false }

// iterAvg keeps exactly one representative per pattern holding the
// running average of every measurement over all folded instances.
type iterAvg struct{}

// NewIterAvg returns the iter_avg policy.
func NewIterAvg() Policy { return iterAvg{} }

func (iterAvg) Name() string { return "iter_avg" }

// Prepare only clears cs: iter_avg always matches the single
// representative.
func (iterAvg) Prepare(_ *segment.Segment, cs *RepState) { cs.reset() }

func (iterAvg) Match(cls *Class, _ *segment.Segment, _ *RepState) int {
	if cls.Len() > 0 {
		return 0
	}
	return -1
}

// Absorb folds cand into matched as an incremental mean: with matched
// already representing w instances, each averaged measurement becomes
// (w·avg + new) / (w+1). Integer division keeps timestamps in time units;
// the sub-microsecond truncation is far below every threshold studied.
// It reports the mutation so the matcher refreshes any cached state.
func (iterAvg) Absorb(matched, cand *segment.Segment) bool {
	w := int64(matched.Weight)
	avg := func(old, new int64) int64 { return (old*w + new) / (w + 1) }
	matched.End = avg(matched.End, cand.End)
	for i := range matched.Events {
		matched.Events[i].Enter = avg(matched.Events[i].Enter, cand.Events[i].Enter)
		matched.Events[i].Exit = avg(matched.Events[i].Exit, cand.Events[i].Exit)
	}
	matched.Weight++
	return true
}
