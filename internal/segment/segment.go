// Package segment splits per-rank event traces into segments at the
// marker boundaries the instrumentation inserts around loops (paper §3.1),
// normalizes event times relative to the segment start, and computes the
// signatures that decide whether two segments are comparable at all.
package segment

import (
	"fmt"

	"repro/internal/trace"
)

// Segment is one contiguous marked region of a single rank's trace with
// event timestamps normalized relative to the segment start.
type Segment struct {
	// Context is the hierarchical code location ("init", "main.1",
	// "main.2.1", "final").
	Context string
	// Rank is the process the segment was collected from.
	Rank int
	// Start is the absolute start timestamp in the original trace.
	Start trace.Time
	// End is the segment duration (end marker time relative to Start).
	End trace.Time
	// Events holds the segment's events with Enter/Exit relative to Start.
	Events []trace.Event
	// Weight counts how many raw segments this one represents; iter_avg
	// folds matches into a running average and increments Weight.
	Weight int

	sig Signature // cached; computed on first use
}

// Signature identifies the pattern class of a segment: context plus the
// identity (name, kind, message parameters) of every event in order. Two
// segments are a "possible match" in the paper's sense iff their
// signatures are equal.
type Signature uint64

// Signature hashing folds 64-bit words into the state with an
// xor-multiply followed by a shift-xor, so the product's high bits reach
// the low ones. Each step is a bijection of the state for a fixed word,
// so two word sequences of equal length that differ in a single word
// always hash differently. sigSeed is an arbitrary non-zero start state.
const (
	sigSeed = 0x9e3779b97f4a7c15
	sigMul  = 0xbf58476d1ce4e5b9
)

// sigMix folds word w into state h.
func sigMix(h, w uint64) uint64 {
	h = (h ^ w) * sigMul
	return h ^ h>>31
}

// sigStr folds a length-prefixed string into h eight bytes at a time;
// the final partial word is zero-padded, which the length prefix makes
// unambiguous.
func sigStr(h uint64, x string) uint64 {
	h = sigMix(h, uint64(len(x)))
	for ; len(x) >= 8; x = x[8:] {
		h = sigMix(h, uint64(x[0])|uint64(x[1])<<8|uint64(x[2])<<16|uint64(x[3])<<24|
			uint64(x[4])<<32|uint64(x[5])<<40|uint64(x[6])<<48|uint64(x[7])<<56)
	}
	if len(x) > 0 {
		var w uint64
		for i := len(x) - 1; i >= 0; i-- {
			w = w<<8 | uint64(x[i])
		}
		h = sigMix(h, w)
	}
	return h
}

// Sig returns the segment's signature, computing and caching it on first
// call. The signature is an in-memory bucket key only (it is never
// serialized), so its hash function is free to change between versions.
func (s *Segment) Sig() Signature {
	if s.sig != 0 {
		return s.sig
	}
	h := sigStr(sigSeed, s.Context)
	h = sigMix(h, uint64(len(s.Events)))
	for i := range s.Events {
		e := &s.Events[i]
		h = sigStr(h, e.Name)
		h = sigMix(h, uint64(e.Kind)<<32|uint64(uint32(e.Root)))
		h = sigMix(h, uint64(uint32(e.Peer))<<32|uint64(uint32(e.Tag)))
		h = sigMix(h, uint64(e.Bytes))
	}
	s.sig = Signature(h)
	if s.sig == 0 {
		s.sig = 1 // reserve 0 for "not yet computed"
	}
	return s.sig
}

// ResetSig clears the cached signature; call it after mutating a
// segment's identity fields (context, event shapes).
func (s *Segment) ResetSig() { s.sig = 0 }

// ForceSig overrides the cached signature. It exists solely so tests can
// simulate 64-bit signature collisions between non-comparable segments —
// infeasible to construct organically — and exercise the collision
// defenses downstream. Never call it outside tests.
func (s *Segment) ForceSig(sig Signature) { s.sig = sig }

// Comparable reports whether two segments have the same context and the
// same events (names, kinds, message parameters) in the same order — the
// precondition every similarity method shares (paper compareSegments).
func (s *Segment) Comparable(o *Segment) bool {
	if s.Context != o.Context || len(s.Events) != len(o.Events) {
		return false
	}
	if s.Sig() != o.Sig() {
		return false
	}
	for i := range s.Events {
		if !s.Events[i].SameShape(o.Events[i]) {
			return false
		}
	}
	return true
}

// Measurements appends the segment's measurement values in the canonical
// order used by the pairwise and Minkowski methods — segment end first,
// then each event's enter and exit stamp (paper Figure 2: s2 ↦
// (49, 1, 17, 18, 48)) — and returns the extended slice.
func (s *Segment) Measurements(dst []float64) []float64 {
	dst = append(dst, float64(s.End))
	for _, e := range s.Events {
		dst = append(dst, float64(e.Enter), float64(e.Exit))
	}
	return dst
}

// StampVector appends the wavelet input vector: the relative start (always
// 0), every event enter/exit stamp, and the segment end (paper §3.2.1),
// returning the extended slice.
func (s *Segment) StampVector(dst []float64) []float64 {
	dst = append(dst, 0)
	for _, e := range s.Events {
		dst = append(dst, float64(e.Enter), float64(e.Exit))
	}
	return append(dst, float64(s.End))
}

// NumMeasurements returns len(Measurements): 2*len(Events)+1.
func (s *Segment) NumMeasurements() int { return 2*len(s.Events) + 1 }

// Clone returns a deep copy of the segment.
func (s *Segment) Clone() *Segment {
	c := *s
	c.Events = append([]trace.Event(nil), s.Events...)
	return &c
}

// Split cuts one rank's event stream into segments. Marker events delimit
// segments; event times inside each segment are rebased relative to the
// begin-marker time. The input trace must satisfy trace.Validate's marker
// discipline (alternating, non-nested, matching contexts). Split is the
// batch form of Splitter.
func Split(rt *trace.RankTrace) ([]*Segment, error) {
	sp := NewSplitter(rt.Rank)
	var segs []*Segment
	for _, e := range rt.Events {
		s, err := sp.Feed(e)
		if err != nil {
			return nil, err
		}
		if s != nil {
			segs = append(segs, s)
		}
	}
	if err := sp.Finish(); err != nil {
		return nil, err
	}
	return segs, nil
}

// SplitTrace segments every rank of t. The result is indexed by rank.
func SplitTrace(t *trace.Trace) ([][]*Segment, error) {
	out := make([][]*Segment, len(t.Ranks))
	for i := range t.Ranks {
		segs, err := Split(&t.Ranks[i])
		if err != nil {
			return nil, fmt.Errorf("trace %q: %w", t.Name, err)
		}
		out[i] = segs
	}
	return out, nil
}
