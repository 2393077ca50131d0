package core

import (
	"slices"

	"repro/internal/segment"
	"repro/internal/trace"
)

// RankReducer is the incremental, per-rank form of the reduction engine:
// a state machine that consumes one rank's segments in trace order and
// maintains the stored representatives, the execution log, and the
// matching counters as it goes. It exists so callers can reduce a trace
// while it is still being decoded or generated — one rank at a time, one
// segment at a time — instead of materializing every segment of every
// rank first. Reduce itself is a thin driver that runs one RankReducer
// per rank on a worker pool.
//
// Matching goes through a Matcher: representatives are indexed by
// signature, partitioned into comparability classes at insertion, and
// carry the policy's prepared state, so a scan costs one class lookup
// plus prepared-state comparisons instead of per-comparison Comparable
// checks and derived-data recomputation.
//
// A RankReducer is not safe for concurrent use; use one per goroutine.
type RankReducer struct {
	m   *Matcher
	out RankReduced

	total, matches, possible int
}

// NewRankReducer returns a reducer for one rank's segment stream using
// policy p with the exact first-match scan.
func NewRankReducer(rank int, p Policy) *RankReducer {
	return NewRankReducerMode(rank, p, MatchModeExact)
}

// NewRankReducerMode returns a reducer for one rank's segment stream
// using policy p under the given MatchMode; approximate modes search
// each pattern class through a sublinear index where the policy
// supports one (see MatchMode).
func NewRankReducerMode(rank int, p Policy, mode MatchMode) *RankReducer {
	return &RankReducer{
		m:   NewMatcherMode(p, mode),
		out: RankReduced{Rank: rank},
	}
}

// Feed consumes the rank's next segment: it is either logged as an
// execution of a matching stored representative of its pattern class or
// kept (normalized to start 0) as a new representative. Feed takes
// ownership of s for matching but stores only a clone, so callers may
// reuse or discard the segment afterwards.
func (r *RankReducer) Feed(s *segment.Segment) {
	r.total++
	rr := &r.out
	cls, idx, cs := r.m.Scan(s)
	if cls != nil {
		r.possible++
	}
	if idx >= 0 {
		storedID := cls.StoredID(idx)
		r.m.Absorb(cls, idx, s)
		rr.Execs = append(rr.Execs, Exec{ID: storedID, Start: s.Start})
		r.matches++
		return
	}
	id := len(rr.Stored)
	kept := s.Clone()
	kept.Start = 0
	rr.Stored = append(rr.Stored, kept)
	rr.Execs = append(rr.Execs, Exec{ID: id, Start: s.Start})
	r.m.Insert(cls, kept, id, cs)
}

// FeedEvents splits one rank's raw event stream incrementally and feeds
// every completed segment, fusing segment.Splitter with the reducer so a
// decoded rank trace never holds its segment list in memory. Because the
// reducer clones what it keeps, each delivered segment — header and
// event storage — is recycled into the splitter, so matched segments
// allocate nothing, and the execution log is pre-grown to the stream's
// segment count.
func (r *RankReducer) FeedEvents(rank int, events []trace.Event) error {
	nseg := 0
	for i := range events {
		if events[i].Kind == trace.KindMarkBegin {
			nseg++
		}
	}
	r.out.Execs = slices.Grow(r.out.Execs, nseg)
	sp := segment.NewSplitter(rank)
	for _, e := range events {
		s, err := sp.Feed(e)
		if err != nil {
			return err
		}
		if s != nil {
			r.Feed(s)
			sp.Recycle(s)
		}
	}
	return sp.Finish()
}

// Finish returns the rank's reduction. The reducer must not be fed
// afterwards.
func (r *RankReducer) Finish() RankReduced { return r.out }

// TotalSegments returns the number of segments fed so far.
func (r *RankReducer) TotalSegments() int { return r.total }

// Matches returns how many fed segments matched a stored representative.
func (r *RankReducer) Matches() int { return r.matches }

// PossibleMatches returns how many fed segments had any comparable
// predecessor — the denominator of the degree-of-matching metric.
func (r *RankReducer) PossibleMatches() int { return r.possible }
