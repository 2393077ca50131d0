package segment

import (
	"fmt"

	"repro/internal/trace"
)

// Splitter cuts one rank's event stream into segments incrementally: feed
// events in trace order and a completed segment comes back as soon as its
// closing marker arrives. It is the streaming form of Split — the batch
// functions are reimplemented on top of it — and enforces the same marker
// discipline (alternating, non-nested, matching contexts).
type Splitter struct {
	rank int
	pos  int // events consumed, for error positions
	cur  *Segment
	// spare is a delivered segment donated back via Recycle; the next
	// begin marker resets and reuses it — header and event storage —
	// instead of allocating a fresh segment.
	spare *Segment
}

// NewSplitter returns a Splitter for the given rank's event stream.
func NewSplitter(rank int) *Splitter {
	return &Splitter{rank: rank}
}

// Feed consumes the next event of the stream. When the event closes a
// segment, the completed segment (times rebased relative to its begin
// marker) is returned; otherwise the segment result is nil. Feed returns
// an error on marker-discipline violations, after which the Splitter must
// not be used further.
func (sp *Splitter) Feed(e trace.Event) (*Segment, error) {
	i := sp.pos
	sp.pos++
	switch e.Kind {
	case trace.KindMarkBegin:
		if sp.cur != nil {
			return nil, fmt.Errorf("segment: rank %d event %d: nested segment %q inside %q",
				sp.rank, i, e.Name, sp.cur.Context)
		}
		s := sp.spare
		sp.spare = nil
		if s == nil {
			s = new(Segment)
		}
		*s = Segment{Context: e.Name, Rank: sp.rank, Start: e.Enter, Weight: 1, Events: s.Events[:0]}
		sp.cur = s
		return nil, nil
	case trace.KindMarkEnd:
		if sp.cur == nil {
			return nil, fmt.Errorf("segment: rank %d event %d: end %q without begin", sp.rank, i, e.Name)
		}
		if sp.cur.Context != e.Name {
			return nil, fmt.Errorf("segment: rank %d event %d: end %q does not match open %q",
				sp.rank, i, e.Name, sp.cur.Context)
		}
		done := sp.cur
		done.End = e.Enter - done.Start
		sp.cur = nil
		return done, nil
	default:
		if sp.cur == nil {
			return nil, fmt.Errorf("segment: rank %d event %d (%s): event outside any segment",
				sp.rank, i, e.Name)
		}
		rel := e
		rel.Enter -= sp.cur.Start
		rel.Exit -= sp.cur.Start
		sp.cur.Events = append(sp.cur.Events, rel)
		return nil, nil
	}
}

// Finish declares the stream complete. It fails if a segment is still
// open.
func (sp *Splitter) Finish() error {
	if sp.cur != nil {
		return fmt.Errorf("segment: rank %d: segment %q never closed", sp.rank, sp.cur.Context)
	}
	return nil
}

// Open reports whether a segment is currently open (a begin marker has
// been fed without its matching end).
func (sp *Splitter) Open() bool { return sp.cur != nil }

// Recycle donates a delivered segment back to the splitter: the next
// begin marker overwrites s in place and reuses its event storage, so
// fused split-and-consume loops allocate nothing per segment. The caller
// gives up s entirely — it must not keep s, s.Events, or anything
// aliasing either (Segment.Clone copies the events, so a clone taken
// before recycling stays intact).
func (sp *Splitter) Recycle(s *Segment) {
	if s != nil {
		sp.spare = s
	}
}
