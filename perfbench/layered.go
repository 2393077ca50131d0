package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/trace"
)

// indexMinClassSize mirrors the core matcher's threshold below which an
// approximate mode keeps the exact scan; core.indexed_scans counts scans
// of classes at or above it under a mode with an index.
const indexMinClassSize = 32

// coreCounts are the matching decisions of traced reductions.
type coreCounts struct {
	segments, repsExamined, indexedScans int64
	maxClassReps, storedReps             int64
	matches, possible                    int64
	events                               int64
}

func (c *coreCounts) merge(o coreCounts) {
	c.segments += o.segments
	c.repsExamined += o.repsExamined
	c.indexedScans += o.indexedScans
	c.maxClassReps = max(c.maxClassReps, o.maxClassReps)
	c.storedReps += o.storedReps
	c.matches += o.matches
	c.possible += o.possible
	c.events += o.events
}

// plainReader hides a reader's io.ReaderAt so the trace decoder takes
// its sequential path: every rank is then decoded inside the NextRank
// call that returns it, and the decode span times the decode itself
// instead of a wait on background block workers.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// decodedRanks opens a trace container for layered decoding and returns
// a rank source whose NextRank calls are spans under parent.
func decodedRanks(ot *opTrace, parent int, input []byte, c *coreCounts) (string, func() (*trace.RankTrace, error), error) {
	sp := ot.open("trace.decode", parent)
	dec, err := trace.NewDecoderWith(plainReader{bytes.NewReader(input)}, trace.DecoderOptions{Workers: 1})
	ot.close(sp)
	if err != nil {
		return "", nil, err
	}
	next := func() (*trace.RankTrace, error) {
		sp := ot.open("trace.decode", parent)
		rt, err := dec.NextRank()
		ot.close(sp)
		if rt != nil {
			c.events += int64(len(rt.Events))
		}
		return rt, err
	}
	return dec.Name(), next, nil
}

// memoryRanks is a rank source over an in-memory trace.
func memoryRanks(t *trace.Trace) func() (*trace.RankTrace, error) {
	i := 0
	return func() (*trace.RankTrace, error) {
		if i == len(t.Ranks) {
			return nil, io.EOF
		}
		i++
		return &t.Ranks[i-1], nil
	}
}

// layeredReduce reduces the ranks next yields through the public layer
// functions — Splitter.Feed, Segment.Sig, Matcher.Scan/Insert/Absorb —
// exactly as core.RankReducer.Feed composes them, timing each layer
// under parent, and adds its decisions to total. The result equals
// core.ReduceSequentialMode's.
func layeredReduce(ot *opTrace, parent int, name string, p core.Policy, mode core.MatchMode,
	next func() (*trace.RankTrace, error), total *coreCounts) (*core.Reduced, error) {
	red := &core.Reduced{Name: name, Method: p.Name()}
	c := &coreCounts{}
	defer func() { total.merge(*c) }()
	indexed := core.IndexKind(p, mode) != "scan"
	for rank := 0; ; rank++ {
		rt, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		split := ot.aggregate("segment.split", parent)
		sig := ot.aggregate("segment.sig", parent)
		scan := ot.aggregate("core.scan", parent)
		insert := ot.aggregate("core.insert", parent)
		absorb := ot.aggregate("core.absorb", parent)

		rr := core.RankReduced{Rank: rank}
		m := core.NewMatcherMode(p, mode)
		sp := segment.NewSplitter(rt.Rank)
		// The clock is read once per segment, not per event: the split
		// span covers every Feed from the end of the previous segment's
		// work to the Feed that closed this one.
		t := ot.now()
		for _, e := range rt.Events {
			s, err := sp.Feed(e)
			if err != nil {
				return nil, err
			}
			if s == nil {
				continue
			}
			t1 := ot.now()
			ot.add(split, t, t1)
			s.Sig()
			t2 := ot.now()
			ot.add(sig, t1, t2)
			cls, idx, cs := m.Scan(s)
			t3 := ot.now()
			ot.add(scan, t2, t3)
			c.segments++
			if cls != nil {
				c.possible++
				c.repsExamined += int64(cls.Len())
				if indexed && cls.Len() >= indexMinClassSize {
					c.indexedScans++
				}
			}
			if idx >= 0 {
				id := cls.StoredID(idx)
				m.Absorb(cls, idx, s)
				rr.Execs = append(rr.Execs, core.Exec{ID: id, Start: s.Start})
				c.matches++
				t = ot.now()
				ot.add(absorb, t3, t)
			} else {
				id := len(rr.Stored)
				kept := s.Clone()
				kept.Start = 0
				rr.Stored = append(rr.Stored, kept)
				rr.Execs = append(rr.Execs, core.Exec{ID: id, Start: s.Start})
				m.Insert(cls, kept, id, cs)
				reps := int64(1)
				if cls != nil {
					reps = int64(cls.Len())
				}
				c.maxClassReps = max(c.maxClassReps, reps)
				t = ot.now()
				ot.add(insert, t3, t)
			}
			sp.Recycle(s)
		}
		if err := sp.Finish(); err != nil {
			return nil, err
		}
		c.storedReps += int64(len(rr.Stored))
		red.Ranks = append(red.Ranks, rr)
	}
	red.TotalSegments = int(c.segments)
	red.Matches = int(c.matches)
	red.PossibleMatches = int(c.possible)
	return red, nil
}

// reference is the expected outcome of one (input, method) reduction:
// the sequential exact reduction's encoded bytes and counters.
type reference struct {
	body                      []byte
	stored, matches, possible int
	segments                  int
}

// exactReference reduces t with core.ReduceSequential, the exact
// single-threaded reference, and encodes the result in each container
// version asked for (1 = TRR1, 2 = TRR2); bodies[i] is versions[i]'s.
func exactReference(t *trace.Trace, p core.Policy, versions ...int) ([]*reference, error) {
	red, err := core.ReduceSequential(t, p)
	if err != nil {
		return nil, err
	}
	var refs []*reference
	for _, v := range versions {
		var buf bytes.Buffer
		if err := encodeReduced(&buf, red, v); err != nil {
			return nil, err
		}
		refs = append(refs, &reference{body: buf.Bytes(), stored: red.StoredSegments(), matches: red.Matches,
			possible: red.PossibleMatches, segments: red.TotalSegments})
	}
	return refs, nil
}

// encodeReduced writes red as TRR1 (version 1) or TRR2 (version 2) with
// the encoders the pipeline's output is byte-identical to.
func encodeReduced(w io.Writer, red *core.Reduced, version int) error {
	if version == 2 {
		return core.EncodeReducedV2With(w, red, trace.EncoderOptions{Workers: 1})
	}
	return core.EncodeReduced(w, red)
}

// checkReduced applies the output contract of one reduction against the
// exact reference. Exact mode, and any mode the method has no index
// for, must reproduce the reference byte for byte. A VP-tree finds a
// match exactly when the exact scan does, so stored representatives,
// matches and possible matches are equal; only the matched
// representative may differ, which can change TRR2 varint bytes. LSH may
// miss matches but never invents one.
func checkReduced(p core.Policy, mode core.MatchMode, body []byte, stored, matches, possible, segments int, ref *reference) error {
	kind := core.IndexKind(p, mode)
	switch {
	case kind == "scan":
		if !bytes.Equal(body, ref.body) {
			return fmt.Errorf("%s/%s: output differs from the sequential reference (%d vs %d bytes)",
				p.Name(), mode, len(body), len(ref.body))
		}
	case segments != ref.segments || possible != ref.possible:
		return fmt.Errorf("%s/%s: %d segments, %d possible matches; reference %d, %d",
			p.Name(), mode, segments, possible, ref.segments, ref.possible)
	case kind == "vptree" && (stored != ref.stored || matches != ref.matches):
		return fmt.Errorf("%s/vptree: %d stored, %d matches; exact %d, %d",
			p.Name(), stored, matches, ref.stored, ref.matches)
	case kind == "lsh" && matches > ref.matches:
		return fmt.Errorf("%s/lsh: %d matches exceed exact's %d", p.Name(), matches, ref.matches)
	}
	return nil
}
