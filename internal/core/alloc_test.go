package core

import (
	"slices"
	"testing"

	"repro/internal/matchbench"
	"repro/internal/segment"
	"repro/internal/trace"
)

// Steady-state allocation gates for the matcher hot path. The slab
// refactor's allocation discipline — candidate state prepared into the
// matcher's reusable scratch, kernels and indexes reading slab rows in
// place, pooled index scratch — is pinned here with testing.AllocsPerRun:
// once a class is warm, Matcher.Scan and RankReducer.Feed on matching
// candidates must not allocate at all, for every method under every
// match mode. A regression to per-scan garbage shows up as a hard test
// failure, not a quiet benchmark drift.

const (
	// allocClasses ≥ indexMinClassSize so the approximate modes actually
	// exercise their index search paths, not just the exact fallback.
	allocClasses = 2 * indexMinClassSize
	allocCands   = 128
)

var allocModes = []MatchMode{MatchModeExact, MatchModeVPTree, MatchModeLSH, MatchModeAuto}

// warmAllocMatcher builds a matcher over the shared matchbench class,
// inserts every representative, and runs one full warm pass over the
// exact candidate sequence the gate will replay, so every lazily grown
// buffer (prepared-vector scratch, wavelet transform scratch, VP-tree
// traversal stack, LSH candidate/dedup arrays) reaches steady-state
// capacity before allocations are counted.
func warmAllocMatcher(t *testing.T, method string, mode MatchMode) (*Matcher, []*segment.Segment) {
	t.Helper()
	p, err := DefaultMethod(method)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcherMode(p, mode)
	id := 0
	for _, r := range matchbench.Reps(allocClasses) {
		cls, idx, cs := m.Scan(r)
		if idx >= 0 {
			m.Absorb(cls, idx, r)
			continue
		}
		kept := r.Clone()
		kept.Start = 0
		m.Insert(cls, kept, id, cs)
		id++
	}
	cands := matchbench.Candidates(allocClasses, allocCands)
	for _, c := range cands {
		m.Scan(c)
	}
	return m, cands
}

// TestScanSteadyStateAllocFree: a warm Matcher.Scan allocates nothing,
// for all nine methods under all four match modes.
func TestScanSteadyStateAllocFree(t *testing.T) {
	for _, method := range MethodNames {
		for _, mode := range allocModes {
			t.Run(method+"/"+mode.String(), func(t *testing.T) {
				m, cands := warmAllocMatcher(t, method, mode)
				avg := testing.AllocsPerRun(10, func() {
					for _, c := range cands {
						m.Scan(c)
					}
				})
				if avg != 0 {
					t.Errorf("%s/%s: warm Scan allocates %.1f objects per %d-candidate pass, want 0",
						method, mode, avg, len(cands))
				}
			})
		}
	}
}

// TestFeedSteadyStateAllocFree: a warm RankReducer.Feed of matching
// candidates allocates nothing once the execution log has capacity —
// the reducer's steady state on a long homogeneous stream.
func TestFeedSteadyStateAllocFree(t *testing.T) {
	for _, method := range MethodNames {
		for _, mode := range allocModes {
			t.Run(method+"/"+mode.String(), func(t *testing.T) {
				p, err := DefaultMethod(method)
				if err != nil {
					t.Fatal(err)
				}
				r := NewRankReducerMode(0, p, mode)
				for _, s := range matchbench.Stream(allocClasses, allocCands) {
					r.Feed(s)
				}
				cands := matchbench.Candidates(allocClasses, allocCands)
				for _, s := range cands {
					r.Feed(s)
				}
				// Every gated candidate matches a stored representative
				// (the stream warm-up stored the centers), so Feed's only
				// append target is the execution log: give it the whole
				// gate's capacity up front, as FeedEvents does per rank.
				const runs = 10
				r.out.Execs = slices.Grow(r.out.Execs, (runs+1)*len(cands))
				stored := len(r.out.Stored)
				avg := testing.AllocsPerRun(runs, func() {
					for _, s := range cands {
						r.Feed(s)
					}
				})
				if avg != 0 {
					t.Errorf("%s/%s: warm Feed allocates %.1f objects per %d-candidate pass, want 0",
						method, mode, avg, len(cands))
				}
				if got := len(r.out.Stored); got != stored {
					t.Fatalf("%s/%s: gate stored %d new representatives, want 0 (workload not steady-state)",
						method, mode, got-stored)
				}
			})
		}
	}
}

// repeatedRank is one rank's raw event stream of nseg segments that all
// share one shape and one timing, so every segment after the first few
// matches a stored representative under every method.
func repeatedRank(nseg int) []trace.Event {
	events := make([]trace.Event, 0, 4*nseg)
	for i := range nseg {
		at := trace.Time(100 * i)
		events = append(events,
			trace.Event{Name: "main.1", Kind: trace.KindMarkBegin, Enter: at, Exit: at, Peer: trace.NoPeer, Root: trace.NoPeer},
			trace.Event{Name: "do_work", Kind: trace.KindCompute, Enter: at + 1, Exit: at + 40, Peer: trace.NoPeer, Root: trace.NoPeer},
			trace.Event{Name: "MPI_Send", Kind: trace.KindSend, Enter: at + 41, Exit: at + 60, Peer: 1, Tag: 3, Bytes: 4096, Root: trace.NoPeer},
			trace.Event{Name: "main.1", Kind: trace.KindMarkEnd, Enter: at + 80, Exit: at + 80, Peer: trace.NoPeer, Root: trace.NoPeer},
		)
	}
	return events
}

// TestFeedEventsPerSegmentAllocFree: RankReducer.FeedEvents over a rank
// whose segments match a stored representative allocates the same number
// of objects for 1,000 segments as for 10,000 — the splitter reuses the
// delivered segment and the reducer stores clones only, so a matched
// segment costs no allocation.
func TestFeedEventsPerSegmentAllocFree(t *testing.T) {
	small, large := repeatedRank(1000), repeatedRank(10000)
	for _, method := range MethodNames {
		t.Run(method, func(t *testing.T) {
			p, err := DefaultMethod(method)
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(events []trace.Event) float64 {
				return testing.AllocsPerRun(3, func() {
					r := NewRankReducer(0, p)
					if err := r.FeedEvents(0, events); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a, b := allocs(small), allocs(large); a != b {
				t.Errorf("%s: FeedEvents allocates %.0f objects for 1,000 segments but %.0f for 10,000", method, a, b)
			}
		})
	}
}
