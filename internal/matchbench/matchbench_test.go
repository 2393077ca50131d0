package matchbench

import (
	"testing"

	"repro/internal/core"
)

// TestOneClassWorstCase verifies the stream's design contract: one
// pattern class, identical norms (pruning never helps the exact scan),
// every candidate matched to a stored representative, steady-state
// class size = DefaultClasses.
func TestOneClassWorstCase(t *testing.T) {
	const k, n = 64, 512
	reps := Reps(k)
	for _, r := range reps[1:] {
		if !reps[0].Comparable(r) {
			t.Fatal("centers must share one pattern class")
		}
		if r.End != reps[0].End {
			t.Fatal("centers must share the End measurement")
		}
	}
	// relDiff is omitted: its lax default threshold (0.8 relative) lets
	// permuted centers match each other, collapsing the class. That only
	// shrinks relDiff's benchmark rows — it has no index in any mode.
	for _, method := range []string{"euclidean", "chebyshev", "manhattan", "avgWave", "haarWave", "absDiff"} {
		p, err := core.DefaultMethod(method)
		if err != nil {
			t.Fatal(err)
		}
		rr := core.NewRankReducer(0, p)
		for _, s := range Stream(k, n) {
			rr.Feed(s)
		}
		out := rr.Finish()
		if len(out.Stored) != k {
			t.Errorf("%s: stored %d representatives, want the %d centers", method, len(out.Stored), k)
		}
		if rr.Matches() != n {
			t.Errorf("%s: matched %d of %d candidates", method, rr.Matches(), n)
		}
	}
}

// TestDeterministic pins the generator's output across calls.
func TestDeterministic(t *testing.T) {
	a, b := Stream(16, 32), Stream(16, 32)
	if len(a) != len(b) || len(a) != 48 {
		t.Fatalf("stream lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		am, bm := a[i].Measurements(nil), b[i].Measurements(nil)
		for j := range am {
			if am[j] != bm[j] {
				t.Fatalf("segment %d measurement %d differs: %g vs %g", i, j, am[j], bm[j])
			}
		}
	}
}
