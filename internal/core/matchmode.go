package core

import (
	"fmt"
	"strings"

	"repro/internal/segment"
)

// MatchMode selects how Matcher.Scan searches a comparability class for
// a matching representative.
//
// MatchModeExact is the default and the parity reference: the
// first-match linear scan (with conservative lower-bound pruning) that
// every result in the paper's evaluation is defined against. The
// approximate modes trade exact first-match order — and, for LSH, a
// bounded amount of recall — for a sublinear search per candidate:
//
//   - MatchModeVPTree queries a vantage-point metric tree with the
//     policy's threshold ball. It applies to the Minkowski-family
//     distances, absDiff (a fixed-radius Chebyshev ball), and the two
//     wavelet methods (Euclidean distance between transforms). Pruning
//     uses the exact triangle inequality with the same conservative
//     margin as the linear scan, so a VP-tree search finds a match if
//     and only if the exact scan would — only *which* representative is
//     matched may differ (near-first instead of first). Stored
//     representatives, degree of matching, and reduced size are
//     therefore identical to exact mode.
//   - MatchModeLSH hashes the prepared wavelet stamp vectors with
//     random-hyperplane signatures and scans only the candidate's hash
//     buckets. It applies to avgWave/haarWave; a match can be missed
//     when no hash table collides, so the reduction may store extra
//     representatives (degree of matching can only drop, never rise).
//   - MatchModeAuto picks one structure per policy: LSH for the
//     wavelet methods, a VP-tree for Manhattan, Euclidean, and higher
//     Minkowski orders, and the exact scan otherwise — including
//     Chebyshev and absDiff, whose trees lose to the linear scan. Auto
//     is not guaranteed to beat exact. On BENCH_matcher.json's
//     512-representative worst case the Euclidean VP-tree scans at
//     0.49× of the fused exact scan in vptree mode. Its auto row reads
//     0.82× scan and 1.19× reduce, but those are single samples: rows
//     that run the plain scan under a non-exact mode spread from 0.63×
//     to 1.46× of exact, so about ±0.4× is noise. Manhattan (2.4× scan
//     under auto) is the tree that wins clearly.
//
// Policies with no supported index under a mode (relDiff, whose
// per-measurement relative test is not a metric, and the counting
// policies iter_k/iter_avg/sample_n) always fall back to the exact
// scan, so every mode is safe to apply to every method.
type MatchMode uint8

const (
	// MatchModeExact is the paper's first-match linear scan (default).
	MatchModeExact MatchMode = iota
	// MatchModeVPTree searches a vantage-point metric tree.
	MatchModeVPTree
	// MatchModeLSH searches random-hyperplane hash buckets.
	MatchModeLSH
	// MatchModeAuto selects the best supported index per policy.
	MatchModeAuto
)

// MatchModeNames lists the accepted -match flag spellings in display
// order.
var MatchModeNames = []string{"exact", "vptree", "lsh", "auto"}

// String returns the mode's canonical name.
func (m MatchMode) String() string {
	if int(m) < len(MatchModeNames) {
		return MatchModeNames[m]
	}
	return fmt.Sprintf("MatchMode(%d)", uint8(m))
}

// ParseMatchMode parses a -match flag value.
func ParseMatchMode(s string) (MatchMode, error) {
	for i, name := range MatchModeNames {
		if s == name {
			return MatchMode(i), nil
		}
	}
	return MatchModeExact, fmt.Errorf("core: unknown match mode %q (known: %s)",
		s, strings.Join(MatchModeNames, ", "))
}

// IndexedClass is a sublinear search structure over one comparability
// class's representatives — the seam DESIGN.md's matcher layer reserved
// for approximate matching. The matcher owns the lifecycle: Add after
// every insertion, Search instead of the policy's linear Match, Rebuild
// after a mutating Absorb. Implementations read representative vectors
// and prepared state through the owning Class, so they never copy
// measurement data.
type IndexedClass interface {
	// Add indexes the class's i-th representative (just appended).
	Add(i int)
	// Search returns the position within the class of a representative
	// the candidate matches — near-first rather than strictly first in
	// collection order — or -1 when none matches. cs is the candidate's
	// prepared state from Policy.Prepare.
	Search(cand *segment.Segment, cs *RepState) int
	// Rebuild re-indexes the whole class after representative state
	// changed in place (a mutating Absorb re-Prepared a member).
	Rebuild()
}

// ApproxIndexer is implemented by policies that can build a sublinear
// per-class index for at least one approximate MatchMode. NewClassIndex
// returns nil when the policy has no index for the mode; the matcher
// then keeps the exact linear scan for that class.
type ApproxIndexer interface {
	NewClassIndex(mode MatchMode, cls *Class) IndexedClass
}

// IndexKind reports which search structure policy p uses under mode:
// "scan" (exact linear scan), "vptree", or "lsh". It answers the
// question benchmarks and docs care about — whether a mode actually
// changes a method's scan — without building an index.
func IndexKind(p Policy, mode MatchMode) string {
	ix, ok := p.(ApproxIndexer)
	if !ok || mode == MatchModeExact {
		return "scan"
	}
	probe := ix.NewClassIndex(mode, &Class{})
	switch probe.(type) {
	case *vpIndex:
		return "vptree"
	case *lshIndex:
		return "lsh"
	default:
		return "scan"
	}
}
