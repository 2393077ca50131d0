package segment

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// sameShape is the comparability rule spelled out without signatures:
// same context, same event count, and pairwise SameShape events.
func sameShape(a, b *Segment) bool {
	if a.Context != b.Context || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if !a.Events[i].SameShape(b.Events[i]) {
			return false
		}
	}
	return true
}

// randSegment draws a segment from a deliberately small alphabet so that
// independent draws are often comparable; timings are always random.
func randSegment(rng *rand.Rand) *Segment {
	contexts := []string{"main.1", "main.2", "main.1.1"}
	names := []string{"do_work", "MPI_Send", "MPI_Allreduce", "MPI_Waitall_long_name"}
	s := &Segment{Context: contexts[rng.Intn(len(contexts))], End: rng.Int63n(1000)}
	for n := rng.Intn(3); n > 0; n-- {
		enter := rng.Int63n(500)
		s.Events = append(s.Events, trace.Event{
			Name:  names[rng.Intn(len(names))],
			Kind:  trace.EventKind(rng.Intn(2)),
			Enter: enter,
			Exit:  enter + rng.Int63n(500),
			Peer:  int32(rng.Intn(2)) - 1,
			Tag:   int32(rng.Intn(2)),
			Bytes: int64(rng.Intn(2)) << 33,
			Root:  int32(rng.Intn(2)) - 1,
		})
	}
	return s
}

// retimed returns a copy of s with the same shape and fresh timings.
func retimed(rng *rand.Rand, s *Segment) *Segment {
	c := s.Clone()
	c.ResetSig()
	c.End = rng.Int63n(1000)
	for i := range c.Events {
		c.Events[i].Enter = rng.Int63n(500)
		c.Events[i].Exit = c.Events[i].Enter + rng.Int63n(500)
	}
	return c
}

// TestComparableImpliesEqualSig: over randomized segment pairs, segments
// with the same shape always share a signature, and Comparable agrees
// with the signature-free rule exactly. Half the pairs are a segment and
// a retimed copy of it; the rest are independent draws.
func TestComparableImpliesEqualSig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	comparable := 0
	for i := 0; i < 20000; i++ {
		a, b := randSegment(rng), randSegment(rng)
		if i%2 == 0 {
			b = retimed(rng, a)
		}
		want := sameShape(a, b)
		if got := a.Comparable(b); got != want {
			t.Fatalf("pair %d: Comparable = %v, shape rule says %v\na=%+v\nb=%+v", i, got, want, a, b)
		}
		if want {
			comparable++
			if a.Sig() != b.Sig() {
				t.Fatalf("pair %d: comparable segments have signatures %x and %x", i, a.Sig(), b.Sig())
			}
		}
	}
	if comparable < 10000 {
		t.Fatalf("only %d of the random pairs were comparable; the test exercises too little", comparable)
	}
}

// TestSigSeparatesEveryIdentityField: changing exactly one identity field
// of a segment changes its signature, for every field the signature
// covers; changing timings does not.
func TestSigSeparatesEveryIdentityField(t *testing.T) {
	base := func() *Segment {
		return &Segment{Context: "main.1", End: 90, Events: []trace.Event{
			{Name: "do_work", Kind: trace.KindCompute, Enter: 1, Exit: 20, Peer: trace.NoPeer, Root: trace.NoPeer},
			{Name: "MPI_Allreduce_00", Kind: trace.KindAllreduce, Enter: 21, Exit: 40,
				Peer: trace.NoPeer, Bytes: 8, Root: trace.NoPeer},
			{Name: "MPI_Send", Kind: trace.KindSend, Enter: 41, Exit: 60, Peer: 3, Tag: 7, Bytes: 1 << 12, Root: trace.NoPeer},
		}}
	}
	cases := []struct {
		name string
		edit func(s *Segment)
	}{
		{"context", func(s *Segment) { s.Context = "main.2" }},
		{"event count", func(s *Segment) { s.Events = s.Events[:2] }},
		{"short name", func(s *Segment) { s.Events[0].Name = "do_wirk" }},
		{"name length", func(s *Segment) { s.Events[0].Name = "do_work\x00" }},
		{"long name byte 9", func(s *Segment) { s.Events[1].Name = "MPI_AllrEduce_00" }},
		{"long name last byte", func(s *Segment) { s.Events[1].Name = "MPI_Allreduce_01" }},
		{"long name first byte", func(s *Segment) { s.Events[1].Name = "mPI_Allreduce_00" }},
		{"kind", func(s *Segment) { s.Events[2].Kind = trace.KindSsend }},
		{"peer", func(s *Segment) { s.Events[2].Peer = 4 }},
		{"tag", func(s *Segment) { s.Events[2].Tag = 8 }},
		{"root", func(s *Segment) { s.Events[1].Root = 0 }},
		{"bytes above bit 32", func(s *Segment) { s.Events[2].Bytes += 1 << 40 }},
		{"events swapped", func(s *Segment) { s.Events[0], s.Events[1] = s.Events[1], s.Events[0] }},
	}
	want := base().Sig()
	seen := map[Signature]string{want: "base"}
	for _, c := range cases {
		s := base()
		c.edit(s)
		got := s.Sig()
		if got == want {
			t.Errorf("%s: signature unchanged (%x)", c.name, got)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: signature %x collides with %s", c.name, got, prev)
		}
		seen[got] = c.name
	}
	slower := base()
	slower.End = 1000
	slower.Events[0].Enter, slower.Events[0].Exit = 5, 500
	if got := slower.Sig(); got != want {
		t.Errorf("timings changed the signature: %x, want %x", got, want)
	}
}

// TestSigNameBytePositions: two names of the same length that differ in
// any one byte — including bytes past the first 8-byte word — hash
// differently.
func TestSigNameBytePositions(t *testing.T) {
	const name = "MPI_Neighbor_alltoall"
	one := func(n string) *Segment {
		return &Segment{Context: "c", Events: []trace.Event{{Name: n, Kind: trace.KindCompute}}}
	}
	want := one(name).Sig()
	for i := range len(name) {
		b := []byte(name)
		b[i] ^= 0x20
		if got := one(string(b)).Sig(); got == want {
			t.Errorf("flipping name byte %d leaves the signature at %x", i, got)
		}
	}
}
