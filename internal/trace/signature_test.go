package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"
)

// sigJitter is a tiny deterministic generator for the signature shapes'
// timing noise, so the fixtures never depend on math/rand's stream.
type sigJitter uint64

func (j *sigJitter) next(n int64) Time {
	*j = *j*6364136223846793005 + 1442695040888963407
	return Time(uint64(*j)>>33) % n
}

// ntonShape mimics the NtoN interference workloads: every rank sends to
// and receives from every other rank each iteration, then a barrier.
func ntonShape() *Trace {
	const ranks, iters = 8, 5
	t := New("NtoN_shape", ranks)
	j := sigJitter(7)
	for r := range t.Ranks {
		rt := &t.Ranks[r]
		now := Time(0)
		ev := func(name string, k EventKind, dur Time, peer, tag int32, nb int64, root int32) {
			rt.Events = append(rt.Events, Event{Name: name, Kind: k, Enter: now, Exit: now + dur,
				Peer: peer, Tag: tag, Bytes: nb, Root: root})
			now += dur + 1
		}
		for it := 0; it < iters; it++ {
			ev("main.1", KindMarkBegin, 0, NoPeer, 0, 0, NoPeer)
			ev("do_work", KindCompute, 400+j.next(50), NoPeer, 0, 0, NoPeer)
			for p := int32(0); p < ranks; p++ {
				if int(p) != r {
					ev("MPI_Send", KindSend, 3+j.next(4), p, int32(it), 4096, NoPeer)
				}
			}
			for p := int32(0); p < ranks; p++ {
				if int(p) != r {
					ev("MPI_Recv", KindRecv, 5+j.next(30), p, int32(it), 4096, NoPeer)
				}
			}
			ev("MPI_Barrier", KindBarrier, 10+j.next(20), NoPeer, 0, 0, NoPeer)
			ev("main.1", KindMarkEnd, 0, NoPeer, 0, 0, NoPeer)
		}
	}
	return t
}

// sweepShape mimics Sweep3D's wavefront on a 3×3 process grid: receive
// from the upstream neighbours, compute, send downstream, per octant,
// with an allreduce closing each iteration.
func sweepShape() *Trace {
	const px, py, octants = 3, 3, 4
	t := New("sweep3d_shape", px*py)
	j := sigJitter(31)
	for r := range t.Ranks {
		rt := &t.Ranks[r]
		x, y := r%px, r/px
		now := Time(1_000_000 * int64(r)) // large absolute times
		ev := func(name string, k EventKind, dur Time, peer, tag int32, nb int64, root int32) {
			rt.Events = append(rt.Events, Event{Name: name, Kind: k, Enter: now, Exit: now + dur,
				Peer: peer, Tag: tag, Bytes: nb, Root: root})
			now += dur + 2
		}
		for it := 0; it < 2; it++ {
			ev("sweep.iter", KindMarkBegin, 0, NoPeer, 0, 0, NoPeer)
			for o := 0; o < octants; o++ {
				dx, dy := 1-2*(o&1), 1-2*(o>>1&1)
				if ux := x - dx; ux >= 0 && ux < px {
					ev("MPI_Recv", KindRecv, 20+j.next(90), int32(y*px+ux), int32(o), 12000, NoPeer)
				}
				if uy := y - dy; uy >= 0 && uy < py {
					ev("MPI_Recv", KindRecv, 20+j.next(90), int32(uy*px+x), int32(o), 12000, NoPeer)
				}
				ev("sweep_octant", KindCompute, 700+j.next(60), NoPeer, 0, 0, NoPeer)
				if vx := x + dx; vx >= 0 && vx < px {
					ev("MPI_Send", KindSend, 4, int32(y*px+vx), int32(o), 12000, NoPeer)
				}
				if vy := y + dy; vy >= 0 && vy < py {
					ev("MPI_Send", KindSend, 4, int32(vy*px+x), int32(o), 12000, NoPeer)
				}
			}
			ev("MPI_Allreduce", KindAllreduce, 30+j.next(40), NoPeer, 0, 8, NoPeer)
			ev("sweep.iter", KindMarkEnd, 0, NoPeer, 0, 0, NoPeer)
		}
	}
	return t
}

// haloShape mimics the halo_jitter and bursty_io scenario workloads and
// covers the stream's edge cases: a ring halo with heavy jitter, rooted
// collectives, a synchronous send, a name longer than eight bytes with
// multi-byte runes, a payload past 32 bits, a non-dense rank id and an
// empty rank.
func haloShape() *Trace {
	const ranks = 6
	t := New("halo_jitter_shape·δ", ranks)
	t.Ranks[4].Rank = 9
	j := sigJitter(1234)
	for r := 0; r < ranks-1; r++ { // the last rank stays empty
		rt := &t.Ranks[r]
		left, right := int32((r+ranks-2)%(ranks-1)), int32((r+1)%(ranks-1))
		now := Time(50)
		ev := func(name string, k EventKind, dur Time, peer, tag int32, nb int64, root int32) {
			rt.Events = append(rt.Events, Event{Name: name, Kind: k, Enter: now, Exit: now + dur,
				Peer: peer, Tag: tag, Bytes: nb, Root: root})
			now += dur + j.next(3)
		}
		for it := 0; it < 4; it++ {
			ev("halo.step", KindMarkBegin, 0, NoPeer, 0, 0, NoPeer)
			ev("stencil_update_interior", KindCompute, 200+j.next(400), NoPeer, 0, 0, NoPeer)
			ev("MPI_Ssend", KindSsend, 6+j.next(9), right, 7, 1<<33, NoPeer)
			ev("MPI_Recv", KindRecv, 6+j.next(200), left, 7, 1<<33, NoPeer)
			ev("MPI_Bcast", KindBcast, 12+j.next(5), NoPeer, 0, 64, 0)
			ev("write_checkpoint_größe", KindCompute, 1+j.next(2000), NoPeer, 0, 0, NoPeer)
			ev("MPI_Gather", KindGather, 9+j.next(11), NoPeer, 0, 256, 2)
			ev("halo.step", KindMarkEnd, 0, NoPeer, 0, 0, NoPeer)
		}
	}
	return t
}

// specSignature hashes t's content exactly as docs/SERVICE.md specifies
// the signature stream, one field at a time with no buffering: the
// workload name, the rank count, then per rank its id, its event count
// and each event's name, kind, enter, exit, peer, tag, bytes and root.
// Every integer is a little-endian uint64 (peer, tag and root through
// uint32, so NoPeer hashes as 0xFFFFFFFF); every string is its byte
// length followed by its bytes.
func specSignature(t *Trace) Signature {
	h := sha256.New()
	u64 := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	str := func(s string) { u64(uint64(len(s))); h.Write([]byte(s)) }
	str(t.Name)
	u64(uint64(len(t.Ranks)))
	for _, rt := range t.Ranks {
		u64(uint64(rt.Rank))
		u64(uint64(len(rt.Events)))
		for _, e := range rt.Events {
			str(e.Name)
			u64(uint64(e.Kind))
			u64(uint64(e.Enter))
			u64(uint64(e.Exit))
			u64(uint64(uint32(e.Peer)))
			u64(uint64(uint32(e.Tag)))
			u64(uint64(e.Bytes))
			u64(uint64(uint32(e.Root)))
		}
	}
	var s Signature
	h.Sum(s[:0])
	return s
}

// signatureInput opens one encoding of a trace for SignatureOf.
type signatureInput struct {
	path string
	open func() io.Reader
}

// signatureInputs encodes tr both ways and returns the three decode
// paths a signature can take: v1, v2 on the block-parallel ReaderAt
// path and v2 on the stream-only path.
func signatureInputs(t *testing.T, tr *Trace) []signatureInput {
	t.Helper()
	var v1 bytes.Buffer
	if err := Encode(&v1, tr); err != nil {
		t.Fatal(err)
	}
	v2 := encodeV2Bytes(t, tr)
	return []signatureInput{
		{"v1", func() io.Reader { return bytes.NewReader(v1.Bytes()) }},
		{"v2-readerat", func() io.Reader { return bytes.NewReader(v2) }},
		{"v2-stream", func() io.Reader { return streamOnly{bytes.NewReader(v2)} }},
	}
}

// TestSignatureGolden pins signature values: they are returned to
// service clients in X-Tracered-Signature and address /v1/analyze, so
// any change to the hashed stream breaks every stored reference. Each
// trace is hashed from its v1 container, its v2 container on the
// block-parallel ReaderAt path and its v2 container on the stream-only
// path, and must also equal the field-at-a-time spec hash.
func TestSignatureGolden(t *testing.T) {
	for _, tc := range []struct {
		tr   *Trace
		want string
	}{
		{goldenTrace(), "301531c8bb8cd120f35716b6606360a8ef177b4215d6041f2807c00ede491018"},
		{ntonShape(), "14e16a0aa67c85f7cfcb53c27b496d89a34d4317de7667d807b0e06e72ba5e55"},
		{sweepShape(), "d08c43e4973bdea690e553d0d692bb9cf49152e85ed01c664b011afc03bfe12c"},
		{haloShape(), "7db8ec3f1e4b2dd4564ed689b77ab48f0bb412173003726d981fb11d95bc560a"},
	} {
		t.Run(tc.tr.Name, func(t *testing.T) {
			if got := specSignature(tc.tr).String(); got != tc.want {
				t.Errorf("spec signature = %s, want %s", got, tc.want)
			}
			for _, in := range signatureInputs(t, tc.tr) {
				sig, err := SignatureOf(in.open())
				if err != nil {
					t.Fatalf("%s: SignatureOf: %v", in.path, err)
				}
				if got := sig.String(); got != tc.want {
					t.Errorf("%s: signature = %s, want %s", in.path, got, tc.want)
				}
			}
		})
	}
}

// scaledShape returns an NtoN-like trace whose ranks each carry
// iters iterations of the same event pattern.
func scaledShape(iters int) *Trace {
	t := New(fmt.Sprintf("scaled_%d", iters), 4)
	for r := range t.Ranks {
		rt := &t.Ranks[r]
		now := Time(0)
		for it := 0; it < iters; it++ {
			for _, e := range []Event{
				{Name: "main.1", Kind: KindMarkBegin, Peer: NoPeer, Root: NoPeer},
				{Name: "do_work", Kind: KindCompute, Exit: 40, Peer: NoPeer, Root: NoPeer},
				{Name: "MPI_Send", Kind: KindSend, Exit: 3, Peer: int32((r + 1) % 4), Tag: 1, Bytes: 512, Root: NoPeer},
				{Name: "MPI_Recv", Kind: KindRecv, Exit: 9, Peer: int32((r + 3) % 4), Tag: 1, Bytes: 512, Root: NoPeer},
				{Name: "main.1", Kind: KindMarkEnd, Peer: NoPeer, Root: NoPeer},
			} {
				e.Enter, e.Exit = now, now+e.Exit
				rt.Events = append(rt.Events, e)
				now = e.Exit + 1
			}
		}
	}
	return t
}

// TestSignatureOfAllocsIndependentOfEvents: hashing costs a fixed number
// of allocations per call, whatever the number of events — the hashed
// stream is built in one reusable buffer and each rank's event storage
// goes back to the decoder. Both traces fill the 64 KiB flush buffer at
// least once, so each pays its one-off growth; a trace whose whole
// stream fits in the buffer allocates one less.
//
// The v1 path is sequential, so its counts must match exactly. On the
// block-parallel v2 path a worker may decode the next block before the
// consumer recycles the previous rank's events, and whether it does
// depends on scheduling, so there the counts may differ by at most one
// buffer per rank. The stream-only v2 path is not covered: its block
// reader (ReadBlock) grows a bytes.Buffer per block, whose allocation
// count follows the payload size.
func TestSignatureOfAllocsIndependentOfEvents(t *testing.T) {
	small, large := scaledShape(60), scaledShape(600)
	smallIn, largeIn := signatureInputs(t, small), signatureInputs(t, large)
	allocs := func(in signatureInput, want Signature) float64 {
		return testing.AllocsPerRun(20, func() {
			sig, err := SignatureOf(in.open())
			if err != nil || sig != want {
				t.Fatalf("%s: SignatureOf = %s, %v; want %s", in.path, sig, err, want)
			}
		})
	}
	for i := range smallIn {
		path := smallIn[i].path
		slack := 0.0
		switch path {
		case "v2-stream":
			continue
		case "v2-readerat":
			slack = float64(small.NumRanks())
		}
		a := allocs(smallIn[i], specSignature(small))
		b := allocs(largeIn[i], specSignature(large))
		if math.Abs(a-b) > slack {
			t.Errorf("%s: allocs per SignatureOf: %v for %d events per rank, %v for %d (slack %v)", path,
				a, len(small.Ranks[0].Events), b, len(large.Ranks[0].Events), slack)
		}
	}
}
