package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// parseNames is the name table the record-level tests decode against.
var parseNames = []string{"main.1", "do_work", "MPI_Send"}

// rawEventV2 encodes one v2 event record field by field, with no range
// checks, so tests can build records the encoder would never write.
func rawEventV2(nameID, kind uint64, dEnter, dur, peer, tag, nbytes, root int64) []byte {
	b := binary.AppendUvarint(nil, nameID)
	b = binary.AppendUvarint(b, kind)
	for _, v := range []int64{dEnter, dur, peer, tag, nbytes, root} {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// validEventsV2 encodes n well-formed records with multi-byte fields.
func validEventsV2(n int) []byte {
	var b []byte
	for i := range n {
		b = append(b, rawEventV2(uint64(i%len(parseNames)), uint64(KindSend), 1000+int64(i), 250, 3, 7, 1<<20, -1)...)
	}
	return b
}

// hostileEventV2 is one malformed record and the error it must produce.
type hostileEventV2 struct {
	name string
	rec  []byte
	want string
}

// hostileEventsV2 lists a record for every anomaly the fast path hands to
// the general path.
func hostileEventsV2() []hostileEventV2 {
	overlong := append(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64), 0x01)
	overflow := append(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64-1), 0x02)
	tail := rawEventV2(0, 0, 0, 0, 0, 0, 0, 0)[2:] // six one-byte zero fields
	return []hostileEventV2{
		{"overlong name id", append(append(overlong, 0), tail...), "overlong varint"},
		{"overflowing enter delta", append(append([]byte{1, 0}, overflow...), tail[1:]...), "overlong varint"},
		{"name id out of range", rawEventV2(uint64(len(parseNames)), 0, 0, 0, 0, 0, 0, 0), "name id 3 out of range"},
		{"kind out of range", rawEventV2(1, uint64(numKinds), 0, 0, 0, 0, 0, 0), "unknown event kind"},
		{"peer overflows int32", rawEventV2(1, 0, 0, 0, math.MaxInt32+1, 0, 0, 0), "peer value 2147483648 overflows int32"},
		{"tag overflows int32", rawEventV2(1, 0, 0, 0, 0, math.MinInt32-1, 0, 0), "tag value -2147483649 overflows int32"},
		{"root overflows int32", rawEventV2(1, 0, 0, 0, 0, 0, 0, math.MaxInt32+1), "root value 2147483648 overflows int32"},
	}
}

// hostilePayloadsV2 places h after a valid prefix, once followed by
// enough valid records that h is read through the fast path, once at
// the payload tail where only the general path runs. It returns both
// payloads with their record counts and the offset of h.
func hostilePayloadsV2(h hostileEventV2) (fast, tail []byte, nFast, nTail uint32, at int) {
	const nPrefix, nSuffix = 3, 12
	prefix := validEventsV2(nPrefix)
	tail = append(append([]byte(nil), prefix...), h.rec...)
	fast = append(append([]byte(nil), tail...), validEventsV2(nSuffix)...)
	return fast, tail, nPrefix + 1 + nSuffix, nPrefix + 1, len(prefix)
}

// TestParseEventsV2FastGeneralAgree: every hostile record is rejected
// with the same error whether it sits far from the payload end (fast
// path, which must decline it and leave the cursor in place) or at the
// tail (general path only).
func TestParseEventsV2FastGeneralAgree(t *testing.T) {
	for _, h := range hostileEventsV2() {
		t.Run(h.name, func(t *testing.T) {
			fast, tail, nFast, nTail, at := hostilePayloadsV2(h)
			if len(fast)-at < maxEventV2Size || len(tail)-at >= maxEventV2Size {
				t.Fatalf("record placement wrong: %d and %d bytes from the end", len(fast)-at, len(tail)-at)
			}
			c := NewCursor(fast)
			c.off = at
			var ev Event
			if c.eventFast(parseNames, 0, &ev) || c.off != at {
				t.Fatalf("fast path accepted the record (cursor %d, want %d)", c.off, at)
			}
			_, errFast := ParseEventsV2(NewCursor(fast), parseNames, nFast)
			_, errTail := ParseEventsV2(NewCursor(tail), parseNames, nTail)
			if errFast == nil || errTail == nil {
				t.Fatalf("want errors, got fast=%v tail=%v", errFast, errTail)
			}
			if errFast.Error() != errTail.Error() {
				t.Fatalf("paths disagree:\n fast: %v\n tail: %v", errFast, errTail)
			}
			if !strings.Contains(errFast.Error(), h.want) {
				t.Fatalf("error %q does not mention %q", errFast, h.want)
			}
		})
	}
}

// TestParseEventsV2FastDecodesLikeGeneral: on well-formed records the
// fast path yields exactly the general path's events and offsets.
func TestParseEventsV2FastDecodesLikeGeneral(t *testing.T) {
	payload := validEventsV2(40)
	payload = append(payload, rawEventV2(2, uint64(KindRecv), -5, 1<<40, math.MinInt32, math.MaxInt32, math.MaxInt64, math.MinInt32)...)
	payload = append(payload, validEventsV2(10)...)
	fast, general := NewCursor(payload), NewCursor(payload)
	var prevF, prevG Time
	for fast.Len() >= maxEventV2Size {
		var ef, eg Event
		if !fast.eventFast(parseNames, prevF, &ef) {
			t.Fatalf("fast path declined a valid record at offset %d", fast.off)
		}
		if err := general.event(parseNames, prevG, &eg); err != nil {
			t.Fatal(err)
		}
		if ef != eg || fast.off != general.off {
			t.Fatalf("fast %+v at %d, general %+v at %d", ef, fast.off, eg, general.off)
		}
		prevF, prevG = ef.Enter, eg.Enter
	}
}

// FuzzParseEventsV2 checks ParseEventsV2Into against a decode that sends
// every record through the general path: both must return the same
// events, consume the same bytes, or fail with the same error. Stale
// contents of the recycled destination must never leak. Run as
//
//	go test -fuzz=FuzzParseEventsV2 -fuzztime=10s ./internal/trace
func FuzzParseEventsV2(f *testing.F) {
	f.Add(validEventsV2(20), uint16(20))
	f.Add(validEventsV2(20), uint16(21))
	for _, h := range hostileEventsV2() {
		fast, tail, nFast, nTail, _ := hostilePayloadsV2(h)
		f.Add(fast, uint16(nFast))
		f.Add(tail, uint16(nTail))
	}
	f.Fuzz(func(t *testing.T, payload []byte, n uint16) {
		stale := []Event{{Name: "stale", Enter: 99}, {Name: "stale", Exit: 7}}
		c := NewCursor(payload)
		got, err := ParseEventsV2Into(c, parseNames, uint32(n), stale)
		if n == 0 || uint64(len(payload)) < uint64(n)*minEventV2Size {
			if err == nil && n != 0 {
				t.Fatal("short payload accepted")
			}
			return
		}
		ref := NewCursor(payload)
		want := make([]Event, n)
		var refErr error
		var prev Time
		for i := range want {
			if refErr = ref.event(parseNames, prev, &want[i]); refErr != nil {
				break
			}
			prev = want[i].Enter
		}
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("errors differ: got %v, general path %v", err, refErr)
		}
		if err != nil {
			return
		}
		if c.off != ref.off || len(got) != len(want) {
			t.Fatalf("consumed %d bytes into %d events, general path %d into %d", c.off, len(got), ref.off, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d: got %+v, general path %+v", i, got[i], want[i])
			}
		}
	})
}
