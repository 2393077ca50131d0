package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
)

// Signature is a content hash of a trace: SHA-256 over the decoded
// events, not the container bytes, so the v1 and v2 encodings of the
// same trace share one signature. It keys the serving layer's
// representative cache — two uploads with equal signatures are the same
// trace regardless of which container they arrived in.
type Signature [sha256.Size]byte

// String returns the signature in lowercase hex.
func (s Signature) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether s is the zero signature (no trace hashed).
func (s Signature) IsZero() bool { return s == Signature{} }

// ParseSignature parses the hex form produced by Signature.String.
func ParseSignature(text string) (Signature, error) {
	var s Signature
	b, err := hex.DecodeString(text)
	if err != nil {
		return s, fmt.Errorf("trace: parsing signature: %w", err)
	}
	if len(b) != len(s) {
		return s, fmt.Errorf("trace: signature is %d hex bytes, want %d", len(b), len(s))
	}
	copy(s[:], b)
	return s, nil
}

// SignatureOf decodes the trace readable from r (either container
// version) and returns its content signature. The hash covers the
// workload name and every rank's events in rank order — name strings
// rather than name-table ids, so table layout differences between
// encodings cannot change the signature.
func SignatureOf(r io.Reader) (Signature, error) {
	return SignatureOfWith(r, DecoderOptions{})
}

// SignatureOfWith is SignatureOf with explicit decoder options (worker
// count, allocation caps, cancellation).
//
// The hashed stream is: the workload name, the rank count, then per rank
// its id and event count followed by each event's name, kind, enter,
// exit, peer, tag, bytes and root. Integers are little-endian uint64s
// (peer, tag and root widened through uint32); strings are their byte
// length as such an integer, then their bytes. The stream is assembled
// in one reusable buffer and handed to the hash in large writes, and
// each rank's event storage goes back to the decoder once hashed, so a
// call's allocations do not grow with the trace's event count.
func SignatureOfWith(r io.Reader, opts DecoderOptions) (Signature, error) {
	var sig Signature
	d, err := NewDecoderWith(r, opts)
	if err != nil {
		return sig, err
	}
	defer d.Close()
	h := sha256.New()
	le := binary.LittleEndian
	buf := make([]byte, 0, signatureFlushAt)
	buf = appendString(buf, d.Name())
	buf = le.AppendUint64(buf, uint64(d.NumRanks()))
	for {
		rt, err := d.NextRank()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sig, err
		}
		buf = le.AppendUint64(buf, uint64(rt.Rank))
		buf = le.AppendUint64(buf, uint64(len(rt.Events)))
		for i := range rt.Events {
			e := &rt.Events[i]
			buf = appendString(buf, e.Name)
			buf = le.AppendUint64(buf, uint64(e.Kind))
			buf = le.AppendUint64(buf, uint64(e.Enter))
			buf = le.AppendUint64(buf, uint64(e.Exit))
			buf = le.AppendUint64(buf, uint64(uint32(e.Peer)))
			buf = le.AppendUint64(buf, uint64(uint32(e.Tag)))
			buf = le.AppendUint64(buf, uint64(e.Bytes))
			buf = le.AppendUint64(buf, uint64(uint32(e.Root)))
			if len(buf) >= signatureFlushAt {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		d.Recycle(rt)
	}
	h.Write(buf)
	h.Sum(sig[:0])
	return sig, nil
}

// signatureFlushAt is how much of the hashed stream SignatureOfWith
// gathers before writing it to the hash. The event that crosses the
// threshold grows the buffer once; the grown buffer is reused for the
// rest of the call.
const signatureFlushAt = 64 << 10

// appendString appends a length-prefixed string, so adjacent strings
// cannot collide by shifting bytes between them.
func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}
