// Codec benchmarks: the two container versions head to head on a
// mid-size workload — encode and decode (v2 both sequential and
// block-parallel per worker count), the committed size ratio, and the
// pipelined reduce-to-writer path against the batch reduce-then-encode
// path. cmd/benchsnap -suite codec runs the fuller sweep and commits it
// as BENCH_codec.json; these benchmarks are the `go test -bench` view
// of the same comparison.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// benchCodecTrace is the workload the codec benchmarks encode: enough
// ranks for block-parallel decode to have work to spread.
const benchCodecTrace = "sweep3d_32p"

// seqReader hides ReaderAt/Seeker so a v2 decode takes the stream path.
type seqReader struct{ io.Reader }

func BenchmarkCodecEncode(b *testing.B) {
	full, err := sharedRunner(b).Trace(benchCodecTrace)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := trace.Encode(io.Discard, full); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(trace.EncodedSizeV2(full))/float64(trace.EncodedSize(full)), "size-ratio")
		for i := 0; i < b.N; i++ {
			if err := trace.EncodeV2(io.Discard, full); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("v2-parallel-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := trace.EncodeV2With(io.Discard, full, trace.EncoderOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	full, err := sharedRunner(b).Trace(benchCodecTrace)
	if err != nil {
		b.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := trace.Encode(&v1, full); err != nil {
		b.Fatal(err)
	}
	if err := trace.EncodeV2(&v2, full); err != nil {
		b.Fatal(err)
	}
	b.Run("v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(bytes.NewReader(v1.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(seqReader{bytes.NewReader(v2.Bytes())}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("v2-parallel-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := trace.NewDecoderWith(bytes.NewReader(v2.Bytes()),
					trace.DecoderOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := d.NextRank(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				d.Close()
			}
		})
	}
}

func BenchmarkCodecReducedRoundTrip(b *testing.B) {
	full, err := sharedRunner(b).Trace(benchCodecTrace)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.DefaultMethod("avgWave")
	if err != nil {
		b.Fatal(err)
	}
	red, err := core.Reduce(full, p)
	if err != nil {
		b.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := core.EncodeReduced(&v1, red); err != nil {
		b.Fatal(err)
	}
	if err := core.EncodeReducedV2(&v2, red); err != nil {
		b.Fatal(err)
	}
	b.Run("encode-v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := core.EncodeReduced(io.Discard, red); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode-v2", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(v2.Len())/float64(v1.Len()), "size-ratio")
		for i := 0; i < b.N; i++ {
			if err := core.EncodeReducedV2(io.Discard, red); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeReduced(bytes.NewReader(v1.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.DecodeReduced(bytes.NewReader(v2.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineReduce measures the end-to-end TRC2 -> reduce ->
// TRR2 path both ways: batch (stream-reduce into a full Reduced, then
// encode it) against the pipelined ReduceStreamToWriter, which overlaps
// decode, reduction, and encode and never materializes the Reduced.
func BenchmarkPipelineReduce(b *testing.B) {
	full, err := sharedRunner(b).Trace(benchCodecTrace)
	if err != nil {
		b.Fatal(err)
	}
	var trc2 bytes.Buffer
	if err := trace.EncodeV2(&trc2, full); err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := trace.NewDecoder(bytes.NewReader(trc2.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.DefaultMethod("avgWave")
			if err != nil {
				b.Fatal(err)
			}
			red, err := core.ReduceStream(d.Name(), p, d.NextRank)
			if err != nil {
				b.Fatal(err)
			}
			if err := core.EncodeReducedV2With(io.Discard, red, trace.EncoderOptions{}); err != nil {
				b.Fatal(err)
			}
			d.Close()
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := trace.NewDecoder(bytes.NewReader(trc2.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.DefaultMethod("avgWave")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.ReduceStreamToWriter(d.Name(), p, d.NextRank, io.Discard, 2); err != nil {
				b.Fatal(err)
			}
			d.Close()
		}
	})
}

// BenchmarkTraceSignature times the content signature that keys the
// service's representative cache (decode plus SHA-256 over the decoded
// events), for both container versions of an interference workload and
// of Sweep3D. Every /v1/reduce request pays it, cache hits included.
func BenchmarkTraceSignature(b *testing.B) {
	for _, name := range []string{"NtoN_32", "sweep3d_32p"} {
		full, err := sharedRunner(b).Trace(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, enc := range []struct {
			format string
			encode func(io.Writer, *trace.Trace) error
		}{{"v1", trace.Encode}, {"v2", trace.EncodeV2}} {
			var buf bytes.Buffer
			if err := enc.encode(&buf, full); err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+enc.format, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := trace.SignatureOf(bytes.NewReader(buf.Bytes())); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
