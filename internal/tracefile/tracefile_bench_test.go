package tracefile

import (
	"bytes"
	"io"
	"testing"

	"clgp/internal/trace"
)

// benchRecords is sized so the encode loop spans several chunks per
// iteration batch without dominating benchmark setup time.
func benchRecords(b *testing.B) []trace.Record {
	return testRecords(b, 100_000, 13)
}

// BenchmarkEncode writes its 100K records in 8192-record chunks, so one
// container spans 13 chunks and the concurrent chunk compression shows.
func BenchmarkEncode(b *testing.B) {
	recs := benchRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWriter(io.Discard, Options{Workload: "gcc", ChunkRecords: 8192})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs)))
}

func BenchmarkDecode(b *testing.B) {
	recs := benchRecords(b)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Options{Workload: "gcc"})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]trace.Record, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pos := 0; pos < rd.Len(); {
			n, err := rd.ReadRecordsAt(pos, dst)
			if err != nil {
				b.Fatal(err)
			}
			pos += n
		}
	}
	b.SetBytes(int64(len(recs)))
}
