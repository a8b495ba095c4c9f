package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"clgp/internal/freelist"
)

func testMeta() Meta {
	return Meta{
		Workload:    "gcc",
		Fingerprint: 0xdeadbeefcafe0123,
		WarmKey:     0x0123456789abcdef,
		TraceLen:    200_000,
		Committed:   100_000,
		Cycle:       412_345,
	}
}

func testContainer() []byte {
	return Seal(testMeta(), func(e *Encoder) {
		e.Tag(0x54534554)
		e.U64(42)
		e.String("payload")
		e.U8(1) // a true bool
	})
}

// sealPayload seals an already-encoded payload verbatim.
func sealPayload(m Meta, payload []byte) []byte {
	return Seal(m, func(e *Encoder) { e.buf = append(e.buf, payload...) })
}

func TestSealOpenRoundtrip(t *testing.T) {
	data := testContainer()
	m, payload, err := Open(data)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if m != testMeta() {
		t.Errorf("meta roundtrip: got %+v, want %+v", m, testMeta())
	}
	d := NewDecoder(payload)
	d.Tag(0x54534554)
	if v := d.U64(); v != 42 {
		t.Errorf("u64 roundtrip: got %d", v)
	}
	if s := d.String(); s != "payload" {
		t.Errorf("string roundtrip: got %q", s)
	}
	if !d.Bool() {
		t.Error("bool roundtrip: got false")
	}
	if d.Err() != nil {
		t.Errorf("decoder error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("%d trailing payload bytes", d.Remaining())
	}
}

// TestSealOneAllocation: a container handed back to freelist.Artifacts is
// the buffer the next Seal of its size encodes into, so that Seal's one
// allocation is its 24-byte encoder header, and the bytes equal a fresh
// container's. With nothing handed back, Seal allocates the container once,
// at the length of the container sealed before it.
func TestSealOneAllocation(t *testing.T) {
	write := func(e *Encoder) {
		for i := 0; i < 4096; i++ {
			e.U64(uint64(i))
		}
	}
	want := append([]byte(nil), Seal(testMeta(), write)...)
	data := Seal(testMeta(), write)
	if cap(data) != len(data) || !bytes.Equal(data, want) {
		t.Fatalf("unrecycled container: length %d, capacity %d, equal %v; want a %d-byte container at its final size",
			len(data), cap(data), bytes.Equal(data, want), len(want))
	}
	if n := testing.AllocsPerRun(10, func() { Seal(testMeta(), write) }); n != 2 {
		t.Errorf("an unrecycled Seal made %v allocations, want 2 (encoder and container)", n)
	}
	for try := 0; try < 3; try++ {
		freelist.Artifacts.Put(data)
		again := Seal(testMeta(), write)
		if &again[0] != &data[0] || !bytes.Equal(again, want) {
			t.Fatalf("try %d: Seal did not reseal the same bytes into the handed-back buffer", try)
		}
		data = again
	}
	n := testing.AllocsPerRun(10, func() {
		freelist.Artifacts.Put(data)
		data = Seal(testMeta(), write)
	})
	if n != 1 {
		t.Errorf("a Seal with its buffer handed back made %v allocations, want 1 (the encoder)", n)
	}
}

// TestOpenRejectsEveryTruncation feeds Open every strict prefix of a valid
// container: all must fail, none may panic.
func TestOpenRejectsEveryTruncation(t *testing.T) {
	data := testContainer()
	for n := 0; n < len(data); n++ {
		if _, _, err := Open(data[:n]); err == nil {
			t.Errorf("accepted a %d-byte prefix of a %d-byte container", n, len(data))
		}
	}
}

// TestOpenRejectsEveryByteFlip flips each byte of a valid container in turn:
// magic damage must surface as ErrBadMagic, version damage as ErrBadVersion,
// anything else as a checksum failure.
func TestOpenRejectsEveryByteFlip(t *testing.T) {
	data := testContainer()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		_, _, err := Open(mut)
		switch {
		case err == nil:
			t.Fatalf("accepted container with byte %d flipped", i)
		case i < 4 && !errors.Is(err, ErrBadMagic):
			t.Errorf("magic byte %d flip: got %v, want ErrBadMagic", i, err)
		case i >= 4 && i < 8 && !errors.Is(err, ErrBadVersion):
			t.Errorf("version byte %d flip: got %v, want ErrBadVersion", i, err)
		case i >= 8 && !errors.Is(err, ErrCorrupt):
			t.Errorf("byte %d flip: got %v, want ErrCorrupt", i, err)
		}
	}
}

// TestOpenRejectsFutureVersion re-seals a container with a bumped version and
// a recomputed (valid) checksum: the version pin must still reject it.
func TestOpenRejectsFutureVersion(t *testing.T) {
	data := append([]byte(nil), testContainer()...)
	binary.LittleEndian.PutUint32(data[4:], Version+1)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, castagnoliTable))
	if _, _, err := Open(data); !errors.Is(err, ErrBadVersion) {
		t.Errorf("future version: got %v, want ErrBadVersion", err)
	}
}

// TestOpenRejectsPayloadLengthLie corrupts the payload length field and
// re-seals with a valid checksum: the length/framing cross-check must catch
// the disagreement.
func TestOpenRejectsPayloadLengthLie(t *testing.T) {
	data := testContainer()
	// The payload length sits after magic, version and the length-prefixed
	// meta block.
	metaLen := binary.LittleEndian.Uint32(data[8:])
	off := 8 + 4 + int(metaLen)
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(mut[off:], binary.LittleEndian.Uint64(mut[off:])+1)
	body := mut[:len(mut)-4]
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.Checksum(body, castagnoliTable))
	if _, _, err := Open(mut); !errors.Is(err, ErrCorrupt) {
		t.Errorf("payload length lie: got %v, want ErrCorrupt", err)
	}
}

func TestDecoderStrictness(t *testing.T) {
	t.Run("bool", func(t *testing.T) {
		d := NewDecoder([]byte{2})
		d.Bool()
		if d.Err() == nil {
			t.Error("bool byte 2 accepted")
		}
	})
	t.Run("tag", func(t *testing.T) {
		var e Encoder
		e.Tag(1)
		d := NewDecoder(e.Bytes())
		d.Tag(2)
		if d.Err() == nil {
			t.Error("tag mismatch accepted")
		}
	})
	t.Run("count", func(t *testing.T) {
		var e Encoder
		e.Int(1000)
		d := NewDecoder(e.Bytes())
		if n := d.Count(10); n != 0 || d.Err() == nil {
			t.Errorf("count over limit: got %d, err %v", n, d.Err())
		}
		var neg Encoder
		neg.Int(-1)
		d = NewDecoder(neg.Bytes())
		if n := d.Count(10); n != 0 || d.Err() == nil {
			t.Errorf("negative count: got %d, err %v", n, d.Err())
		}
	})
	t.Run("sticky", func(t *testing.T) {
		d := NewDecoder(nil)
		d.U64() // latches truncation
		first := d.Err()
		if first == nil {
			t.Fatal("read past end did not latch")
		}
		d.Failf("later failure")
		if d.Err() != first {
			t.Error("later Failf replaced the first latched error")
		}
		if d.U32() != 0 || d.String() != "" || d.Bool() {
			t.Error("reads after a latched error returned non-zero values")
		}
	})
	t.Run("raw-huge-length", func(t *testing.T) {
		var e Encoder
		e.U32(1 << 30) // length prefix far beyond the data
		d := NewDecoder(e.Bytes())
		if b := d.Raw(); b != nil || d.Err() == nil {
			t.Error("oversized raw length accepted")
		}
	})
}

// FuzzSnapshotOpen asserts Open never panics and never claims success on
// malformed containers that fail its own framing invariants.
func FuzzSnapshotOpen(f *testing.F) {
	f.Add(testContainer())
	f.Add([]byte{})
	f.Add([]byte("CLGS"))
	trunc := testContainer()
	f.Add(trunc[:len(trunc)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, payload, err := Open(data)
		if err != nil {
			return
		}
		// A container Open accepts must re-seal to the identical bytes.
		if got := sealPayload(m, payload); string(got) != string(data) {
			t.Errorf("accepted container does not round-trip: %d bytes in, %d out", len(data), len(got))
		}
	})
}
