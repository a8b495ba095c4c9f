package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clgp/internal/tracefile"
	"clgp/internal/workload"
)

// TestContainerBytesPinned pins the exact bytes of two recorded mcf
// containers by their SHA-256: one at the default chunk size (a few chunks)
// and one at 4096 records per chunk, so that many chunks are compressed at
// once. Containers already on disk stay valid only while the writer's
// output is unchanged, so a failure here means the bytes moved: bump
// tracefile.Version, update FORMAT.md, and re-pin.
func TestContainerBytesPinned(t *testing.T) {
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		chunkRecords int
		wantLen      int
		wantSum      string
	}{
		{"default-chunks", 0, 331429, "8834b263cfaa3698a0a0f98dbf0e53497128fbf41d812feafeecc7254b5cf8b2"},
		{"4096-record-chunks", 4096, 341038, "d0ab71219060b86bbc18d14d2df6b05feaa2358f7a43572dec4fb794ad92f420"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mcf.clgt")
			if _, err := RecordTrace(p, 200_000, 1, path, tc.chunkRecords); err != nil {
				t.Fatalf("record: %v", err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); len(data) != tc.wantLen || got != tc.wantSum {
				t.Errorf("container is %d bytes with SHA-256 %s, want %d bytes with %s",
					len(data), got, tc.wantLen, tc.wantSum)
			}
		})
	}
}

// TestOpenStreamImageRejectsFingerprintMismatch: a container whose header
// fingerprint differs from what regenerating its (workload, seed) yields
// holds another generation's records, so opening it must fail instead of
// streaming them against the rebuilt image.
func TestOpenStreamImageRejectsFingerprintMismatch(t *testing.T) {
	const insts, seed = 2_000, 7
	p, err := workload.ProfileByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.clgt")
	dict, err := RecordTrace(p, insts, seed, good, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, rd, err := OpenStreamImage(good)
	if err != nil {
		t.Fatalf("opening a faithful recording: %v", err)
	}
	rd.Close()
	if got, want := workload.Fingerprint(p, w.Dict), workload.Fingerprint(p, dict); got != want {
		t.Fatalf("rebuilt image fingerprint %#x, recorded against %#x", got, want)
	}

	bad := filepath.Join(dir, "bad.clgt")
	tw, err := tracefile.Create(bad, tracefile.Options{
		Workload: p.Name, Fingerprint: workload.Fingerprint(p, dict) + 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.GenerateTo(p, insts, seed, tw); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rd, err := OpenStreamImage(bad); err == nil || !strings.Contains(err.Error(), "program image") {
		if rd != nil {
			rd.Close()
		}
		t.Errorf("OpenStreamImage of an off-by-one fingerprint returned %v, want the program-image error", err)
	}
}
