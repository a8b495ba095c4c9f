package prebuffer

import (
	"fmt"
	"testing"

	"clgp/internal/isa"
)

// populatedPrestage builds a full prestage buffer of the given size plus a
// probe set of half-resident, half-absent lines — the fetch stage's actual
// mix of hits and misses.
func populatedPrestage(b *testing.B, entries int) (*PrestageBuffer, []isa.Addr) {
	b.Helper()
	sb, err := NewPrestageBuffer(entries, 1)
	if err != nil {
		b.Fatal(err)
	}
	probes := make([]isa.Addr, 0, 2*entries)
	for i := 0; i < entries; i++ {
		line := isa.Addr(0x1000 + 64*i)
		sb.Request(line)
		sb.Fill(line)
		probes = append(probes, line)                      // resident
		probes = append(probes, line+isa.Addr(64*entries)) // absent
	}
	return sb, probes
}

// BenchmarkBufferFind times the one lookup at each size a configuration
// builds: 4 entries (45 nm), 8 (90 nm) and 16 (pipelined). The miss half of
// the probe set walks every entry. It must report 0 allocs/op.
func BenchmarkBufferFind(b *testing.B) {
	for _, entries := range []int{4, 8, 16} {
		sb, probes := populatedPrestage(b, entries)
		b.Run(fmt.Sprintf("%d", entries), func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += sb.find(probes[i%len(probes)])
			}
			_ = sink
		})
	}
}

// BenchmarkPrestageRequestLookup drives the full Request→Fill→Lookup cycle
// (the CLGP engine's per-line work) at each buffer size with an
// eviction-heavy working set.
func BenchmarkPrestageRequestLookup(b *testing.B) {
	for _, entries := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("%d", entries), func(b *testing.B) {
			sb, err := NewPrestageBuffer(entries, 1)
			if err != nil {
				b.Fatal(err)
			}
			lines := make([]isa.Addr, 3*entries)
			for i := range lines {
				lines[i] = isa.Addr(0x1000 + 64*i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				line := lines[i%len(lines)]
				alreadyIn, allocated := sb.Request(line)
				if allocated {
					sb.Fill(line)
				}
				sb.Lookup(line)
				if !alreadyIn && !allocated {
					sb.ResetConsumers()
				}
			}
		})
	}
}
