package prebuffer

import (
	"math/rand"
	"testing"

	"clgp/internal/isa"
)

// checkFind asserts that find agrees with a plain model of the allocated
// lines, the line→entry map read off the entry array: each line is held by
// at most one entry, find returns that entry, and it returns -1 for every
// line the model does not hold.
func checkFind(t *testing.T, b *Buffer, lines []isa.Addr) {
	t.Helper()
	held := map[isa.Addr]int{}
	for i := range b.entries {
		if !b.entries[i].allocated {
			continue
		}
		if j, dup := held[b.entries[i].line]; dup {
			t.Fatalf("line %#x held by entries %d and %d", b.entries[i].line, j, i)
		}
		held[b.entries[i].line] = i
	}
	for _, line := range lines {
		want, ok := held[line]
		if !ok {
			want = -1
		}
		if got := b.find(line); got != want {
			t.Fatalf("find(%#x) = %d, model says %d", line, got, want)
		}
	}
}

// findTestSizes are the sizes every configuration builds (4, 8, 16) and two
// odd ones.
var findTestSizes = []int{1, 3, 4, 8, 16}

// churnLines is a working set ~4x the buffer, which forces constant eviction
// churn.
func churnLines(entries int, base isa.Addr) []isa.Addr {
	lines := make([]isa.Addr, 4*entries)
	for i := range lines {
		lines[i] = base + isa.Addr(64*i)
	}
	return lines
}

// TestPrestageIndexMatchesLinearScan churns a prestage buffer through
// randomised Request/Lookup/Invalidate/Reset traffic and checks find, the
// line lookup, against the model read off a linear scan of the entries, and
// each operation's effect on residency, after every step.
func TestPrestageIndexMatchesLinearScan(t *testing.T) {
	for _, entries := range findTestSizes {
		sb, err := NewPrestageBuffer(entries, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(entries)))
		lines := churnLines(entries, 0x1000)
		for op := 0; op < 4000; op++ {
			line := lines[rng.Intn(len(lines))]
			switch rng.Intn(10) {
			case 0:
				sb.Invalidate(line)
				if sb.Contains(line) {
					t.Fatalf("entries %d op %d: %#x resident after Invalidate", entries, op, line)
				}
			case 1:
				sb.Fill(line)
			case 2:
				sb.Lookup(line)
			case 3:
				if rng.Intn(50) == 0 {
					sb.Reset()
					if sb.Occupancy() != 0 {
						t.Fatalf("entries %d op %d: %d entries allocated after Reset", entries, op, sb.Occupancy())
					}
				}
			case 4:
				// Drain consumers so entries become replaceable again.
				sb.ResetConsumers()
			default:
				if alreadyIn, allocated := sb.Request(line); (alreadyIn || allocated) != sb.Contains(line) {
					t.Fatalf("entries %d op %d: Request(%#x) = %v, %v but Contains = %v", entries, op, line, alreadyIn, allocated, sb.Contains(line))
				}
			}
			checkFind(t, &sb.Buffer, lines)
		}
	}
}

// TestPrefetchIndexMatchesLinearScan is the same churn over the FDP-style
// prefetch buffer (Allocate/Lookup/Invalidate semantics).
func TestPrefetchIndexMatchesLinearScan(t *testing.T) {
	for _, entries := range findTestSizes {
		pb, err := NewPrefetchBuffer(entries, 1)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + entries)))
		lines := churnLines(entries, 0x40000)
		for op := 0; op < 4000; op++ {
			line := lines[rng.Intn(len(lines))]
			switch rng.Intn(8) {
			case 0:
				pb.Invalidate(line)
				if pb.Contains(line) {
					t.Fatalf("entries %d op %d: %#x resident after Invalidate", entries, op, line)
				}
			case 1:
				pb.Fill(line)
			case 2:
				pb.Lookup(line)
			case 3:
				if rng.Intn(50) == 0 {
					pb.Reset()
					if pb.Occupancy() != 0 {
						t.Fatalf("entries %d op %d: %d entries allocated after Reset", entries, op, pb.Occupancy())
					}
				}
			default:
				was := pb.Contains(line)
				if pb.Allocate(line) && was {
					t.Fatalf("entries %d op %d: Allocate(%#x) claimed a second entry", entries, op, line)
				}
			}
			checkFind(t, &pb.Buffer, lines)
		}
	}
}
