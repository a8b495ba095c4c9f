package bus

import (
	"reflect"
	"testing"

	"clgp/internal/snap"
)

// TestSnapshotRoundTrip saves arbiters before any grant and after one
// grant with requests still queued, and loads each into a fresh arbiter: the
// restored one must queue the same requests, hold the same counters, and
// then grant exactly as the saved one does, starting in the cycle of the
// last grant, which both must refuse unless nothing was ever granted.
func TestSnapshotRoundTrip(t *testing.T) {
	fresh := New()
	fresh.Enqueue(Request{From: ReqICache, Tag: 3, Enqueued: 0})
	used := New()
	for i := uint64(0); i < 6; i++ {
		used.Enqueue(Request{From: Requester(i % uint64(numRequesters)), Tag: i, Enqueued: i})
	}
	used.Grant(4)
	for _, tc := range []struct {
		name string
		a    *Arbiter
		// first is whether the first cycle compared may grant: only an
		// arbiter that has never granted has no cycle to refuse.
		first bool
	}{{"before any grant", fresh, true}, {"after a grant", used, false}} {
		a := tc.a
		var e snap.Encoder
		a.Walk(snap.Saver(&e))
		d := snap.NewDecoder(e.Bytes())
		r := New()
		r.Walk(snap.Loader(d))
		if err := d.Err(); err != nil || d.Remaining() != 0 {
			t.Fatalf("%s: load: %v, %d trailing bytes", tc.name, err, d.Remaining())
		}
		if !reflect.DeepEqual(r.Queued(nil), a.Queued(nil)) || r.grants != a.grants ||
			r.conflicts != a.conflicts || r.lastGrant != a.lastGrant {
			t.Fatalf("%s: restored arbiter differs from the saved one", tc.name)
		}
		last := a.lastGrant
		for now := last; now < last+8; now++ {
			want, wantOK := a.Grant(now)
			got, gotOK := r.Grant(now)
			if got != want || gotOK != wantOK || (now == last && gotOK != tc.first) {
				t.Errorf("%s: cycle %d: restored arbiter granted %+v, %v; saved one %+v, %v",
					tc.name, now, got, gotOK, want, wantOK)
			}
		}
	}
}
