package freelist

import (
	"runtime"
	"sync"
	"testing"
)

func TestGetReusesByLength(t *testing.T) {
	var tabs Tables[int]
	a := tabs.Get(4)
	for i := range a {
		a[i] = i + 1
	}
	tabs.Put(a)
	if b := tabs.Get(8); len(b) != 8 || &b[0] == &a[0] {
		t.Fatalf("Get(8) returned the released 4-element table")
	}
	b := tabs.Get(4)
	if &b[0] != &a[0] {
		t.Fatal("Get(4) did not reuse the released 4-element table")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("reused table not zeroed: [%d] = %d", i, v)
		}
	}
	if c := tabs.Get(4); &c[0] == &b[0] {
		t.Fatal("one released table handed out twice")
	}
	tabs.Put(nil) // ignored
	if d := tabs.Get(0); d == nil || len(d) != 0 {
		t.Fatalf("Get(0) = %v, want an empty non-nil table", d)
	}
}

// TestConcurrentGetPut: workers sharing one list never receive the same
// table at the same time (run under -race).
func TestConcurrentGetPut(t *testing.T) {
	var tabs Tables[int]
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tab := tabs.Get(16)
				for j := range tab {
					if tab[j] != 0 {
						t.Errorf("worker %d got a table in use or not zeroed", w)
						return
					}
					tab[j] = w
				}
				tabs.Put(tab)
			}
		}()
	}
	wg.Wait()
}

func TestBytesGetWithinFactorOfTwo(t *testing.T) {
	var bufs Bytes
	big := make([]byte, 1000)
	bufs.Put(big)
	if b := bufs.Get(400); cap(b) != 400 {
		t.Fatalf("Get(400) returned capacity %d, want a new 400-byte buffer (1000 is over twice 400)", cap(b))
	}
	if b := bufs.Get(2001); cap(b) != 2001 {
		t.Fatalf("Get(2001) returned capacity %d, want a new buffer (1000 is under half of 2001)", cap(b))
	}
	b := bufs.Get(600)
	if len(b) != 0 || cap(b) != 1000 || &b[:1][0] != &big[0] {
		t.Fatalf("Get(600) = len %d cap %d, want the empty retained 1000-byte buffer", len(b), cap(b))
	}
	if c := bufs.Get(1000); cap(c) != 1000 || &c[:1][0] == &big[0] {
		t.Fatal("one retained buffer handed out twice")
	}
	bufs.Put(nil) // ignored
	if d := bufs.Get(0); cap(d) != 0 {
		t.Fatalf("Get(0) returned capacity %d", cap(d))
	}
}

// TestBytesGetFits: a retained buffer one byte short of n is not handed
// out for Get(n), so a caller reading n bytes never grows it; a retained
// buffer of exactly n is.
func TestBytesGetFits(t *testing.T) {
	var bufs Bytes
	short := make([]byte, 999)
	bufs.Put(short)
	if b := bufs.Get(1000); cap(b) != 1000 || &b[:1][0] == &short[0] {
		t.Fatalf("Get(1000) returned capacity %d, want a new 1000-byte buffer", cap(b))
	}
	if b := bufs.Get(999); cap(b) != 999 || &b[:1][0] != &short[0] {
		t.Fatalf("Get(999) returned capacity %d, want the retained 999-byte buffer", cap(b))
	}
}

// TestBytesNewestFirstAndBounded: Get takes the most recently handed back
// buffer that fits, and the list keeps only the GOMAXPROCS newest buffers.
func TestBytesNewestFirstAndBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var bufs Bytes
	a, b, c := make([]byte, 100), make([]byte, 110), make([]byte, 120)
	bufs.Put(a)
	bufs.Put(b)
	if got := bufs.Get(100); &got[:1][0] != &b[0] {
		t.Fatal("Get did not take the newest fitting buffer")
	}
	bufs.Put(b)
	bufs.Put(c) // a, the oldest, is displaced
	for _, want := range [][]byte{c, b} {
		if got := bufs.Get(100); &got[:1][0] != &want[0] {
			t.Fatalf("got the %d-byte buffer, want the %d-byte one", cap(got), cap(want))
		}
	}
	if got := bufs.Get(100); cap(got) != 100 || &got[:1][0] == &a[0] {
		t.Fatal("the list kept more than GOMAXPROCS buffers")
	}
}
