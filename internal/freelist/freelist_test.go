package freelist

import (
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
