package blob

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestCheckKey(t *testing.T) {
	for _, key := range []string{"manifest.json", "shards/shard-000-gzip.jsonl", "snapshots/a-b-c100.clgs", "x.123"} {
		if err := CheckKey(key); err != nil {
			t.Errorf("CheckKey(%q) = %v, want ok", key, err)
		}
	}
	for _, key := range []string{"", "/abs", "../escape", "a/../../b", "a//b", "a/", ".", "..", "./a", `a\b`, "shards/x.jsonl.tmp"} {
		if err := CheckKey(key); err == nil {
			t.Errorf("CheckKey(%q) accepted a bad key", key)
		}
	}
}

func TestDirVerbs(t *testing.T) {
	d := Dir(filepath.Join(t.TempDir(), "root"))
	if _, err := d.Get("a/x"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing object: %v, want os.ErrNotExist", err)
	}
	if ok, err := d.Head("a/x"); ok || err != nil {
		t.Fatalf("Head of a missing object = (%v, %v)", ok, err)
	}
	if keys, err := d.List(""); len(keys) != 0 || err != nil {
		t.Fatalf("List of a missing root = (%v, %v)", keys, err)
	}
	for _, key := range []string{"a/x", "a/y", "b/z", "top"} {
		if err := d.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Put("a/x", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get("a/x"); err != nil || string(got) != "replaced" {
		t.Errorf("Get after replace = (%q, %v)", got, err)
	}
	if ok, err := d.Head("b/z"); !ok || err != nil {
		t.Errorf("Head of a committed object = (%v, %v)", ok, err)
	}
	for prefix, want := range map[string][]string{
		"":    {"a/x", "a/y", "b/z", "top"},
		"a/":  {"a/x", "a/y"},
		"a/y": {"a/y"},
		"t":   {"top"},
		"c/":  {},
	} {
		got, err := d.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("List(%q) = %v, want %v", prefix, got, want)
		}
	}
	if err := d.Delete("a/x"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("a/x"); err != nil {
		t.Errorf("deleting an absent object: %v", err)
	}
	if ok, _ := d.Head("a/x"); ok {
		t.Errorf("object survived Delete")
	}
	if err := d.Put("../escape", nil); err == nil {
		t.Errorf("Put outside the root accepted")
	}
}

// TestDirCommitsRaceToWholeObjects: concurrent Puts of one key all succeed,
// a concurrent List only ever reports the key itself (never a temporary's
// own name), and what is left is one whole object with no temporaries.
func TestDirCommitsRaceToWholeObjects(t *testing.T) {
	d := Dir(t.TempDir())
	bodies := [][]byte{[]byte("first body"), []byte("second, longer body")}
	var wg sync.WaitGroup
	errs := make(chan error, 4*50)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				errs <- d.Put("s/obj", body)
			}
		}(bodies[g%2])
	}
	stop := make(chan struct{})
	listed := make(chan error, 1)
	go func() {
		defer close(listed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			keys, err := d.List("s/")
			if err == nil && len(keys) > 0 && !reflect.DeepEqual(keys, []string{"s/obj"}) {
				err = errors.New("List returned " + keys[0])
			}
			if err != nil {
				listed <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-listed; err != nil {
		t.Error(err)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent Put: %v", err)
		}
	}
	got, err := d.Get("s/obj")
	if err != nil || (string(got) != string(bodies[0]) && string(got) != string(bodies[1])) {
		t.Errorf("object after the race = (%q, %v), want one whole body", got, err)
	}
	ents, err := os.ReadDir(filepath.Join(string(d), "s"))
	if err != nil || len(ents) != 1 {
		t.Errorf("directory after the race holds %d entries (%v), want the object alone", len(ents), err)
	}
}

// TestDirTemporaries: temporaries, whether a dead writer's or one still in
// flight, are never listed and never deleted with their key; RemoveTemps
// reclaims them and nothing else.
func TestDirTemporaries(t *testing.T) {
	d := Dir(t.TempDir())
	if err := d.Put("s/done", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"done.99.tmp", "lost.123.tmp", "legacy.jsonl.tmp"} {
		if err := os.WriteFile(filepath.Join(string(d), "s", name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if keys, err := d.List("s/"); err != nil || !reflect.DeepEqual(keys, []string{"s/done"}) {
		t.Fatalf("List = (%v, %v), want the committed object alone", keys, err)
	}
	if err := d.Delete("s/done"); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(filepath.Join(string(d), "s")); len(ents) != 3 {
		t.Errorf("Delete left %d entries, want the 3 temporaries", len(ents))
	}
	if err := d.Put("s/kept", nil); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveTemps("s/"); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(filepath.Join(string(d), "s")); len(ents) != 1 || ents[0].Name() != "kept" {
		t.Errorf("RemoveTemps left %v, want the committed object alone", ents)
	}
}

// TestDirCommittedMode: committed objects are readable by other accounts,
// as the files earlier versions wrote with os.WriteFile were.
func TestDirCommittedMode(t *testing.T) {
	d := Dir(t.TempDir())
	if err := d.Put("a/x", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(string(d), "a", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("committed object has mode %v, want 0644", fi.Mode().Perm())
	}
}

// TestDirListStaysInRoot: a list prefix whose directory part leaves the root
// is refused, not walked.
func TestDirListStaysInRoot(t *testing.T) {
	d := Dir(filepath.Join(t.TempDir(), "root"))
	if err := d.Put("a/x", nil); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"../", "../../etc/", "a/../../", "/", "/etc/", "a//", `a\..\/`} {
		if keys, err := d.List(prefix); !errors.Is(err, ErrBadKey) {
			t.Errorf("List(%q) = (%v, %v), want ErrBadKey", prefix, keys, err)
		}
	}
}
