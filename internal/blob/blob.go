// Package blob is the byte-object layer the sweep store and the warm-state
// snapshot cache are built on: whole objects under flat slash-separated
// keys, reached through five verbs (get, put, head, delete, list-by-prefix).
// Dir implements them over files under a root directory and holds the
// codebase's one atomic commit: every object is written to a unique
// temporary file and renamed into place, so a reader sees either the
// previous object or the whole new one, and concurrent writers of one key
// all succeed with the last rename winning whole.
package blob

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"

	"clgp/internal/freelist"
)

// tmpSuffix ends every temporary file name; CheckKey reserves it, so no
// committed object can be mistaken for a temporary or the other way round.
const tmpSuffix = ".tmp"

// ErrBadKey is wrapped by the error of every verb given a key (or list
// prefix) that CheckKey refuses.
var ErrBadKey = errors.New("blob: bad key")

// CheckKey validates an object key: a clean relative path that does not end
// in the temporary-file suffix.
func CheckKey(key string) error {
	if !cleanRel(key) || strings.HasSuffix(key, tmpSuffix) {
		return fmt.Errorf("%w %q", ErrBadKey, key)
	}
	return nil
}

// cleanRel reports whether p is relative, slash-separated and already clean:
// no "." or ".." segments, no doubled or trailing slashes, no backslashes.
func cleanRel(p string) bool {
	return p != "" && !strings.HasPrefix(p, "/") && !strings.Contains(p, "\\") &&
		path.Clean(p) == p && p != "." && p != ".." && !strings.HasPrefix(p, "../")
}

// Dir stores objects as files under a root directory: key k is the file
// root/k. The root and any subdirectories are created on first Put.
type Dir string

func (d Dir) file(key string) (string, error) {
	if err := CheckKey(key); err != nil {
		return "", err
	}
	return filepath.Join(string(d), filepath.FromSlash(key)), nil
}

// Get returns the object under key; the error wraps os.ErrNotExist when
// there is none. It reads the object into a buffer from freelist.Artifacts;
// the buffer belongs to the caller, who may hand it back there once done
// with it.
func (d Dir) Get(key string) ([]byte, error) {
	file, err := d.file(key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// Objects are committed by rename and never written in place, so the
	// open file keeps the size it has now.
	n := int(fi.Size())
	data := freelist.Artifacts.Get(n)[:n]
	if _, err := io.ReadFull(f, data); err != nil {
		freelist.Artifacts.Put(data)
		return nil, err
	}
	return data, nil
}

// Put commits data under key, replacing any previous object. Each call
// writes its own temporary file beside the object and renames it into
// place, so concurrent Puts of one key all succeed and the last wins whole.
func (d Dir) Put(key string, data []byte) error {
	file, err := d.file(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(file)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf, err := os.CreateTemp(dir, filepath.Base(file)+".*"+tmpSuffix)
	if err != nil {
		return err
	}
	// CreateTemp makes the file owner-only; committed objects are 0644 so
	// other accounts sharing the directory can read them.
	if err = tf.Chmod(0o644); err == nil {
		_, err = tf.Write(data)
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tf.Name(), file)
	}
	if err != nil {
		os.Remove(tf.Name())
	}
	return err
}

// Head reports whether an object exists under key.
func (d Dir) Head(key string) (bool, error) {
	file, err := d.file(key)
	if err != nil {
		return false, err
	}
	_, err = os.Stat(file)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// Delete removes the object under key; an absent one is not an error.
func (d Dir) Delete(key string) error {
	file, err := d.file(key)
	if err != nil {
		return err
	}
	if err := os.Remove(file); !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// List returns the keys under prefix, sorted. Temporaries are never listed.
func (d Dir) List(prefix string) (keys []string, err error) {
	err = d.walk(prefix, false, func(key, _ string) error { keys = append(keys, key); return nil })
	sort.Strings(keys)
	return keys, err
}

// RemoveTemps deletes every temporary file under prefix: what Puts left
// when their process died before the rename, including the fixed
// "<name>.tmp" that earlier versions wrote. It also deletes the temporary of
// a Put still in flight, failing that Put, so it must not run while
// anything writes under prefix.
func (d Dir) RemoveTemps(prefix string) error {
	return d.walk(prefix, true, func(_, file string) error {
		if err := os.Remove(file); !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		return nil
	})
}

// walk calls fn with the key and path of every file under prefix that is a
// temporary (tmp) or a committed object (!tmp). It walks only the deepest
// directory the prefix names, which must be a clean relative path.
func (d Dir) walk(prefix string, tmp bool, fn func(key, file string) error) error {
	sub := prefix[:strings.LastIndexByte(prefix, '/')+1]
	if sub != "" && !cleanRel(strings.TrimSuffix(sub, "/")) {
		return fmt.Errorf("%w prefix %q", ErrBadKey, prefix)
	}
	err := filepath.WalkDir(filepath.Join(string(d), filepath.FromSlash(sub)), func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(string(d), p)
		key := filepath.ToSlash(rel)
		if err == nil && strings.HasPrefix(key, prefix) && strings.HasSuffix(key, tmpSuffix) == tmp {
			err = fn(key, p)
		}
		return err
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}
