package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"

	"clgp/internal/stats"
)

// resultDigest hashes the architectural outcome of one simulation: every
// field of stats.Results except Name (a label) and Telemetry (simulator-speed
// diagnostics that legitimately differ between clock modes and between cold
// and restored runs). The struct is walked by reflection, so a counter added
// to Results is covered without touching this file, and a field of a kind the
// walk cannot hash is an error rather than silently skipped.
func resultDigest(r *stats.Results) (string, error) {
	if r == nil {
		return "", errors.New("digest: no results")
	}
	h := fnv.New64a()
	v := reflect.ValueOf(*r)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "Name" || f.Name == "Telemetry" {
			continue
		}
		io.WriteString(h, f.Name)
		if err := hashValue(h, v.Field(i), f.Name); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func hashValue(h hash.Hash64, v reflect.Value, path string) error {
	var buf [8]byte
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		binary.LittleEndian.PutUint64(buf[:], v.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Int()))
	case reflect.Float32, reflect.Float64:
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			buf[0] = 1
		}
	case reflect.String:
		io.WriteString(h, strconv.Quote(v.String()))
		return nil
	case reflect.Array, reflect.Slice:
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Len()))
		h.Write(buf[:])
		for i := 0; i < v.Len(); i++ {
			if err := hashValue(h, v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			io.WriteString(h, v.Type().Field(i).Name)
			if err := hashValue(h, v.Field(i), path+"."+v.Type().Field(i).Name); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("digest: field %s has kind %s, which the digest cannot hash", path, v.Kind())
	}
	h.Write(buf[:])
	return nil
}

// combineDigests folds the per-job digests of one pass, with their job
// names, into the pass digest that is committed per input set.
func combineDigests(names, digests []string) string {
	h := fnv.New64a()
	for i := range names {
		fmt.Fprintf(h, "%s=%s\n", names[i], digests[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestFile holds the committed pass digests: digest key (the workload) →
// seed → one digest per input set. A sweep pass's cold and restored grids
// must both match the set's digest.
type digestFile map[string]map[string][]string

func loadDigests(path string) (digestFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return digestFile{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	d := digestFile{}
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return d, nil
}

// lookup returns the committed digests for (key, seed), or nil.
func (d digestFile) lookup(key string, seed int64) []string {
	return d[key][strconv.FormatInt(seed, 10)]
}

func (d digestFile) store(key string, seed int64, sets []string) {
	if d[key] == nil {
		d[key] = map[string][]string{}
	}
	d[key][strconv.FormatInt(seed, 10)] = sets
}

func (d digestFile) save(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
