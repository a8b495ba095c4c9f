package snap

import "fmt"

// Walker walks a component's state in one direction. A saving walker writes
// the field behind each pointer it is handed to an Encoder; a loading walker
// reads the field from a Decoder and stores it through the pointer. Each
// component names its snapshot fields once, in one Walk method, so its save
// order and its load order cannot drift apart.
//
// The first failure latches, in either direction: a loading walker keeps
// it in its Decoder, where a read past the end or a malformed byte puts it
// too, and every later read stores zero values. A walk can therefore run
// straight through and check Err where a later step depends on the fields
// read so far.
type Walker struct {
	e   *Encoder
	d   *Decoder
	err error // a saving walker's failure
}

// Saver returns a walker that writes the fields it visits to e.
func Saver(e *Encoder) *Walker { return &Walker{e: e} }

// Loader returns a walker that reads the fields it visits from d.
func Loader(d *Decoder) *Walker { return &Walker{d: d} }

// Loading reports whether w reads state (rather than writing it).
func (w *Walker) Loading() bool { return w.d != nil }

// Err returns the first failure of the walk, or nil.
func (w *Walker) Err() error {
	if w.d != nil {
		return w.d.Err()
	}
	return w.err
}

// Failf latches a formatted failure. Loading, it wraps ErrCorrupt: the
// bytes describe a state the walked component can never reach. Saving, the
// state itself cannot be written faithfully.
func (w *Walker) Failf(format string, args ...any) {
	switch {
	case w.d != nil:
		w.d.Failf(format, args...)
	case w.err == nil:
		w.err = fmt.Errorf("snap: cannot save state: %s", fmt.Sprintf(format, args...))
	}
}

// Tag walks a section tag: saving writes t, loading fails unless the next
// tag is t.
func (w *Walker) Tag(t uint32) {
	if w.d != nil {
		w.d.Tag(t)
	} else {
		w.e.Tag(t)
	}
}

// Each primitive calls the Encoder or the Decoder. U8, U64 and Int call
// the Decoder's forms that store through the pointer, which keeps them
// small enough to inline: a walk of a large table (cache ways, predictor
// entries) then makes no call for such a field when saving, and one when
// loading.

// U8 walks one byte.
func (w *Walker) U8(p *uint8) {
	if w.d != nil {
		w.d.readU8(p)
	} else {
		w.e.U8(*p)
	}
}

// U32 walks a uint32.
func (w *Walker) U32(p *uint32) {
	if w.d != nil {
		*p = w.d.U32()
	} else {
		w.e.U32(*p)
	}
}

// U64 walks a uint64.
func (w *Walker) U64(p *uint64) {
	if w.d != nil {
		w.d.readU64(p)
	} else {
		w.e.U64(*p)
	}
}

// I64 walks an int64 (two's complement).
func (w *Walker) I64(p *int64) {
	if w.d != nil {
		*p = w.d.I64()
	} else {
		w.e.I64(*p)
	}
}

// U64s walks every element of s in order.
func (w *Walker) U64s(s []uint64) {
	for i := range s {
		w.U64(&s[i])
	}
}

// Int walks an int as an int64; loading rejects a value that overflows int.
func (w *Walker) Int(p *int) {
	if w.d != nil {
		w.d.readInt(p)
	} else {
		w.e.U64(uint64(*p)) // Encoder.Int's bytes, one inlining level down
	}
}

// Bool walks a bool as a strict 0/1 byte.
func (w *Walker) Bool(p *bool) {
	if w.d != nil {
		w.d.readBool(p)
		return
	}
	var b uint8
	if *p {
		b = 1
	}
	w.e.U8(b)
}

// String walks a length-prefixed string.
func (w *Walker) String(p *string) {
	if w.d != nil {
		*p = w.d.String()
	} else {
		w.e.String(*p)
	}
}

// Count walks an element count written as an int; loading rejects a count
// outside [0, limit], so a corrupt count cannot drive a huge allocation.
func (w *Walker) Count(p *int, limit int) {
	if w.d != nil {
		*p = w.d.Count(limit)
	} else {
		w.e.Int(*p)
	}
}

// Word walks a field of a type defined over uint64, such as an address.
func Word[T ~uint64](w *Walker, p *T) {
	if w.d != nil {
		*p = T(w.d.U64())
	} else {
		w.e.U64(uint64(*p))
	}
}

// Byte walks an integer field written as one byte, such as an
// enumeration; saving keeps the low byte.
func Byte[T ~uint8 | ~int](w *Walker, p *T) {
	if w.d != nil {
		*p = T(w.d.U8())
	} else {
		w.e.U8(uint8(*p))
	}
}

// Slice walks a count-prefixed slice, visiting each element with f.
// Loading reads a count up to limit and then grows *p from empty one
// element at a time, stopping at the first failure, so a count that
// overstates the elements that follow allocates no more than they fill.
func Slice[T any](w *Walker, p *[]T, limit int, f func(*T)) {
	n := len(*p)
	w.Count(&n, limit)
	if w.d != nil {
		var zero T
		*p = (*p)[:0]
		for i := 0; i < n && w.d.Err() == nil; i++ {
			*p = append(*p, zero)
			f(&(*p)[i])
		}
		return
	}
	for i := range *p {
		f(&(*p)[i])
	}
}
