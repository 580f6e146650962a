package logrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"mspr/internal/dv"
)

// Coder reads or writes a record's fields. Every record type lists its
// fields once, in a walk that passes each field's address to the Coder:
// an encoder appends the field's value, a decoder stores the value it
// reads, so the two directions cannot drift apart. A decoder keeps the
// first error, and every field after it decodes as its zero value. The
// zero Coder is an encoder that allocates its own buffer.
type Coder struct {
	b   []byte
	dec bool
	err error
}

// Encode buffers are pooled: the request hot path encodes a record,
// appends it to the WAL (which copies the payload into its own batch
// buffer), and is then done with the bytes. Two pools make the cycle
// allocation-free in steady state: bufPool holds loaded buffers ready to
// encode into, shellPool holds the empty *encBuf boxes so re-pooling a
// buffer does not allocate a fresh box each time.
type encBuf struct{ b []byte }

var (
	bufPool   sync.Pool // *encBuf with cap(b) > 0
	shellPool = sync.Pool{New: func() any { return new(encBuf) }}
)

// NewEncoder returns an encoder backed by a pooled buffer when one is
// available.
func NewEncoder() Coder {
	if v := bufPool.Get(); v != nil {
		eb := v.(*encBuf)
		b := eb.b[:0]
		eb.b = nil
		shellPool.Put(eb)
		return Coder{b: b}
	}
	return Coder{b: make([]byte, 0, 256)}
}

// NewDecoder returns a decoder reading p.
func NewDecoder(p []byte) Coder { return Coder{b: p, dec: true} }

// Recycle returns an encoded payload's buffer to the pool. Callers may
// only recycle a payload after every reader has copied it (wal.Append
// copies into its batch buffer synchronously, so recycling right after a
// successful or failed Append is safe). Tiny and oversized buffers are
// dropped to keep the pool from pinning outliers.
func Recycle(p []byte) {
	if cap(p) < 64 || cap(p) > 1<<16 {
		return
	}
	eb := shellPool.Get().(*encBuf)
	eb.b = p[:0]
	bufPool.Put(eb)
}

// Encoded returns what an encoder has written.
func (c *Coder) Encoded() []byte { return c.b }

// Decoding reports whether c is a decoder.
func (c *Coder) Decoding() bool { return c.dec }

// fail records a decoder's first error and drops the rest of the input,
// so every later field decodes as its zero value.
func (c *Coder) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("logrec: truncated or corrupt %s", what)
	}
	c.b = nil
}

// U8 codes one byte.
func (c *Coder) U8(v *byte) {
	switch {
	case !c.dec:
		c.b = append(c.b, *v)
	case len(c.b) == 0:
		c.fail("u8")
	default:
		*v, c.b = c.b[0], c.b[1:]
	}
}

// U64 codes v as an unsigned varint.
func (c *Coder) U64(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("uvarint")
		return
	}
	*v, c.b = x, c.b[n:]
}

// U32 codes v as an unsigned varint.
func (c *Coder) U32(v *uint32) {
	x := uint64(*v)
	c.U64(&x)
	*v = uint32(x)
}

// I64 codes v as a signed varint.
func (c *Coder) I64(v *int64) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, *v)
		return
	}
	x, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("varint")
		return
	}
	*v, c.b = x, c.b[n:]
}

// Bool codes v as one byte; a decoder reads any byte but 1 as false.
func (c *Coder) Bool(v *bool) {
	var x byte
	if *v {
		x = 1
	}
	c.U8(&x)
	*v = x == 1
}

// Len codes a count of n elements and returns it. A decoded count larger
// than the bytes left is corrupt (every element takes at least one), so
// a decoder may allocate n elements up front.
func (c *Coder) Len(n int) int {
	x := uint64(n)
	c.U64(&x)
	if c.dec && x > uint64(len(c.b)) {
		c.fail("length")
		return 0
	}
	return int(x)
}

// span decodes a length-prefixed run of bytes, aliasing the input.
func (c *Coder) span() []byte {
	n := c.Len(0)
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// Str codes a length-prefixed string.
func (c *Coder) Str(s *string) {
	if !c.dec {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*s))), *s...)
		return
	}
	*s = string(c.span())
}

// Bytes codes a length-prefixed byte slice. A decoder copies it, so the
// record never aliases the payload; an empty slice decodes as nil.
func (c *Coder) Bytes(p *[]byte) {
	if !c.dec {
		c.b = append(binary.AppendUvarint(c.b, uint64(len(*p))), *p...)
		return
	}
	*p = append([]byte(nil), c.span()...)
}

// Vec codes a dependency vector.
func (c *Coder) Vec(v *dv.Vector) {
	if !c.dec {
		c.b = v.AppendBinary(c.b)
		return
	}
	x, rest, err := dv.DecodeVector(c.b)
	if err != nil {
		c.fail("vector")
		return
	}
	*v, c.b = x, rest
}

// StrMap codes a map as a count and its entries in key order.
func (c *Coder) StrMap(m *map[string][]byte) {
	if c.dec {
		n := c.Len(0)
		*m = make(map[string][]byte, n)
		for range n {
			var k string
			var v []byte
			c.Str(&k)
			c.Bytes(&v)
			(*m)[k] = v
		}
		return
	}
	keys := make([]string, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	c.Len(len(keys))
	for _, k := range keys {
		v := (*m)[k]
		c.Str(&k)
		c.Bytes(&v)
	}
}

// Done returns a decoder's first error, or an error naming what if any
// input is left over.
func (c *Coder) Done(what string) error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return errors.New("logrec: trailing bytes in " + what)
	}
	return nil
}
