package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
)

// Canon accumulates a canonical, self-delimiting byte encoding of a value
// for content addressing. Each field is written as a length-prefixed name
// followed by a type tag and a fixed-width or length-prefixed payload, so
// distinct field sequences can never collide byte-wise. The toolflow uses
// it to key the outcome cache on (design point, physical parameters).
type Canon struct {
	buf []byte
}

func (c *Canon) name(field string, tag byte) {
	c.buf = binary.AppendUvarint(c.buf, uint64(len(field)))
	c.buf = append(c.buf, field...)
	c.buf = append(c.buf, tag)
}

// Str appends a named string field.
func (c *Canon) Str(field, v string) {
	c.name(field, 's')
	c.buf = binary.AppendUvarint(c.buf, uint64(len(v)))
	c.buf = append(c.buf, v...)
}

// Int appends a named integer field.
func (c *Canon) Int(field string, v int) {
	c.name(field, 'i')
	c.buf = binary.AppendVarint(c.buf, int64(v))
}

// Float appends a named float64 field by its exact IEEE-754 bits.
func (c *Canon) Float(field string, v float64) {
	c.name(field, 'f')
	c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(v))
}

// Bytes returns the accumulated encoding.
func (c *Canon) Bytes() []byte { return c.buf }

// Sum returns the SHA-256 digest of the accumulated encoding as lowercase
// hex.
func (c *Canon) Sum() string {
	sum := sha256.Sum256(c.buf)
	return hex.EncodeToString(sum[:])
}

// AppendCanonical writes every parameter field into c under its canon
// tag, in declaration order. The leading version tag guards against
// silent key reuse if the encoding ever changes shape.
func (p Params) AppendCanonical(c *Canon) {
	c.Str("params", "v1")
	v := reflect.ValueOf(&p).Elem()
	for i, f := range paramFields {
		switch x := v.Field(i); x.Kind() {
		case reflect.Float64:
			c.Float(f.canon, x.Float())
		case reflect.Int:
			c.Int(f.canon, int(x.Int()))
		default: // GateImpl
			c.Str(f.canon, GateImpl(x.Uint()).String())
		}
	}
}

// Canonical returns the deterministic byte encoding of the parameters.
func (p Params) Canonical() []byte {
	var c Canon
	p.AppendCanonical(&c)
	return c.Bytes()
}

// Hash returns a hex SHA-256 content hash of the parameters: equal
// parameter sets hash equally, and any field change alters the hash.
func (p Params) Hash() string {
	var c Canon
	p.AppendCanonical(&c)
	return c.Sum()
}
