// Package specfp computes canonical, content-addressed fingerprints
// over simulation specifications. A fingerprint is the SHA-256 of a
// deterministic field rendering: the caller appends named fields in a
// fixed order and Sum hashes the accumulated document. Two specs that
// render the same fields to the same values — regardless of how the
// spec objects were built — share one fingerprint, which is what makes
// canonical result bytes content-addressable (the serving layer's
// result cache and the experiment runner's cell cache both key on it).
//
// Callers append the simulation configuration as a whole through
// sim.Config.Fingerprint, which renders every core field and leaves out
// only what provably cannot change results (the lane size, host-side
// knobs). On top of it they append their own spec fields and may leave
// out the ones that cannot change canonical result bytes either
// (per-job timeouts, checkpoint cadence): resume chains are
// bit-identical, and cancellation never produces a result document at
// all. The *caller* owns that choice; this package only guarantees
// that what was appended is hashed canonically.
//
// Every builder opens with a domain string ("wpserved/JobSpec/v1") so
// unrelated fingerprint spaces can never collide and a format revision
// invalidates old content addresses instead of silently aliasing them.
package specfp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
)

// Builder accumulates a canonical field document. Field order is part
// of the identity: callers must append fields in one fixed order.
type Builder struct {
	buf []byte
}

// New opens a builder for the given fingerprint domain. Distinct
// domains never collide even over identical fields.
func New(domain string) *Builder {
	b := &Builder{buf: make([]byte, 0, 256)}
	b.raw(domain)
	return b
}

// raw appends one length-prefixed record, making the encoding
// injective: no concatenation of field names and values can alias
// another.
func (b *Builder) raw(s string) {
	b.buf = strconv.AppendInt(b.buf, int64(len(s)), 10)
	b.buf = append(b.buf, ':')
	b.buf = append(b.buf, s...)
	b.buf = append(b.buf, '\n')
}

func (b *Builder) field(name, value string) {
	b.raw(name)
	b.raw(value)
}

// String appends a string field.
func (b *Builder) String(name, v string) { b.field(name, v) }

// Uint64 appends an unsigned integer field.
func (b *Builder) Uint64(name string, v uint64) {
	b.field(name, strconv.FormatUint(v, 10))
}

// Int appends a signed integer field.
func (b *Builder) Int(name string, v int) {
	b.field(name, strconv.FormatInt(int64(v), 10))
}

// Int64 appends a signed 64-bit field.
func (b *Builder) Int64(name string, v int64) {
	b.field(name, strconv.FormatInt(v, 10))
}

// Bool appends a boolean field.
func (b *Builder) Bool(name string, v bool) {
	b.field(name, strconv.FormatBool(v))
}

// Float appends a float field in the shortest round-trippable form.
func (b *Builder) Float(name string, v float64) {
	b.field(name, strconv.FormatFloat(v, 'g', -1, 64))
}

// Sum returns the fingerprint: the lowercase hex SHA-256 of the
// accumulated document. The builder may keep accumulating; Sum only
// covers the fields appended so far.
func (b *Builder) Sum() string {
	h := sha256.Sum256(b.buf)
	return hex.EncodeToString(h[:])
}

// Document returns the pre-hash canonical rendering — for debugging
// cache misses, never for storage (store the Sum).
func (b *Builder) Document() string { return string(b.buf) }

// Valid reports whether s has the shape of a fingerprint this package
// produced: 64 lowercase hex digits. Stores use it to reject path
// components that could escape their directory.
func Valid(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Of is the one-shot convenience for ad-hoc keys: a domain plus
// alternating name/value string pairs. It panics on an odd pair count —
// a programming error, not input.
func Of(domain string, pairs ...string) string {
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("specfp.Of: odd name/value pair count %d", len(pairs)))
	}
	b := New(domain)
	for i := 0; i < len(pairs); i += 2 {
		b.String(pairs[i], pairs[i+1])
	}
	return b.Sum()
}
