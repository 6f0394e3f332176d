package msg

import "encoding/binary"

// Writer appends big-endian primitives to Buf. It encodes the protocol
// messages here and every SMR-level byte string: the commands, replies,
// checkpoints and snapshots of internal/smr, internal/store,
// internal/dlog and internal/txn. Set Buf to append to an existing slice
// (a pre-sized one keeps encoding to a single allocation).
type Writer struct {
	Buf []byte
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// Bool appends 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) {
	w.Buf = binary.BigEndian.AppendUint16(w.Buf, v)
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.Buf = binary.BigEndian.AppendUint32(w.Buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.Buf = binary.BigEndian.AppendUint64(w.Buf, v)
}

// Bytes appends a u32-length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Str appends a u16-length-prefixed string (keys, addresses, bounds).
func (w *Writer) Str(s string) {
	w.U16(uint16(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Reader consumes big-endian primitives from a byte slice. It latches the
// first error, returning zero values from then on, so a decoder reads
// every field unconditionally and checks once at the end (Done or Err).
// Every length it reads is checked against the bytes left before it
// slices or sizes anything.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Fail latches ErrBadMessage and drops the unread input, so every later
// read fails too. Decoders call it on a semantic error (an unknown tag, a
// non-canonical field) so Done reports it.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = ErrBadMessage
	}
	r.buf, r.off = nil, 0
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or ErrBadMessage if any input is left:
// a decoder that calls it accepts only inputs it consumes exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail()
	}
	return r.err
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) need(n int) bool {
	if uint(n) > uint(len(r.buf)-r.off) {
		r.Fail()
		return false
	}
	return true
}

// Count guards a wire-sourced element count before it sizes an
// allocation: it returns n if n elements of at least minSize (≥ 1) bytes
// each can fit in the bytes left, and otherwise fails and returns 0.
func (r *Reader) Count(n, minSize int) int {
	if n < 0 || n > r.Remaining()/minSize {
		r.Fail()
		return 0
	}
	return n
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool accepts only canonical encodings (0 or 1), so every accepted
// input re-encodes to the exact bytes it was decoded from.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail()
	}
	return v == 1
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Bytes reads a u32-length-prefixed byte slice. The returned slice
// aliases the input buffer; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	return r.Raw(int(r.U32()))
}

// Str reads a u16-length-prefixed string. The string is a copy.
func (r *Reader) Str() string {
	return string(r.Raw(int(r.U16())))
}

// Raw consumes n bytes without a length prefix. The returned slice
// aliases the input buffer.
func (r *Reader) Raw(n int) []byte {
	if !r.need(n) {
		return nil
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}
