package bits

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// ByteSource supplies little-endian uint64 words from an in-memory byte
// slice to the succinct-structure decoders. It is the one input every
// Decode* function takes: a memory-mapped file hands over its mapping, and
// a stream is first read whole with ReadAligned.
//
// The split between U64s and Words encodes an ownership contract: U64s is
// for headers and small directories — the result is always a fresh
// private slice the caller may scribble on. Words is for bulk payloads —
// when the host is little-endian and the slice is 8-byte aligned, the
// result aliases the backing bytes (zero copies, zero allocation
// proportional to the payload) and must never be written to, since it may
// point into a read-only mapping (see the ringlint viewsafe analyzer and
// DESIGN.md §12). Otherwise — odd interior offsets in legacy store files,
// exotic hosts — Words copies, which is slower but always correct.
type ByteSource struct {
	buf    []byte
	off    int
	prefix string
	alias  bool
}

// maxSliceWords bounds any single Words/U64s request. A forged length in
// a corrupt header must fail fast instead of allocating gigabytes.
const maxSliceWords = 1 << 34

// hostLittleEndian reports whether the running machine stores uint64
// values little-endian, i.e. whether the serialized little-endian word
// stream can be reinterpreted in place.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// NewByteSource returns a source over b. prefix namespaces error
// messages. b must not be mutated while any structure decoded from the
// source is alive.
func NewByteSource(b []byte, prefix string) *ByteSource {
	alias := hostLittleEndian &&
		(len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0)
	return &ByteSource{buf: b, prefix: prefix, alias: alias}
}

// Offset returns the number of bytes consumed so far.
func (s *ByteSource) Offset() int { return s.off }

// take bounds-checks and consumes 8*n bytes, returning the raw section.
func (s *ByteSource) take(n int) ([]byte, error) {
	if n < 0 || n > maxSliceWords {
		return nil, fmt.Errorf("%s: implausible slice length %d", s.prefix, n)
	}
	if rem := len(s.buf) - s.off; rem < 8*n || 8*n < 0 {
		return nil, fmt.Errorf("%s: short read: %w", s.prefix, io.ErrUnexpectedEOF)
	}
	raw := s.buf[s.off : s.off+8*n]
	s.off += 8 * n
	return raw, nil
}

// U64s decodes n words into a fresh slice the caller owns.
func (s *ByteSource) U64s(n int) ([]uint64, error) {
	raw, err := s.take(n)
	if err != nil {
		return nil, err
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return vs, nil
}

// Words returns n words, aliasing the backing buffer when possible. The
// result must be treated as read-only: on the aliased path it points
// into memory that may be a read-only file mapping.
func (s *ByteSource) Words(n int) ([]uint64, error) {
	raw, err := s.take(n)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return []uint64{}, nil
	}
	// All reads are whole words, so the interior offset stays congruent
	// mod 8 with the base; still check per call for robustness.
	if s.alias && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), n), nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return vs, nil
}

// ReadAligned reads r to EOF and returns its bytes in a buffer whose
// first byte is 8-byte aligned, so a View over the result aliases the
// word payloads instead of copying them. The buffer is []uint64-backed
// and doubles as bytes arrive: its size follows the stream, never a
// length the stream claims, so a forged header cannot force a large
// allocation. When doubling overshot by more than an eighth, the bytes
// move to an exact-size buffer, since views keep the buffer alive for
// the life of whatever was decoded from it.
func ReadAligned(r io.Reader) ([]byte, error) {
	words := make([]uint64, 512)
	n := 0
	for {
		buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
		if n == len(buf) {
			grown := make([]uint64, 2*len(words))
			copy(grown, words)
			words = grown
			continue
		}
		k, err := r.Read(buf[n:])
		n += k
		if err == io.EOF {
			if need := max(WordsFor(8*uint64(n)), 1); len(words)-need > len(words)/8 {
				words = append([]uint64(nil), words[:need]...)
				buf = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*need)
			}
			return buf[:n:n], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// View decodes one structure from the start of b with decode and reports
// how many bytes it consumed, so a caller can go on to the next section
// of a composite stream. Every structure's View is this over its
// Decode.
func View[T any](b []byte, prefix string, decode func(*ByteSource) (T, error)) (T, int, error) {
	src := NewByteSource(b, prefix)
	v, err := decode(src)
	if err != nil {
		var zero T
		return zero, 0, err
	}
	return v, src.Offset(), nil
}
