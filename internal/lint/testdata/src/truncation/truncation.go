// Package truncation is a ringlint test fixture: positive and negative
// cases for the truncation analyzer.
package truncation

import "io"

type header struct {
	n int
}

// readGuarded validates the narrowed value before use: negative case.
func readGuarded(r io.Reader, raw []uint64) (*header, error) {
	h := &header{n: int(raw[0])}
	if h.n < 0 {
		return nil, io.ErrUnexpectedEOF
	}
	return h, nil
}

// readMasked masks the operand to the target width: negative case.
func readMasked(raw []uint64) uint32 {
	return uint32(raw[1] & 0xffff)
}

// notARead narrows without guards outside a deserializer: negative case
// (the analyzer is scoped to Read*/read* functions).
func notARead(raw []uint64) int {
	return int(raw[0])
}

// readBroken narrows an untrusted header word with no validation.
func readBroken(raw []uint64) int {
	return int(raw[0]) // want "unguarded uint64→int conversion"
}

// decodeBroken narrows an untrusted word in the Decode* deserializer
// family (the *bits.ByteSource decoders): positive case.
func decodeBroken(raw []uint64) int {
	return int(raw[0]) // want "unguarded uint64→int conversion"
}

// viewBroken narrows an untrusted word in the View* deserializer family
// (zero-copy mapping path): positive case.
func viewBroken(raw []uint64) uint32 {
	return uint32(raw[0]) // want "unguarded uint64→uint32 conversion"
}

// decodeGuarded validates the narrowed value: negative case.
func decodeGuarded(raw []uint64) (int, error) {
	n := int(raw[0])
	if n < 0 {
		return 0, io.ErrUnexpectedEOF
	}
	return n, nil
}
