// Package viewsafe is a ringlint test fixture: positive and negative
// cases for the viewsafe analyzer. The source type mimics
// *bits.ByteSource — its Words method may return a slice aliasing a
// read-only mapping.
package viewsafe

type source struct{ buf []uint64 }

func (s *source) Words(n int) ([]uint64, error) { return s.buf[:n], nil }

// vec's data is populated by the view decoder below, so it may alias a
// mapping.
type vec struct {
	data []uint64 //ringlint:viewed
	n    int
}

// bare is missing the annotation: assigning a Words slice into it is a
// contract violation.
type bare struct {
	data []uint64
}

// WriteBits stands in for the real in-place mutator the analyzer knows.
func WriteBits(w []uint64, pos uint64, v uint64) { w[pos>>6] |= v }

// viewOK stores the aliased slice without writing: negative case.
func viewOK(src *source) (*vec, error) {
	words, err := src.Words(4)
	if err != nil {
		return nil, err
	}
	return &vec{data: words, n: 4}, nil
}

// viewWrite writes through a Words-derived local: positive case.
func viewWrite(src *source) error {
	words, err := src.Words(4)
	if err != nil {
		return err
	}
	words[0] = 1 // want "write through view-aliased slice words"
	return nil
}

// viewOpAssign op-assigns through a Words-derived local: positive case.
func viewOpAssign(src *source) error {
	words, err := src.Words(4)
	if err != nil {
		return err
	}
	words[0] |= 2 // want "write through view-aliased slice words"
	return nil
}

// viewAppend appends to a Words-derived local: positive case (append can
// write into spare capacity of the aliased array).
func viewAppend(src *source) ([]uint64, error) {
	words, err := src.Words(4)
	if err != nil {
		return nil, err
	}
	return append(words, 7), nil // want "append to view-aliased slice words"
}

// viewCopyInto copies into a Words-derived local: positive case.
func viewCopyInto(src *source, fresh []uint64) error {
	words, err := src.Words(4)
	if err != nil {
		return err
	}
	copy(words, fresh) // want "copy into view-aliased slice words"
	return nil
}

// viewCopyFrom copies OUT of the aliased slice: negative case (reading
// is the whole point of the view).
func viewCopyFrom(src *source, fresh []uint64) error {
	words, err := src.Words(4)
	if err != nil {
		return err
	}
	copy(fresh, words)
	return nil
}

// fieldWrite writes through an annotated field: positive case.
func fieldWrite(v *vec) {
	v.data[0] = 9 // want "write through view-aliased slice v.data"
}

// fieldMutator passes an annotated field to a known mutator: positive
// case.
func fieldMutator(v *vec) {
	WriteBits(v.data, 0, 1) // want "passing view-aliased slice v.data to in-place mutator WriteBits"
}

// fieldRead reads the annotated field: negative case.
func fieldRead(v *vec) uint64 { return v.data[0] }

// buildFresh writes through the annotated field into backing it just
// allocated — the reviewed constructor exception: negative case.
func buildFresh(n int) *vec {
	v := &vec{data: make([]uint64, n), n: n}
	WriteBits(v.data, 0, 1) //ringlint:allow viewsafe -- fresh allocation, never viewed
	return v
}

// viewUnannotated assigns a Words slice into a field without the
// annotation: positive case.
func viewUnannotated(src *source, b *bare) (err error) {
	b.data, err = src.Words(2) // want "not annotated //ringlint:viewed"
	return err
}
