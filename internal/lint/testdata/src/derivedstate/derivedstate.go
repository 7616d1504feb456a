// Package derivedstate is a ringlint test fixture: positive and negative
// cases for the derivedstate analyzer.
package derivedstate

import "io"

// Index models a structure with a derived select directory.
type Index struct {
	data []uint64
	//ringlint:derived
	samples []uint32
}

// rebuild derives samples from data.
func (x *Index) rebuild() {
	x.samples = make([]uint32, len(x.data))
}

// WriteTo serializes data only; touching samples is a finding.
func (x *Index) WriteTo(w io.Writer) error {
	_ = x.data
	_ = x.samples // want "references derived field"
	return nil
}

// ReadIndex rebuilds samples through a helper: negative case (the rebuild
// check is transitive over intra-package calls).
func ReadIndex(r io.Reader) (*Index, error) {
	x := &Index{data: make([]uint64, 4)}
	x.rebuild()
	return x, nil
}

// decodeIndex is the decoder a view helper is handed.
func decodeIndex(data []uint64) (*Index, error) {
	x := &Index{data: data}
	x.rebuild()
	return x, nil
}

// apply calls the decoder it is given, as bits.View does.
func apply(data []uint64, decode func([]uint64) (*Index, error)) (*Index, error) {
	return decode(data)
}

// ViewIndex hands its decoder to a helper as a value: negative case (a
// function passed as an argument counts as called).
func ViewIndex(data []uint64) (*Index, error) {
	return apply(data, decodeIndex)
}

// ReadIndexBroken forgets the rebuild: positive case.
func ReadIndexBroken(r io.Reader) (*Index, error) { // want "without rebuilding derived field samples"
	return &Index{data: make([]uint64, 4)}, nil
}
