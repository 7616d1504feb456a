package ring

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/bits"
	"repro/internal/bitvector"
	"repro/internal/intvec"
)

// cArray is the per-zone cumulative-count structure: C[c] = number of
// triples whose zone-start symbol is < c, for c in [0, alphabet]. Two
// representations are provided, as in the paper:
//
//   - packed: a fixed-width integer array (the default);
//   - sparse: the footnote-2 bitvector D with ones at positions C[i]+i,
//     recovering C[i] as select1(D, i+1) - i — asymptotically smaller for
//     large alphabets (n + U + o(·) bits instead of U·log n).
type cArray interface {
	// Get returns C[i].
	Get(i int) uint64
	// SearchPrefix returns the smallest index j with C[j] >= x, or Len()
	// if none.
	SearchPrefix(x uint64) int
	// Len returns the number of entries (alphabet size + 1).
	Len() int
	// SizeBytes returns the in-memory footprint.
	SizeBytes() int
	writeTo(w io.Writer) (int64, error)
}

// packedC is the intvec-backed representation.
type packedC struct {
	*intvec.Vector
}

func (p packedC) Get(i int) uint64 { return p.Vector.Get(i) }

func (p packedC) writeTo(w io.Writer) (int64, error) {
	var total int64
	if err := writeU64s(w, &total, uint64(cTagPacked)); err != nil {
		return total, err
	}
	n, err := p.Vector.WriteTo(w)
	return total + n, err
}

// sparseC is the Elias–Fano representation of footnote 2.
type sparseC struct {
	d       *bitvector.Sparse
	entries int
}

func newSparseC(counts []uint64) sparseC {
	ones := make([]int, len(counts))
	for i, c := range counts {
		ones[i] = int(c) + i
	}
	universe := 1
	if len(ones) > 0 {
		universe = ones[len(ones)-1] + 1
	}
	return sparseC{d: bitvector.NewSparse(universe, ones), entries: len(counts)}
}

func (s sparseC) Get(i int) uint64 {
	p := s.d.Select1(i + 1)
	if p < 0 {
		panic(fmt.Sprintf("ring: C index %d out of range", i))
	}
	return uint64(p - i)
}

func (s sparseC) SearchPrefix(x uint64) int {
	// C is nondecreasing: binary search over the entries via select.
	return sort.Search(s.entries, func(j int) bool { return s.Get(j) >= x })
}

func (s sparseC) Len() int { return s.entries }

func (s sparseC) SizeBytes() int { return s.d.SizeBytes() + 16 }

func (s sparseC) writeTo(w io.Writer) (int64, error) {
	var total int64
	if err := writeU64s(w, &total, uint64(cTagSparse), uint64(s.entries)); err != nil {
		return total, err
	}
	n, err := s.d.WriteTo(w)
	return total + n, err
}

const (
	cTagPacked = 1
	cTagSparse = 2
)

// decodeCArray deserializes either representation at src's offset.
func decodeCArray(src *bits.ByteSource) (cArray, error) {
	hdr, err := src.U64s(1)
	if err != nil {
		return nil, err
	}
	switch hdr[0] {
	case cTagPacked:
		v, err := intvec.Decode(src)
		if err != nil {
			return nil, err
		}
		return packedC{v}, nil
	case cTagSparse:
		meta, err := src.U64s(1)
		if err != nil {
			return nil, err
		}
		d, err := bitvector.DecodeSparse(src)
		if err != nil {
			return nil, err
		}
		// The entry count narrows to int; it must agree with the ones
		// actually present in D, or Get would select past the end.
		entries := int(meta[0])
		if entries < 0 || entries != d.Ones() {
			return nil, fmt.Errorf("ring: sparse C entry count %d disagrees with bitvector (%d ones)", meta[0], d.Ones())
		}
		return sparseC{d: d, entries: entries}, nil
	default:
		return nil, errors.New("ring: unknown C-array representation tag")
	}
}
