// Package ring implements the paper's contribution: a BWT-based index that
// regards each subject–predicate–object triple as a cyclic bidirectional
// string of length 3, so that one index order supports worst-case-optimal
// Leapfrog TrieJoin over every triple-pattern shape (Section 3).
//
// # Representation
//
// Following Section 4.1, the bended BWT of the text T = s₁p₁o₁…sₙpₙoₙ$ is
// split into its three zones, each stored as a wavelet matrix over the
// original (unshifted) identifiers together with a per-zone C array:
//
//   - Zone SPO: rotations starting at subjects, ordered by (s,p,o). The
//     stored column is the cyclically preceding symbol, the object: BWT_o.
//     C_s[c] counts triples with subject < c.
//   - Zone POS: rotations starting at predicates, ordered by (p,o,s); the
//     stored column is the subject: BWT_s. C_p[c] counts triples with
//     predicate < c.
//   - Zone OSP: rotations starting at objects, ordered by (o,s,p); the
//     stored column is the predicate: BWT_p. C_o[c] counts triples with
//     object < c.
//
// An LF-step from zone SPO leads to zone OSP (binding the object that
// precedes the subject), from OSP to POS, and from POS to SPO — the
// "backward" direction o ← s, p ← o, s ← p. Because the rotations with the
// same first symbol appear in the same relative order in consecutive zones,
// the standard LF formula C[c] + rank_c works zone to zone (Lemma 3.3).
//
// The index replaces the raw data: triple i is recovered with two LF-steps
// (Theorem 3.4), and the whole structure occupies |G| + o(|G|) bits with
// plain bitvectors, or compressed space with RRR bitvectors (the C-Ring).
package ring

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/intvec"
	"repro/internal/wavelet"
)

// Zone identifies one of the three BWT zones by the position its rotations
// start with.
type Zone int

// The three zones. The value equals the graph.Position of the zone's first
// symbol, so ZoneOf(pos) is the identity conversion.
const (
	ZoneSPO Zone = Zone(graph.PosS) // ordered (s,p,o); column stores objects
	ZonePOS Zone = Zone(graph.PosP) // ordered (p,o,s); column stores subjects
	ZoneOSP Zone = Zone(graph.PosO) // ordered (o,s,p); column stores predicates
)

// ZoneOf returns the zone whose rotations start at pos.
func ZoneOf(pos graph.Position) Zone { return Zone(pos) }

// Start returns the position the zone's rotations start with.
func (z Zone) Start() graph.Position { return graph.Position(z) }

// String names the zone by its sort order.
func (z Zone) String() string {
	switch z {
	case ZoneSPO:
		return "spo"
	case ZonePOS:
		return "pos"
	case ZoneOSP:
		return "osp"
	}
	return fmt.Sprintf("Zone(%d)", int(z))
}

// Options configures the physical representation of the ring.
type Options struct {
	// Compress stores the wavelet-matrix bitvectors in RRR-compressed form
	// (the paper's C-Ring). Plain bitvectors otherwise (the paper's Ring).
	Compress bool
	// RRRBlock is the RRR block size (the paper's parameter b). 0 means 16.
	RRRBlock int
	// SparseC stores the C arrays as Elias-Fano bitvectors (the paper's
	// footnote 2) instead of packed integer arrays: smaller for large
	// alphabets, with select-based access.
	SparseC bool
}

// Ring is the immutable ring index of a graph.
type Ring struct {
	cols [3]*wavelet.Matrix // indexed by Zone: BWT_o, BWT_s, BWT_p
	c    [3]cArray          // indexed by Zone: C_s, C_p, C_o (len = alphabet+1)

	n     int
	numSO graph.ID
	numP  graph.ID
	opt   Options
}

// New builds the ring index of g. The graph's triples are the SPO order;
// the other two rotations are derived from it rather than sorted, since a
// stable sort on one component of an array sorted by the rest yields the
// next rotation: SPO stably sorted by O is OSP, and OSP stably sorted by
// P is POS (graph.SortBy, one counting pass each). The SPO zone builds in
// a second goroutine while this one runs the OSP → POS chain; each writes
// only its own zones, so the result does not depend on scheduling. The
// chain takes both columns out of the triple arrays before it builds
// either wavelet matrix, so the arrays are garbage by then, and then
// builds the two matrices side by side, OSP's in a third goroutine. It
// runs in O(n log σ) time and O(n) words of working space per goroutine.
func New(g *graph.Graph, opt Options) *Ring {
	ts := g.Triples() // already sorted (s,p,o)
	n := len(ts)
	r := &Ring{n: n, numSO: g.NumSO(), numP: g.NumP(), opt: opt}

	// column returns zone z's BWT column, each rotation's last symbol,
	// and sets the zone's C array, which counts their first symbols.
	column := func(z Zone, sorted []graph.Triple) []graph.ID {
		last := z.Start().Prev()
		col := make([]graph.ID, len(sorted))
		for i, t := range sorted {
			col[i] = t.At(last)
		}
		r.c[z] = makeC(buildC(sorted, z.Start(), int(r.alphabetOf(z))), opt)
		return col
	}
	matrix := func(z Zone, col []graph.ID) {
		sigma := r.alphabetOf(ZoneOf(z.Start().Prev()))
		r.cols[z] = wavelet.New(col, uint64(sigma), wavelet.Options{Compress: opt.Compress, RRRBlock: opt.RRRBlock})
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		matrix(ZoneSPO, column(ZoneSPO, ts))
	}()

	osp, spare := graph.SortBy(slices.Clone(ts), make([]graph.Triple, n), graph.PosO)
	if ringdebugEnabled {
		debugCheckRotation(ZoneOSP, osp, n)
	}
	ospCol := column(ZoneOSP, osp)
	pos, _ := graph.SortBy(osp, spare, graph.PosP)
	if ringdebugEnabled {
		debugCheckRotation(ZonePOS, pos, n)
	}
	posCol := column(ZonePOS, pos)
	wg.Add(1)
	go func() {
		defer wg.Done()
		matrix(ZoneOSP, ospCol)
	}()
	matrix(ZonePOS, posCol)

	wg.Wait()
	return r
}

// buildC computes the cumulative counts over the first symbol of the
// zone-ordered triples: C[c] = number of triples whose symbol at pos is < c.
func buildC(sorted []graph.Triple, pos graph.Position, alphabet int) []uint64 {
	counts := make([]uint64, alphabet+1)
	for _, t := range sorted {
		counts[t.At(pos)+1]++
	}
	for i := 1; i <= alphabet; i++ {
		counts[i] += counts[i-1]
	}
	return counts
}

// makeC chooses the C-array representation per the options.
func makeC(counts []uint64, opt Options) cArray {
	if opt.SparseC {
		return newSparseC(counts)
	}
	return packedC{intvec.New(counts)}
}

// Len returns the number of indexed triples.
func (r *Ring) Len() int { return r.n }

// NumSO returns the size of the subject/object identifier space.
func (r *Ring) NumSO() graph.ID { return r.numSO }

// NumP returns the size of the predicate identifier space.
func (r *Ring) NumP() graph.ID { return r.numP }

// Column returns the wavelet matrix storing the given zone's BWT column.
func (r *Ring) Column(z Zone) *wavelet.Matrix { return r.cols[z] }

// alphabetOf returns the size of the ID space of the symbols that start
// zone z's rotations.
//
//ringlint:hotpath
func (r *Ring) alphabetOf(z Zone) graph.ID {
	if z == ZonePOS {
		return r.numP
	}
	return r.numSO
}

// CRange returns [lo, hi): the positions in zone z whose rotations start
// with constant c. This is the b=1 case of Lemma 3.6 and also the on-the-fly
// cardinality statistic of Section 4.3 (hi-lo is the number of matches).
//
//ringlint:hotpath allow-dispatch -- C-array accesses dispatch on the packed/sparse representation
func (r *Ring) CRange(z Zone, c graph.ID) (lo, hi int) {
	if c >= r.alphabetOf(z) {
		return 0, 0
	}
	return int(r.c[z].Get(int(c))), int(r.c[z].Get(int(c) + 1))
}

// nextOccupied returns the smallest c' >= c whose CRange in zone z is
// non-empty, in O(log U) time by binary search on the C array.
//
//ringlint:hotpath allow-dispatch -- C-array accesses dispatch on the packed/sparse representation
func (r *Ring) nextOccupied(z Zone, c graph.ID) (graph.ID, bool) {
	if c >= r.alphabetOf(z) {
		return 0, false
	}
	base := r.c[z].Get(int(c))
	// Smallest index j with C[j] > base; then c' = j-1 has C[c'] <= base < C[c'+1].
	j := r.c[z].SearchPrefix(base + 1)
	if j >= r.c[z].Len() {
		return 0, false
	}
	return graph.ID(j - 1), true
}

// Triple returns the i-th triple in (s,p,o) order, 0 <= i < Len(),
// reconstructed from the index alone with two LF-steps (Theorem 3.4: the
// ring replaces the raw data).
func (r *Ring) Triple(i int) graph.Triple {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("ring: Triple(%d) out of range [0,%d)", i, r.n))
	}
	o := r.cols[ZoneSPO].Access(i)
	j := r.lfPos(ZoneOSP, o, r.cols[ZoneSPO].Rank(o, i))
	p := r.cols[ZoneOSP].Access(j)
	k := r.lfPos(ZonePOS, p, r.cols[ZoneOSP].Rank(p, j))
	s := r.cols[ZonePOS].Access(k)
	return graph.Triple{S: graph.ID(s), P: graph.ID(p), O: graph.ID(o)}
}

// lfPos computes the LF-step target C[z][c] + rk, clamped into [0, n).
// On a well-formed index the position is always in range; a corrupt
// (viewed) payload can push it out, and Access would panic.
//
//ringlint:hotpath allow-dispatch -- C-array accesses dispatch on the packed/sparse representation
func (r *Ring) lfPos(z Zone, c uint64, rk int) int {
	j := rk
	if int64(c) < int64(r.c[z].Len()) {
		j += int(r.c[z].Get(int(c)))
	}
	if j < 0 || j >= r.n {
		return 0
	}
	return j
}

// Triples reconstructs the full sorted triple list from the index. It is
// Triple(i) for every i, done in linear passes rather than n pairs of
// LF-steps: the subjects follow from C_s (zone SPO is sorted by subject),
// the objects are zone SPO's column, and each triple's predicate sits in
// zone OSP's column at the LF-step of its object, C_o[o] plus the number
// of earlier rotations in zone SPO with the same object.
func (r *Ring) Triples() []graph.Triple {
	out := make([]graph.Triple, r.n)
	if r.n == 0 {
		return out
	}
	objs := r.cols[ZoneSPO].Values()
	preds := r.cols[ZoneOSP].Values()
	seen := make([]int, r.c[ZoneOSP].Len())
	s, next := 0, int(r.c[ZoneSPO].Get(1))
	for i, o := range objs {
		for i >= next && s+2 < r.c[ZoneSPO].Len() {
			s++
			next = int(r.c[ZoneSPO].Get(s + 1))
		}
		j := 0
		if o < uint64(len(seen)) {
			j = r.lfPos(ZoneOSP, o, seen[o])
			seen[o]++
		}
		out[i] = graph.Triple{S: graph.ID(s), P: graph.ID(preds[j]), O: graph.ID(o)}
	}
	return out
}

// SizeBytes returns the total in-memory footprint of the index: the three
// wavelet matrices plus the three C arrays.
func (r *Ring) SizeBytes() int {
	total := 64
	for z := Zone(0); z < 3; z++ {
		total += r.cols[z].SizeBytes() + r.c[z].SizeBytes()
	}
	return total
}

// BytesPerTriple returns the space in bytes per indexed triple, the unit
// used throughout the paper's Tables 1 and 2.
func (r *Ring) BytesPerTriple() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.SizeBytes()) / float64(r.n)
}

// --- serialization ---

const magic = uint64(0x52494e4733425754) // "RING3BWT"

// WriteTo serializes the full index.
func (r *Ring) WriteTo(w io.Writer) (int64, error) {
	var total int64
	if err := writeU64s(w, &total, magic, uint64(r.n), uint64(r.numSO), uint64(r.numP)); err != nil {
		return total, err
	}
	for z := Zone(0); z < 3; z++ {
		n, err := r.cols[z].WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
		n, err = r.c[z].writeTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Read deserializes a ring written by WriteTo. It consumes rd to EOF:
// the stream is read whole into an 8-byte-aligned buffer and viewed, so
// the ring's word payloads live in that one buffer.
func Read(rd io.Reader) (*Ring, error) {
	b, err := bits.ReadAligned(rd)
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	r, _, err := View(b)
	return r, err
}

// View deserializes a ring from an in-memory buffer — a memory-mapped
// index file, or a stream Read has read whole. The bulk word payloads of
// every zone (wavelet levels, C arrays) alias b when the host is
// little-endian and b is 8-byte aligned; only the o(n) rank/select
// directories are rebuilt on the heap. Returns the number of bytes
// consumed.
func View(b []byte) (*Ring, int, error) {
	return bits.View(b, "ring", Decode)
}

// Decode deserializes a ring at src's offset.
func Decode(src *bits.ByteSource) (*Ring, error) {
	hdr, err := src.U64s(4)
	if err != nil {
		return nil, err
	}
	if hdr[0] != magic {
		return nil, errors.New("ring: bad magic")
	}
	if hdr[2] > uint64(graph.MaxID) || hdr[3] > uint64(graph.MaxID) {
		return nil, errors.New("ring: alphabet size overflows the ID space")
	}
	r := &Ring{n: int(hdr[1]), numSO: graph.ID(hdr[2]), numP: graph.ID(hdr[3])}
	if r.n < 0 {
		return nil, errors.New("ring: corrupt header")
	}
	for z := Zone(0); z < 3; z++ {
		if r.cols[z], err = wavelet.Decode(src); err != nil {
			return nil, fmt.Errorf("ring: zone %v column: %w", z, err)
		}
		if r.c[z], err = decodeCArray(src); err != nil {
			return nil, fmt.Errorf("ring: zone %v C array: %w", z, err)
		}
		if r.cols[z].Len() != r.n {
			return nil, errors.New("ring: zone length mismatch")
		}
		wantC := int(r.numSO) + 1
		if z == ZonePOS {
			wantC = int(r.numP) + 1
		}
		if r.c[z].Len() != wantC {
			return nil, errors.New("ring: C array length mismatch")
		}
	}
	return r, nil
}

func writeU64s(w io.Writer, total *int64, vs ...uint64) error {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(v >> (8 * j))
		}
	}
	n, err := w.Write(buf)
	*total += int64(n)
	return err
}
