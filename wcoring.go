// Package wcoring is a Go implementation of the ring index of Arroyuelo,
// Hogan, Navarro, Reutter, Rojas-Ledesma and Soto, "Worst-Case Optimal
// Graph Joins in Almost No Space" (SIGMOD 2021): a BWT-based graph index
// that supports worst-case-optimal Leapfrog TrieJoin over
// subject–predicate–object graphs in |G| + o(|G|) bits — the index
// replaces the graph — with a compressed variant (C-Ring) that fits in
// entropy-bounded space.
//
// # Quick start
//
//	store, err := wcoring.NewStore([]wcoring.StringTriple{
//		{"bohr", "advisor", "thomson"},
//		{"nobel", "winner", "bohr"},
//		{"nobel", "nominee", "thomson"},
//	}, wcoring.Options{})
//	...
//	sols, err := store.Query([]wcoring.PatternString{
//		{S: "?x", P: "winner", O: "?y"},
//		{S: "?x", P: "nominee", O: "?z"},
//		{S: "?z", P: "advisor", O: "?y"},
//	}, wcoring.QueryOptions{})
//
// Terms beginning with '?' are variables; everything else is a constant.
// Solutions come back as variable→string maps.
//
// Power users can work at the identifier level with the subpackage types
// re-exported here (Graph, Pattern, Ring, Evaluate), and the baselines the
// paper compares against live under internal/baseline (exercised by the
// benchmark harness in bench_test.go and cmd/benchtables).
package wcoring

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/dict"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/query"
	"repro/internal/ring"
	"repro/internal/rpq"
)

// Re-exported identifier-level types. See the internal packages for the
// full documentation of each.
type (
	// ID is a dictionary-encoded constant.
	ID = graph.ID
	// Triple is an encoded subject–predicate–object edge.
	Triple = graph.Triple
	// Term is a constant or variable component of a triple pattern.
	Term = graph.Term
	// TriplePattern is a triple with optional variables.
	TriplePattern = graph.TriplePattern
	// Pattern is a basic graph pattern (a set of triple patterns).
	Pattern = graph.Pattern
	// Binding is one solution at the identifier level.
	Binding = graph.Binding
	// Graph is an in-memory triple set.
	Graph = graph.Graph
	// Ring is the paper's index.
	Ring = ring.Ring
	// StringTriple is a raw string edge.
	StringTriple = dict.StringTriple
	// Dictionary maps strings to identifiers.
	Dictionary = dict.Dictionary
)

// Const builds a constant term.
func Const(v ID) Term { return graph.Const(v) }

// Var builds a variable term.
func Var(name string) Term { return graph.Var(name) }

// TP builds a triple pattern.
func TP(s, p, o Term) TriplePattern { return graph.TP(s, p, o) }

// NewGraph builds a deduplicated, sorted graph from encoded triples.
func NewGraph(ts []Triple) *Graph { return graph.New(ts) }

// Options configures the physical ring representation.
type Options struct {
	// Compress selects the C-Ring (RRR-compressed bitvectors).
	Compress bool
	// RRRBlock is the compression block size b (default 16). Larger values
	// compress better and query slower (the paper evaluates 16 and 64).
	RRRBlock int
	// SparseC stores the per-zone C arrays as Elias-Fano bitvectors
	// (footnote 2 of the paper) — smaller for large, sparse ID spaces.
	SparseC bool
}

// NewRing builds a ring index over g.
func NewRing(g *Graph, opt Options) *Ring {
	return ring.New(g, ring.Options{Compress: opt.Compress, RRRBlock: opt.RRRBlock, SparseC: opt.SparseC})
}

// EvalStats counts the trie-iterator operations of one evaluation (see
// ltj.EvalStats).
type EvalStats = ltj.EvalStats

// QueryOptions mirrors the evaluation knobs of the paper's benchmarks.
type QueryOptions struct {
	// Limit caps the number of solutions (0 = unlimited).
	Limit int
	// Timeout aborts evaluation (0 = none).
	Timeout time.Duration
	// Context, when non-nil, cancels the evaluation when it is done (e.g.
	// a serving layer's per-request deadline or a disconnected client).
	// Cancellation surfaces as an error wrapping ErrCancelled and the
	// context's own Err().
	Context context.Context
	// Order forces a variable elimination order (nil = automatic).
	Order []string
	// Parallelism sets the number of worker goroutines for intra-query
	// evaluation (0 or 1 = sequential, deterministic order; > 1 returns
	// the same solution multiset in nondeterministic order). The ring is
	// shared read-only across workers.
	Parallelism int
}

// Evaluate runs worst-case-optimal LTJ over a ring at the identifier
// level.
func Evaluate(r *Ring, q Pattern, opt QueryOptions) ([]Binding, error) {
	res, err := ltj.Evaluate(ringIndex(r), q, opt.ltj())
	if err != nil {
		return nil, err
	}
	if res.TimedOut {
		return res.Solutions, ErrTimeout
	}
	return res.Solutions, nil
}

// ltj translates the options for the engine.
func (opt QueryOptions) ltj() ltj.Options {
	return ltj.Options{
		Limit: opt.Limit, Timeout: opt.Timeout, Context: opt.Context,
		Order: opt.Order, Parallelism: opt.Parallelism,
	}
}

// ringIndex adapts a ring to the engine's index interface.
func ringIndex(r *Ring) ltj.Index {
	return ltj.IndexFunc(func(tp TriplePattern) ltj.PatternIter {
		return r.NewPatternState(tp)
	})
}

// ErrTimeout reports that evaluation hit QueryOptions.Timeout; partial
// solutions are still returned.
var ErrTimeout = errors.New("wcoring: query timed out")

// ErrCancelled reports that QueryOptions.Context was cancelled before the
// evaluation finished; the returned error also wraps the context's Err().
var ErrCancelled = ltj.ErrCancelled

// Store bundles a dictionary, the ring, and string-level querying — the
// end-to-end API a downstream application uses.
type Store struct {
	dict *dict.Dictionary
	ring *ring.Ring
	n    int
}

// NewStore dictionary-encodes the triples and builds a ring over them.
func NewStore(triples []StringTriple, opt Options) (*Store, error) {
	d, encoded := dict.Build(triples)
	g := graph.NewWithDomains(encoded, d.NumSO(), d.NumP())
	return &Store{dict: d, ring: NewRing(g, opt), n: g.Len()}, nil
}

// Len returns the number of distinct triples.
func (s *Store) Len() int { return s.n }

// Ring exposes the underlying index.
func (s *Store) Ring() *Ring { return s.ring }

// Dictionary exposes the string↔ID mapping.
func (s *Store) Dictionary() *Dictionary { return s.dict }

// SizeBytes returns the index footprint (the ring replaces the triples;
// the dictionary is the unavoidable string table).
func (s *Store) SizeBytes() int { return s.ring.SizeBytes() }

// PatternString is a triple pattern over strings; components starting
// with '?' are variables.
type PatternString struct {
	S, P, O string
}

// Compile translates string patterns to the encoded form: the identifier-
// level pattern plus the set of variables bound at predicate positions
// (those decode through the predicate dictionary). feasible is false when
// a constant is absent from the dictionary, which makes the query provably
// empty. Exported for serving layers that plan, cache or instrument
// queries at the identifier level before evaluating them.
func (s *Store) Compile(q []PatternString) (encoded Pattern, predVars map[string]bool, feasible bool, err error) {
	return s.compile(q)
}

// compile translates string patterns to the encoded form. Constants
// absent from the dictionary make the query provably empty; that is
// reported via the bool result.
func (s *Store) compile(q []PatternString) (Pattern, map[string]bool, bool, error) {
	return CompilePatterns(s.dict, q)
}

// CompilePatterns is Compile against an explicit dictionary: the dynamic
// persistence layer serves queries over a growing dictionary it owns and
// locks, so the translation cannot be a method of the static Store alone.
func CompilePatterns(d *Dictionary, q []PatternString) (Pattern, map[string]bool, bool, error) {
	out := make(Pattern, 0, len(q))
	predVars := map[string]bool{}
	for i, ps := range q {
		mk := func(raw string, isPred bool) (Term, bool, error) {
			if raw == "" {
				return Term{}, false, fmt.Errorf("wcoring: pattern %d has an empty component", i)
			}
			if strings.HasPrefix(raw, "?") {
				name := raw[1:]
				if name == "" {
					return Term{}, false, fmt.Errorf("wcoring: pattern %d has an unnamed variable", i)
				}
				if isPred {
					predVars[name] = true
				}
				return Var(name), true, nil
			}
			var id ID
			var ok bool
			if isPred {
				id, ok = d.EncodeP(raw)
			} else {
				id, ok = d.EncodeSO(raw)
			}
			if !ok {
				return Term{}, false, nil // constant not in the data: empty query
			}
			return Const(id), true, nil
		}
		st, ok, err := mk(ps.S, false)
		if err != nil {
			return nil, nil, false, err
		}
		if !ok {
			return nil, nil, false, nil
		}
		pt, ok, err := mk(ps.P, true)
		if err != nil {
			return nil, nil, false, err
		}
		if !ok {
			return nil, nil, false, nil
		}
		ot, ok, err := mk(ps.O, false)
		if err != nil {
			return nil, nil, false, err
		}
		if !ok {
			return nil, nil, false, nil
		}
		out = append(out, TP(st, pt, ot))
	}
	return out, predVars, true, nil
}

// Query evaluates string-level basic graph patterns and decodes the
// solutions back to strings.
func (s *Store) Query(q []PatternString, opt QueryOptions) ([]map[string]string, error) {
	encoded, predVars, feasible, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	if !feasible {
		return nil, nil
	}
	out := []map[string]string{}
	var stats EvalStats
	err = ltj.StreamSlots(ringIndex(s.ring), encoded, opt.ltj(), &stats, func(order []string, vals []ID) bool {
		out = append(out, s.dict.DecodeRow(order, vals, predVars))
		return opt.Limit <= 0 || len(out) < opt.Limit
	})
	switch {
	case errors.Is(err, ltj.ErrTimeout):
		return out, ErrTimeout
	case err != nil:
		return nil, err
	}
	return out, nil
}

// SelectOptions extends QueryOptions with the layered query features of
// package internal/query: projection, DISTINCT, ordering and windowing.
type SelectOptions struct {
	QueryOptions
	// Project lists the variables to return (nil = all).
	Project []string
	// Distinct deduplicates projected solutions.
	Distinct bool
	// OrderBy sorts results by the given variables (by constant ID, i.e.
	// lexicographically, since the dictionary assigns IDs in sorted order).
	OrderBy []string
	// Offset skips the first results (applied after ordering).
	Offset int
	// Stats, when non-nil, receives the engine's operation counts for the
	// evaluation (leaps, binds, seeks, enumerations) — the serving layer
	// exports them as metrics.
	Stats *EvalStats
}

// Select evaluates a query with projection/DISTINCT/ORDER BY/OFFSET on
// top of the wco join, decoding solutions to strings.
func (s *Store) Select(q []PatternString, opt SelectOptions) ([]map[string]string, error) {
	encoded, predVars, feasible, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	if !feasible {
		return nil, nil
	}
	rows, err := query.Select{
		Pattern:     encoded,
		Project:     opt.Project,
		Distinct:    opt.Distinct,
		OrderBy:     opt.OrderBy,
		Offset:      opt.Offset,
		Limit:       opt.Limit,
		Timeout:     opt.Timeout,
		Context:     opt.Context,
		Parallelism: opt.Parallelism,
		Stats:       opt.Stats,
	}.Rows(ringIndex(s.ring))
	if err != nil {
		return nil, err
	}
	out := make([]map[string]string, rows.N)
	for i := range out {
		out[i] = s.dict.DecodeRow(rows.Vars, rows.Row(i), predVars)
	}
	return out, nil
}

// Reach evaluates a regular path query from the given source node: it
// returns, in dictionary order, the nodes reachable by a path whose
// predicate sequence matches the SPARQL-flavoured expression — names
// combined with '/' (sequence), '|' (alternation), '*', '+', '?'
// (repetition), '^' (inverse), and parentheses. For example
// "advisor+/(winner|nominee)". Regular path queries are one of the
// operators the paper's conclusions propose layering on the ring.
func (s *Store) Reach(src, path string) ([]string, error) {
	srcID, ok := s.dict.EncodeSO(src)
	if !ok {
		return nil, nil // unknown source: nothing reachable
	}
	expr, err := rpq.ParsePath(path, func(name string) (ID, bool) {
		return s.dict.EncodeP(name)
	})
	if err != nil {
		return nil, err
	}
	lister := rpq.IndexLister{Idx: ringIndex(s.ring)}
	ids := rpq.Compile(expr).Reach(lister, srcID)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if str, ok := s.dict.DecodeSO(id); ok {
			out = append(out, str)
		}
	}
	return out, nil
}

// storePadFlag marks the high bit of the store header's dictionary
// length when the dictionary section is zero-padded to a multiple of 8
// bytes. Padding keeps the ring section 8-byte aligned within the file,
// which is what lets ViewStore alias the ring's word payloads straight
// out of a memory mapping. Files written before the flag existed (no
// padding, arbitrary alignment) remain readable: ViewStore falls back to
// copying the words and ReadStore never cared.
const storePadFlag = uint64(1) << 63

// WriteTo serializes the store: a length-prefixed dictionary section
// followed by the ring. The length prefix lets the reader consume the
// dictionary exactly, regardless of its internal buffering; the section
// is padded so the ring starts 8-byte aligned (see storePadFlag).
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	var dbuf bytes.Buffer
	if _, err := s.dict.WriteTo(&dbuf); err != nil {
		return 0, err
	}
	pad := (8 - dbuf.Len()%8) % 8
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(dbuf.Len())|storePadFlag)
	n := int64(0)
	k, err := w.Write(hdr[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	k2, err := w.Write(dbuf.Bytes())
	n += int64(k2)
	if err != nil {
		return n, err
	}
	var zeros [8]byte
	k3, err := w.Write(zeros[:pad])
	n += int64(k3)
	if err != nil {
		return n, err
	}
	n2, err := s.ring.WriteTo(w)
	return n + n2, err
}

// ReadStore deserializes a store written by WriteTo.
func ReadStore(r io.Reader) (*Store, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("wcoring: short store header: %w", err)
	}
	raw := binary.LittleEndian.Uint64(hdr[:])
	dictLen := raw &^ storePadFlag
	if dictLen > 1<<40 {
		return nil, errors.New("wcoring: implausible dictionary size")
	}
	// Grow the buffer as bytes actually arrive so a forged length on a
	// short stream cannot trigger a huge allocation.
	var dbuf bytes.Buffer
	if n, err := io.CopyN(&dbuf, r, int64(dictLen)); err != nil || uint64(n) != dictLen {
		return nil, fmt.Errorf("wcoring: short dictionary section: %w", err)
	}
	d, err := dict.Read(bytes.NewReader(dbuf.Bytes()))
	if err != nil {
		return nil, err
	}
	if raw&storePadFlag != 0 {
		pad := (8 - dictLen%8) % 8
		if n, err := io.CopyN(io.Discard, r, int64(pad)); err != nil || uint64(n) != pad {
			return nil, fmt.Errorf("wcoring: short dictionary padding: %w", err)
		}
	}
	rg, err := ring.Read(r)
	if err != nil {
		return nil, err
	}
	return &Store{dict: d, ring: rg, n: rg.Len()}, nil
}

// ViewStore deserializes a store from an in-memory buffer, typically a
// memory-mapped index file. The dictionary's term strings alias b and
// its encode-side maps are deferred to the first query with a constant
// (dict.View); the ring's bulk word payloads alias b whenever the ring
// section is 8-byte aligned — which every file written by the current
// WriteTo guarantees via dictionary padding. Unpadded legacy files still
// load, falling back to copying the ring words.
//
// b must stay valid (mapped, unmodified) for the lifetime of the
// returned Store.
func ViewStore(b []byte) (*Store, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("wcoring: short store header: %w", io.ErrUnexpectedEOF)
	}
	raw := binary.LittleEndian.Uint64(b)
	dictLen := raw &^ storePadFlag
	if dictLen > 1<<40 {
		return nil, errors.New("wcoring: implausible dictionary size")
	}
	off := uint64(8) + dictLen
	if raw&storePadFlag != 0 {
		off += (8 - dictLen%8) % 8
	}
	if off > uint64(len(b)) {
		return nil, fmt.Errorf("wcoring: short dictionary section: %w", io.ErrUnexpectedEOF)
	}
	d, err := dict.View(b[8 : 8+dictLen])
	if err != nil {
		return nil, err
	}
	rg, _, err := ring.View(b[off:])
	if err != nil {
		return nil, err
	}
	return &Store{dict: d, ring: rg, n: rg.Len()}, nil
}

// StoreLayout describes the byte layout of a serialized store, for
// tooling that reports whether a file can be loaded zero-copy.
type StoreLayout struct {
	DictBytes  int64 // dictionary section length (excluding padding)
	PadBytes   int   // zero padding after the dictionary section
	RingOffset int64 // byte offset of the ring section
	Padded     bool  // written with the dict-padding flag (current format)
	Aligned    bool  // ring section starts on an 8-byte boundary
}

// ReadStoreLayout parses just the store header of b (a full file is not
// required; 8 bytes suffice).
func ReadStoreLayout(b []byte) (StoreLayout, error) {
	if len(b) < 8 {
		return StoreLayout{}, fmt.Errorf("wcoring: short store header: %w", io.ErrUnexpectedEOF)
	}
	raw := binary.LittleEndian.Uint64(b)
	dictLen := raw &^ storePadFlag
	if dictLen > 1<<40 {
		return StoreLayout{}, errors.New("wcoring: implausible dictionary size")
	}
	l := StoreLayout{DictBytes: int64(dictLen), Padded: raw&storePadFlag != 0}
	off := uint64(8) + dictLen
	if l.Padded {
		l.PadBytes = int((8 - dictLen%8) & 7)
		off += uint64(l.PadBytes)
	}
	l.RingOffset = int64(off)
	l.Aligned = off%8 == 0
	return l, nil
}

// ParseTSV reads "s p o" lines into string triples.
func ParseTSV(r io.Reader) ([]StringTriple, error) { return dict.ParseTSV(r) }

// ParseNTriples reads the W3C N-Triples format into string triples (terms
// keep their surface syntax: IRIs in angle brackets, literals quoted).
func ParseNTriples(r io.Reader) ([]StringTriple, error) { return dict.ParseNTriples(r) }
