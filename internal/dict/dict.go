// Package dict implements the dictionary encoding between string constants
// and the numeric identifiers the indexes operate on. Following the
// paper's engineering (Section 4.1), subjects and objects share a single
// identifier space — an entity that appears both as a subject and as an
// object gets one ID — while predicates use a separate, smaller space.
// Identifiers are assigned in lexicographic order, so ID comparisons agree
// with string comparisons within each space.
//
// A dictionary can also grow after construction (AddSO/AddP): live-update
// layers append terms as they arrive, so appended IDs follow arrival
// order, not lexicographic order. Serialization preserves the append
// order, which keeps persisted encoded triples stable across reloads.
package dict

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/graph"
)

// StringTriple is a triple over raw string constants.
type StringTriple struct {
	S, P, O string
}

// Dictionary maps string constants to dense numeric identifiers and back.
type Dictionary struct {
	so    []string // sorted; index = ID
	p     []string // sorted; index = ID
	soIDs map[string]graph.ID
	pIDs  map[string]graph.ID

	// View-loaded dictionaries defer the encode-side maps to first use:
	// decoding (ID -> string) needs only the slices, so a server that maps
	// an index pays for the maps on the first query with a constant, not
	// at load. Build and Read populate the maps eagerly; ensureMaps is
	// then a no-op behind an atomic load.
	mapOnce sync.Once
}

// ensureMaps builds the string -> ID maps if View deferred them. Safe
// for concurrent readers; mutators (AddSO/AddP) already require external
// synchronization.
func (d *Dictionary) ensureMaps() {
	d.mapOnce.Do(func() {
		if d.soIDs != nil {
			return
		}
		d.soIDs = make(map[string]graph.ID, len(d.so))
		d.pIDs = make(map[string]graph.ID, len(d.p))
		for i, s := range d.so {
			d.soIDs[s] = graph.ID(i)
		}
		for i, s := range d.p {
			d.pIDs[s] = graph.ID(i)
		}
	})
}

// Build constructs a dictionary from the given triples and returns it along
// with the encoded triples (in input order; duplicates preserved).
func Build(triples []StringTriple) (*Dictionary, []graph.Triple) {
	soSet := map[string]struct{}{}
	pSet := map[string]struct{}{}
	for _, t := range triples {
		soSet[t.S] = struct{}{}
		soSet[t.O] = struct{}{}
		pSet[t.P] = struct{}{}
	}
	d := &Dictionary{
		so:    make([]string, 0, len(soSet)),
		p:     make([]string, 0, len(pSet)),
		soIDs: make(map[string]graph.ID, len(soSet)),
		pIDs:  make(map[string]graph.ID, len(pSet)),
	}
	for s := range soSet {
		d.so = append(d.so, s)
	}
	for s := range pSet {
		d.p = append(d.p, s)
	}
	sort.Strings(d.so)
	sort.Strings(d.p)
	for i, s := range d.so {
		d.soIDs[s] = graph.ID(i)
	}
	for i, s := range d.p {
		d.pIDs[s] = graph.ID(i)
	}
	encoded := make([]graph.Triple, len(triples))
	for i, t := range triples {
		encoded[i] = graph.Triple{S: d.soIDs[t.S], P: d.pIDs[t.P], O: d.soIDs[t.O]}
	}
	return d, encoded
}

// NumSO returns the size of the subject/object space.
func (d *Dictionary) NumSO() graph.ID { return graph.ID(len(d.so)) }

// NumP returns the size of the predicate space.
func (d *Dictionary) NumP() graph.ID { return graph.ID(len(d.p)) }

// AddSO returns the ID of a subject/object constant, appending it to the
// space if absent. Appended IDs follow arrival order; callers that share
// a dictionary across goroutines must provide their own synchronization
// (the persistence layer holds its writer lock here).
func (d *Dictionary) AddSO(s string) graph.ID {
	d.ensureMaps()
	if id, ok := d.soIDs[s]; ok {
		return id
	}
	id := graph.ID(len(d.so))
	d.so = append(d.so, s)
	d.soIDs[s] = id
	return id
}

// AddP returns the ID of a predicate constant, appending it to the space
// if absent. See AddSO for the ordering and synchronization contract.
func (d *Dictionary) AddP(s string) graph.ID {
	d.ensureMaps()
	if id, ok := d.pIDs[s]; ok {
		return id
	}
	id := graph.ID(len(d.p))
	d.p = append(d.p, s)
	d.pIDs[s] = id
	return id
}

// EncodeSO returns the ID of a subject/object constant.
func (d *Dictionary) EncodeSO(s string) (graph.ID, bool) {
	d.ensureMaps()
	id, ok := d.soIDs[s]
	return id, ok
}

// EncodeP returns the ID of a predicate constant.
func (d *Dictionary) EncodeP(s string) (graph.ID, bool) {
	d.ensureMaps()
	id, ok := d.pIDs[s]
	return id, ok
}

// DecodeSO returns the string of a subject/object ID.
func (d *Dictionary) DecodeSO(id graph.ID) (string, bool) {
	if int(id) >= len(d.so) {
		return "", false
	}
	return d.so[id], true
}

// DecodeP returns the string of a predicate ID.
func (d *Dictionary) DecodeP(id graph.ID) (string, bool) {
	if int(id) >= len(d.p) {
		return "", false
	}
	return d.p[id], true
}

// Decode returns the string of an identifier: in the predicate space when
// pred is set, in the subject/object space otherwise.
func (d *Dictionary) Decode(id graph.ID, pred bool) (string, bool) {
	if pred {
		return d.DecodeP(id)
	}
	return d.DecodeSO(id)
}

// term is Decode for display: an identifier the dictionary does not hold
// renders as "#<id>".
func (d *Dictionary) term(id graph.ID, pred bool) string {
	if s, ok := d.Decode(id, pred); ok {
		return s
	}
	return "#" + strconv.FormatUint(uint64(id), 10)
}

// DecodeBinding renders a solution with its positions' spaces: predicate
// variables are those listed in predVars; everything else decodes in the
// subject/object space.
func (d *Dictionary) DecodeBinding(b graph.Binding, predVars map[string]bool) map[string]string {
	out := make(map[string]string, len(b))
	for k, v := range b {
		out[k] = d.term(v, predVars[k])
	}
	return out
}

// DecodeRow is DecodeBinding for a solution in slot form: vars[i] is
// bound to row[i].
func (d *Dictionary) DecodeRow(vars []string, row []graph.ID, predVars map[string]bool) map[string]string {
	out := make(map[string]string, len(vars))
	for i, k := range vars {
		out[k] = d.term(row[i], predVars[k])
	}
	return out
}

// Snapshot returns a decode-only view of the dictionary as it is now. A
// dictionary only ever appends, so the terms below the lengths captured
// here are never written again: the view can be read while AddSO/AddP run
// on d, with no synchronization beyond what the Snapshot call itself
// needed. The view shares d's storage and must not be added to.
func (d *Dictionary) Snapshot() *Dictionary {
	return &Dictionary{so: d.so, p: d.p}
}

// ParseTSV reads whitespace/tab-separated "s p o" lines (comments start
// with '#'; blank lines ignored) into string triples.
func ParseTSV(r io.Reader) ([]StringTriple, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []StringTriple
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("dict: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		out = append(out, StringTriple{S: fields[0], P: fields[1], O: fields[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dict: scan: %w", err)
	}
	return out, nil
}

// --- serialization ---

const magicHdr = "RINGDICT2\n"

// maxTermBytes bounds a single term on load; a larger length prefix is
// corruption (or hostile input), not a real term.
const maxTermBytes = 1 << 24

// WriteTo serializes the dictionary as a small text-framed format.
// Terms are length-prefixed (`<len>:<bytes>\n`), not newline-delimited:
// live mode admits arbitrary strings as terms, and a term containing
// '\n' must not shift every later ID on reload.
func (d *Dictionary) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.WriteString(magicHdr)); err != nil {
		return n, err
	}
	if err := count(fmt.Fprintf(bw, "%d %d\n", len(d.so), len(d.p))); err != nil {
		return n, err
	}
	writeTerms := func(terms []string) error {
		for _, s := range terms {
			if err := count(fmt.Fprintf(bw, "%d:", len(s))); err != nil {
				return err
			}
			if err := count(bw.WriteString(s)); err != nil {
				return err
			}
			if err := count(bw.WriteString("\n")); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeTerms(d.so); err != nil {
		return n, err
	}
	if err := writeTerms(d.p); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// Read deserializes a dictionary written by WriteTo.
func Read(r io.Reader) (*Dictionary, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, len(magicHdr))
	if _, err := io.ReadFull(br, hdr); err != nil || string(hdr) != magicHdr {
		return nil, errors.New("dict: bad magic")
	}
	var nSO, nP int
	if _, err := fmt.Fscanf(br, "%d %d\n", &nSO, &nP); err != nil {
		return nil, fmt.Errorf("dict: bad counts: %w", err)
	}
	if nSO < 0 || nP < 0 {
		return nil, errors.New("dict: negative counts")
	}
	if uint64(nSO) > math.MaxUint32 || uint64(nP) > math.MaxUint32 {
		return nil, errors.New("dict: counts exceed the ID space")
	}
	d := &Dictionary{
		soIDs: make(map[string]graph.ID, min(nSO, 1<<16)),
		pIDs:  make(map[string]graph.ID, min(nP, 1<<16)),
	}
	readTerms := func(n int) ([]string, error) {
		// Grow by append rather than trusting the header count with one
		// up-front allocation: truncated or hostile input errors out long
		// before a fabricated count can force a huge slice.
		out := make([]string, 0, min(n, 1<<16))
		for i := 0; i < n; i++ {
			prefix, err := br.ReadString(':')
			if err != nil {
				return nil, fmt.Errorf("dict: truncated at entry %d: %w", i, err)
			}
			tlen, err := strconv.Atoi(strings.TrimSuffix(prefix, ":"))
			if err != nil || tlen < 0 || tlen > maxTermBytes {
				return nil, fmt.Errorf("dict: entry %d: bad term length %q", i, strings.TrimSuffix(prefix, ":"))
			}
			term := make([]byte, tlen)
			if _, err := io.ReadFull(br, term); err != nil {
				return nil, fmt.Errorf("dict: truncated at entry %d: %w", i, err)
			}
			if b, err := br.ReadByte(); err != nil || b != '\n' {
				return nil, fmt.Errorf("dict: entry %d: missing terminator", i)
			}
			out = append(out, string(term))
		}
		return out, nil
	}
	var err error
	if d.so, err = readTerms(nSO); err != nil {
		return nil, err
	}
	if d.p, err = readTerms(nP); err != nil {
		return nil, err
	}
	for i, s := range d.so {
		d.soIDs[s] = graph.ID(i)
	}
	for i, s := range d.p {
		d.pIDs[s] = graph.ID(i)
	}
	return d, nil
}

// asString views a byte slice as a string without copying. The result
// aliases b and must not outlive it.
func asString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// View deserializes a dictionary from an in-memory buffer, typically the
// dictionary section of a memory-mapped index. Unlike Read it performs
// no per-term allocation: term strings alias b, and the string -> ID
// maps are deferred to the first Encode/Add call (see ensureMaps), so a
// view load is one linear scan over the section. It accepts and rejects
// exactly the inputs Read does (FuzzViewStore holds the two paths to the
// same verdicts).
//
// b must stay valid (mapped, unmodified) for the lifetime of the
// dictionary; terms handed out by Decode* alias it.
func View(b []byte) (*Dictionary, error) {
	if len(b) < len(magicHdr) || string(b[:len(magicHdr)]) != magicHdr {
		return nil, errors.New("dict: bad magic")
	}
	// The count line reuses Fscanf over a RuneScanner so its acceptance
	// quirks (signs, spacing) match Read's byte for byte; the reader's
	// remaining length then yields the exact resume offset.
	br := bytes.NewReader(b[len(magicHdr):])
	var nSO, nP int
	if _, err := fmt.Fscanf(br, "%d %d\n", &nSO, &nP); err != nil {
		return nil, fmt.Errorf("dict: bad counts: %w", err)
	}
	if nSO < 0 || nP < 0 {
		return nil, errors.New("dict: negative counts")
	}
	if uint64(nSO) > math.MaxUint32 || uint64(nP) > math.MaxUint32 {
		return nil, errors.New("dict: counts exceed the ID space")
	}
	pos := len(b) - br.Len()
	viewTerms := func(n int) ([]string, error) {
		// Capacity grows by append for the same reason Read's does: a
		// fabricated count must not force a huge allocation.
		out := make([]string, 0, min(n, 1<<16))
		for i := 0; i < n; i++ {
			rel := bytes.IndexByte(b[pos:], ':')
			if rel < 0 {
				return nil, fmt.Errorf("dict: truncated at entry %d: %w", i, io.EOF)
			}
			prefix := b[pos : pos+rel]
			tlen, err := strconv.Atoi(asString(prefix))
			if err != nil || tlen < 0 || tlen > maxTermBytes {
				return nil, fmt.Errorf("dict: entry %d: bad term length %q", i, prefix)
			}
			pos += rel + 1
			if tlen > len(b)-pos {
				return nil, fmt.Errorf("dict: truncated at entry %d: %w", i, io.ErrUnexpectedEOF)
			}
			term := asString(b[pos : pos+tlen])
			pos += tlen
			if pos >= len(b) || b[pos] != '\n' {
				return nil, fmt.Errorf("dict: entry %d: missing terminator", i)
			}
			pos++
			out = append(out, term)
		}
		return out, nil
	}
	d := &Dictionary{}
	var err error
	if d.so, err = viewTerms(nSO); err != nil {
		return nil, err
	}
	if d.p, err = viewTerms(nP); err != nil {
		return nil, err
	}
	return d, nil
}
