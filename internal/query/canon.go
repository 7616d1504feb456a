package query

// Canonicalization: deterministic byte-string keys for solutions (GROUP BY
// groups, DISTINCT rows) and for whole queries (the result-cache keys of
// the serving layer).

import (
	"encoding/binary"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// BindingKey returns a compact canonical key for b restricted to vars:
// the values in vars order, fixed-width little-endian. Two bindings map
// to the same key iff they agree on every variable of vars.
func BindingKey(b graph.Binding, vars []string) string {
	key := make([]byte, 0, 8*len(vars))
	for _, v := range vars {
		x := b[v]
		key = append(key, byte(x), byte(x>>8), byte(x>>16), byte(x>>24), ';')
	}
	return string(key)
}

// appendRowKey appends the DISTINCT key of one projected row: its values,
// fixed-width little-endian.
func appendRowKey(key []byte, row []graph.ID) []byte {
	for _, x := range row {
		key = binary.LittleEndian.AppendUint32(key, x)
	}
	return key
}

// CacheKey returns a canonical key identifying the query's result set, for
// use by result caches. Two Selects with equal keys produce equal result
// multisets (and equal ordered results when OrderBy is set):
//
//   - the triple patterns are serialized term by term and sorted, so BGPs
//     that differ only in pattern order share a key (joins commute);
//   - every result-affecting clause — projection, DISTINCT, ORDER BY,
//     OFFSET, LIMIT — is appended;
//   - Timeout and Parallelism are excluded: they change how the result is
//     computed, not what it is. Without an ORDER BY the engine's solution
//     order is an implementation detail (and nondeterministic under
//     parallelism), so a cached result may legitimately be in a different
//     order than a fresh evaluation would produce.
//
// ok is false when the query is not canonicalizable: Filters are opaque
// functions, so filtered queries must not be cached.
func (s Select) CacheKey() (key string, ok bool) {
	if len(s.Filters) > 0 {
		return "", false
	}
	pats := make([]string, len(s.Pattern))
	for i, tp := range s.Pattern {
		var b strings.Builder
		for _, pos := range []graph.Position{graph.PosS, graph.PosP, graph.PosO} {
			term := tp.Term(pos)
			if term.IsVar {
				b.WriteByte('?')
				b.WriteString(term.Name)
			} else {
				b.WriteString(strconv.FormatUint(uint64(term.Value), 10))
			}
			b.WriteByte(' ')
		}
		pats[i] = b.String()
	}
	sort.Strings(pats)

	var b strings.Builder
	for _, p := range pats {
		b.WriteString(p)
		b.WriteByte(';')
	}
	b.WriteByte('|')
	if s.Project == nil {
		b.WriteByte('*')
	} else {
		for _, v := range s.Project {
			b.WriteString(v)
			b.WriteByte(',')
		}
	}
	b.WriteByte('|')
	if s.Distinct {
		b.WriteByte('d')
	}
	b.WriteByte('|')
	for _, v := range s.OrderBy {
		b.WriteString(v)
		b.WriteByte(',')
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.Offset))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.Limit))
	return b.String(), true
}
