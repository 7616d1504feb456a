package server

import (
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	wcoring "repro"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/query"
)

// The /query response is written by hand: solutions go from the engine's
// ID rows through the dictionary straight into the response buffer, with
// no map and no reflection per solution. The contract is byte identity
// with encoding/json: appendSolutions produces exactly what json.Marshal
// produces for the []map[string]string that DecodeBinding would build
// from the same rows (ringbench compares the two byte for byte, and a
// cached body must equal a fresh one), and the envelope around it keeps
// QueryResponse's field names and order.

// body is one /query response under construction in a pooled buffer:
// the envelope's opening, then the solutions array, then send's tail.
type body struct {
	pooled *[]byte
	b      []byte
}

const solutionsKey = `{"solutions":`

// maxPooledBody is the largest buffer send returns to the pool; a
// limit=100000 body is megabytes and must not stay resident per P.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func newBody() body {
	p := bodyPool.Get().(*[]byte)
	return body{pooled: p, b: append((*p)[:0], solutionsKey...)}
}

// solutions returns the encoded array appended so far; it aliases the
// pooled buffer.
func (r *body) solutions() []byte { return r.b[len(solutionsKey):] }

// envelope is what a response says about the solutions it carries.
type envelope struct {
	count    int
	cached   bool
	timedOut bool
	stats    *ltj.EvalStats // nil when no evaluation ran
}

// send closes the envelope after the solutions array, writes the response
// with its Content-Length in one Write and recycles the buffer.
func (r *body) send(w http.ResponseWriter, start time.Time, env envelope) {
	b := append(r.b, `,"count":`...)
	b = strconv.AppendInt(b, int64(env.count), 10)
	b = append(b, `,"elapsed_ms":`...)
	b = strconv.AppendFloat(b, msSince(start), 'f', -1, 64)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, env.cached)
	if env.timedOut {
		b = append(b, `,"timed_out":true`...)
	}
	if stats := env.stats; stats != nil {
		b = append(b, `,"stats":{"leaps":`...)
		b = strconv.AppendInt(b, int64(stats.Leaps), 10)
		b = append(b, `,"binds":`...)
		b = strconv.AppendInt(b, int64(stats.Binds), 10)
		b = append(b, `,"seeks":`...)
		b = strconv.AppendInt(b, int64(stats.Seeks), 10)
		b = append(b, `,"enumerations":`...)
		b = strconv.AppendInt(b, int64(stats.Enumerations), 10)
		if stats.BatchDescents != 0 {
			b = append(b, `,"batch_descents":`...)
			b = strconv.AppendInt(b, int64(stats.BatchDescents), 10)
		}
		if stats.BatchEmits != 0 {
			b = append(b, `,"batch_emits":`...)
			b = strconv.AppendInt(b, int64(stats.BatchEmits), 10)
		}
		b = append(b, '}')
	}
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b) // a failed write means the client has gone; nobody is left to tell
	if cap(b) <= maxPooledBody {
		*r.pooled = b
		bodyPool.Put(r.pooled)
	}
}

// column is one key of the solution objects.
type column struct {
	key  []byte // `"name":`, escaped
	slot int    // the variable's place in a row
	pred bool   // decodes in the predicate space
}

// appendSolutions appends rows as a JSON array of variable→term objects.
// Columns come in encoding/json's map-key order — sorted bytewise, a
// repeated projected name once (its occurrences hold the same value).
func appendSolutions(dst []byte, rows query.Rows, d *wcoring.Dictionary, predVars map[string]bool) []byte {
	slots := make([]int, len(rows.Vars))
	for i := range slots {
		slots[i] = i
	}
	slices.SortFunc(slots, func(a, b int) int { return strings.Compare(rows.Vars[a], rows.Vars[b]) })
	cols := make([]column, 0, len(slots))
	for i, slot := range slots {
		name := rows.Vars[slot]
		if i > 0 && name == rows.Vars[slots[i-1]] {
			continue
		}
		cols = append(cols, column{key: append(appendJSONString(nil, name), ':'), slot: slot, pred: predVars[name]})
	}
	dst = append(dst, '[')
	for i := 0; i < rows.N; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendRow(dst, cols, rows.Row(i), d)
	}
	return append(dst, ']')
}

// appendRow appends one solution object.
//
//ringlint:hotpath
func appendRow(dst []byte, cols []column, row []graph.ID, d *wcoring.Dictionary) []byte {
	dst = append(dst, '{')
	for i := range cols {
		c := &cols[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, c.key...)
		dst = appendTerm(dst, d, row[c.slot], c.pred)
	}
	dst = append(dst, '}')
	return dst
}

// appendTerm appends the JSON string of one identifier: its term, or
// "#<id>" when the dictionary does not hold it, as DecodeBinding renders it.
//
//ringlint:hotpath
func appendTerm(dst []byte, d *wcoring.Dictionary, id graph.ID, pred bool) []byte {
	if s, ok := d.Decode(id, pred); ok {
		dst = appendJSONString(dst, s)
		return dst
	}
	dst = append(dst, '"', '#')
	dst = strconv.AppendUint(dst, uint64(id), 10)
	dst = append(dst, '"')
	return dst
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped, with its default HTML escaping on.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	for _, b := range `"\<>&` {
		safe[b] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted and escaped exactly as encoding/json
// does: \" \\ \b \f \n \r \t, \u00XX for the other control bytes and for
// < > &, \ufffd for each invalid UTF-8 byte, U+2028 and U+2029 escaped,
// everything else (0x7f included) verbatim.
//
//ringlint:hotpath
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, '"')
	return dst
}
