package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	wcoring "repro"
)

// PatternJSON is one triple pattern of a query request; components
// starting with '?' are variables, everything else is a constant.
type PatternJSON struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

// QueryRequest is the body of POST /query. GET /query?q=... accepts the
// same query in the CLI's compact syntax ("s p o ; s p o", '?x'
// variables) with the scalar clauses as URL parameters.
type QueryRequest struct {
	// Pattern is the basic graph pattern (required, non-empty).
	Pattern []PatternJSON `json:"pattern"`
	// Project lists the variables to return (omitted = all).
	Project []string `json:"project,omitempty"`
	// Distinct deduplicates projected solutions.
	Distinct bool `json:"distinct,omitempty"`
	// OrderBy sorts by the given variables (dictionary order).
	OrderBy []string `json:"order_by,omitempty"`
	// Offset skips results (after ordering).
	Offset int `json:"offset,omitempty"`
	// Limit caps the result count; 0 uses the server default, and the
	// server's maximum always applies.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS bounds evaluation in milliseconds; 0 uses the server
	// default, and the server's maximum always applies.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache for this request (both lookup and
	// fill) — the load generator uses it to measure the engine.
	NoCache bool `json:"no_cache,omitempty"`
}

// QueryResponse is the body of a successful /query response, for clients
// to decode into. The server does not marshal it: encode.go writes the
// same fields in the same order by hand.
type QueryResponse struct {
	Solutions []map[string]string `json:"solutions"`
	Count     int                 `json:"count"`
	ElapsedMS float64             `json:"elapsed_ms"`
	// Cached is set when the solutions came from the result cache.
	Cached bool `json:"cached"`
	// TimedOut is set when evaluation hit the deadline; Solutions then
	// holds the partial results found in time.
	TimedOut bool `json:"timed_out,omitempty"`
	// Stats counts the engine operations of this evaluation (absent on
	// cache hits).
	Stats *StatsJSON `json:"stats,omitempty"`
}

// StatsJSON mirrors ltj.EvalStats for the response body.
type StatsJSON struct {
	Leaps        int `json:"leaps"`
	Binds        int `json:"binds"`
	Seeks        int `json:"seeks"`
	Enumerations int `json:"enumerations"`
	// BatchDescents and BatchEmits count the batched radix-intersection
	// lane's work (DESIGN.md §13); zero when the lane never engaged.
	BatchDescents int `json:"batch_descents,omitempty"`
	BatchEmits    int `json:"batch_emits,omitempty"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// maxRequestBytes bounds a /query body; patterns are tiny, so anything
// beyond this is hostile or broken.
const maxRequestBytes = 1 << 20

// parseRequest decodes a query request from either method.
func parseRequest(r *http.Request) (*QueryRequest, error) {
	switch r.Method {
	case http.MethodPost:
		var req QueryRequest
		dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("bad JSON body: %w", err)
		}
		if err := validateRequest(&req); err != nil {
			return nil, err
		}
		return &req, nil
	case http.MethodGet:
		q := r.URL.Query()
		raw := q.Get("q")
		if raw == "" {
			return nil, fmt.Errorf("missing q parameter")
		}
		req := &QueryRequest{}
		for _, part := range strings.Split(raw, ";") {
			fields := strings.Fields(part)
			if len(fields) == 0 {
				continue
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("pattern %q: want 3 components, got %d", strings.TrimSpace(part), len(fields))
			}
			req.Pattern = append(req.Pattern, PatternJSON{S: fields[0], P: fields[1], O: fields[2]})
		}
		var err error
		if req.Limit, err = intParam(q.Get("limit")); err != nil {
			return nil, fmt.Errorf("bad limit: %w", err)
		}
		if req.Offset, err = intParam(q.Get("offset")); err != nil {
			return nil, fmt.Errorf("bad offset: %w", err)
		}
		if req.TimeoutMS, err = intParam(q.Get("timeout_ms")); err != nil {
			return nil, fmt.Errorf("bad timeout_ms: %w", err)
		}
		req.Distinct = q.Get("distinct") == "true" || q.Get("distinct") == "1"
		req.NoCache = q.Get("no_cache") == "true" || q.Get("no_cache") == "1"
		if p := q.Get("project"); p != "" {
			req.Project = strings.Split(p, ",")
		}
		if o := q.Get("order_by"); o != "" {
			req.OrderBy = strings.Split(o, ",")
		}
		if err := validateRequest(req); err != nil {
			return nil, err
		}
		return req, nil
	default:
		return nil, fmt.Errorf("method %s not allowed", r.Method)
	}
}

func intParam(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.Atoi(s)
}

func validateRequest(req *QueryRequest) error {
	if len(req.Pattern) == 0 {
		return fmt.Errorf("empty pattern")
	}
	if len(req.Pattern) > 64 {
		return fmt.Errorf("pattern has %d triples, max 64", len(req.Pattern))
	}
	if req.Offset < 0 {
		return fmt.Errorf("negative offset")
	}
	if req.Limit < 0 {
		return fmt.Errorf("negative limit")
	}
	if req.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms")
	}
	return nil
}

// patternStrings converts the request pattern to the store's string form.
func (req *QueryRequest) patternStrings() []wcoring.PatternString {
	out := make([]wcoring.PatternString, len(req.Pattern))
	for i, p := range req.Pattern {
		out[i] = wcoring.PatternString{S: p.S, P: p.P, O: p.O}
	}
	return out
}

// effectiveTimeout resolves the request timeout against the server's
// default and cap.
func effectiveTimeout(reqMS int, def, max time.Duration) time.Duration {
	d := def
	if reqMS > 0 {
		// Clamp before converting: a timeout_ms beyond ~9.2e12 overflows
		// time.Duration into a negative value, which the engine reads as
		// "no deadline".
		const maxMS = math.MaxInt64 / int64(time.Millisecond)
		d = time.Duration(min(int64(reqMS), maxMS)) * time.Millisecond
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// effectiveLimit resolves the request limit against the server's default
// and cap.
func effectiveLimit(reqLimit, def, max int) int {
	l := def
	if reqLimit > 0 {
		l = reqLimit
	}
	if max > 0 && (l <= 0 || l > max) {
		l = max
	}
	return l
}
