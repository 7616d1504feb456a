// Package ltj implements the Leapfrog TrieJoin algorithm (Algorithm 1 of
// the paper, after Veldhuizen 2014) over an abstract trie-iterator
// interface, together with the paper's engineering refinements:
//
//   - the variable elimination order of Section 4.3: variables appearing
//     in several triple patterns are eliminated by increasing minimum
//     cardinality, preferring variables connected to those already chosen,
//     using the on-the-fly statistics the index provides;
//   - the lonely-variables optimisation of Section 4.2: variables that
//     appear in a single triple pattern are eliminated last by enumerating
//     the distinct values of the pattern's remaining range, rather than by
//     repeated leaps;
//   - result limits and timeouts, as used in the paper's benchmarks.
//
// Any index that can implement PatternIter — the ring, flat tries, B+-tree
// orders — plugs into the same engine, so the experiments compare indexing
// schemes, not join implementations.
package ltj

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/trieiter"
)

// PatternIter is the per-triple-pattern trie-iterator interface
// (Definition 2.1, extended with explicit binding state). Implementations
// maintain the set of triples matching one pattern under a stack of
// position bindings. The interface itself lives in package trieiter so
// index packages can name it without importing the engine; this alias
// keeps the engine-side name.
type PatternIter = trieiter.Iter

// Index creates trie-iterators for triple patterns.
type Index interface {
	NewPatternIter(tp graph.TriplePattern) PatternIter
}

// IndexFunc adapts a function to the Index interface.
type IndexFunc func(tp graph.TriplePattern) PatternIter

// NewPatternIter calls f.
func (f IndexFunc) NewPatternIter(tp graph.TriplePattern) PatternIter { return f(tp) }

// Options controls one evaluation.
type Options struct {
	// Limit caps the number of solutions reported; 0 means unlimited.
	// The paper's WGPB benchmark uses 1000.
	Limit int
	// Timeout aborts the evaluation after the given duration; 0 disables.
	// The paper uses 10 minutes.
	Timeout time.Duration
	// Context, when non-nil, cancels the evaluation when it is done —
	// in sequential and parallel mode alike. Cancellation surfaces as an
	// error wrapping both ErrCancelled and the context's Err(), so callers
	// can test errors.Is(err, context.Canceled) or
	// errors.Is(err, context.DeadlineExceeded). Like Timeout, the context
	// is polled every few hundred engine steps, so cancellation latency is
	// bounded by a short burst of index operations, not by solution
	// production.
	Context context.Context
	// Order forces an explicit variable elimination order (every variable
	// of the query must appear exactly once). Nil selects the automatic
	// order of Section 4.3.
	Order []string
	// DisableLonely turns off the lonely-variables optimisation
	// (ablation; Section 4.2).
	DisableLonely bool
	// DisableBatch turns off the batched radix-intersection lane
	// (DESIGN.md §13): join variables are then always eliminated by the
	// scalar leapfrog seek loop. The differential tests use this as the
	// oracle configuration (ablation).
	DisableBatch bool
	// Parallelism sets the number of worker goroutines for intra-query
	// evaluation. 0 or 1 evaluates sequentially on the calling goroutine,
	// producing solutions in the engine's deterministic order. Values > 1
	// split the first eliminated variable's candidate domain across
	// workers (each running the same leapfrog search over its own
	// iterators), so the solution *multiset* is unchanged but the order
	// becomes nondeterministic.
	Parallelism int
}

// ErrTimeout is returned (wrapped in Result.Err) when the evaluation
// exceeded Options.Timeout. The solutions found so far are still returned.
var ErrTimeout = errors.New("ltj: evaluation timed out")

// ErrCancelled is returned when Options.Context was cancelled before the
// evaluation finished. The returned error also wraps the context's own
// Err(), so errors.Is works against context.Canceled and
// context.DeadlineExceeded.
var ErrCancelled = errors.New("ltj: evaluation cancelled")

// Result is the outcome of an evaluation.
type Result struct {
	Solutions []graph.Binding
	// TimedOut is set when the evaluation stopped due to Options.Timeout.
	TimedOut bool
	// Elapsed is the wall-clock evaluation time (excluding iterator setup
	// performed by the caller).
	Elapsed time.Duration
	// Stats counts the index operations the evaluation performed.
	Stats EvalStats
}

// EvalStats counts the trie-iterator operations of one evaluation; the
// ablation benchmarks use them to show, machine-independently, how the
// Section 4.2/4.3 optimisations cut work.
type EvalStats struct {
	// Leaps is the number of Leap calls issued.
	Leaps int
	// Binds is the number of Bind calls issued. It is not the number of
	// values visited: a value is bound only in the iterators a deeper
	// variable reads (nothing reads the other narrowed ranges), so the
	// last variable's values count under Enumerations, BatchEmits or
	// Seeks only.
	Binds int
	// Enumerations is the number of values produced through the
	// lonely-variable fast path, replayed enumerations included.
	Enumerations int
	// Seeks is the number of seek() intersections run.
	Seeks int
	// BatchDescents is the number of batched radix-intersection descents
	// run in place of scalar seek loops (DESIGN.md §13).
	BatchDescents int
	// BatchEmits is the number of candidate values those descents
	// emitted.
	BatchEmits int
}

// Evaluate runs LTJ for the basic graph pattern q over the index and
// collects solutions. StreamSlots is the streaming form.
func Evaluate(idx Index, q graph.Pattern, opt Options) (*Result, error) {
	res := &Result{}
	start := time.Now()
	err := StreamSlots(idx, q, opt, &res.Stats, func(order []string, vals []graph.ID) bool {
		b := make(graph.Binding, len(order))
		for j, name := range order {
			b[name] = vals[j]
		}
		res.Solutions = append(res.Solutions, b)
		return opt.Limit <= 0 || len(res.Solutions) < opt.Limit
	})
	res.Elapsed = time.Since(start)
	if errors.Is(err, ErrTimeout) {
		res.TimedOut = true
		err = nil
	}
	return res, err
}

// StreamSlots is the engine behind Evaluate, and the form
// callers that never need a map consume directly. A solution reaches emit
// as the slots the search keeps: vals[j] is the value of order[j], the
// variable elimination order. Both slices are reused across calls (order
// never changes within one evaluation; an all-ground satisfied query emits
// once with neither), so emit must copy what it retains. emit is never
// called concurrently, and returning false stops the evaluation.
// Operations are counted into stats, Options.Limit is the caller's to
// apply, and ErrTimeout is returned if the deadline was exceeded.
func StreamSlots(idx Index, q graph.Pattern, opt Options, stats *EvalStats, emit func(order []string, vals []graph.ID) bool) error {
	if len(q) == 0 {
		return nil
	}
	e := &evaluator{opt: opt, emit: emit, stats: stats}
	if opt.Timeout > 0 {
		e.deadline = time.Now().Add(opt.Timeout)
	}

	// Create one iterator per pattern; constants are bound at creation
	// (Lemma 3.6), so fully-constant patterns reduce to emptiness checks.
	e.pats = make([]patternEntry, 0, len(q))
	for _, tp := range q {
		it := idx.NewPatternIter(tp)
		if it.Empty() {
			return nil // an unsatisfied pattern, ground or not, kills the query
		}
		if tp.NumConstants() < 3 {
			e.pats = append(e.pats, patternEntry{tp: tp, it: it})
		}
	}
	if len(e.pats) == 0 {
		// All patterns ground and satisfied: the single empty solution.
		emit(nil, nil)
		return nil
	}

	order, err := e.chooseOrder(q)
	if err != nil {
		return err
	}
	e.order = order
	e.vals = make([]graph.ID, len(order))
	if err := e.plan(); err != nil {
		return err
	}
	if opt.Context != nil {
		e.ctx = opt.Context
	}
	if opt.Parallelism > 1 {
		err = e.searchParallel(idx)
	} else {
		err = e.search(0)
	}
	return e.finishErr(err)
}

// finishErr maps the engine-internal cancellation sentinel onto the
// caller-visible contract: a cancelled Options.Context surfaces as an
// error wrapping ErrCancelled and the context's Err(); internal
// cancellation (a satisfied Limit in parallel mode, emit returning false)
// is a clean stop.
func (e *evaluator) finishErr(err error) error {
	if err == errCancelled {
		err = nil
	}
	if err == nil && !e.stopped && e.opt.Context != nil {
		if cerr := e.opt.Context.Err(); cerr != nil {
			return fmt.Errorf("%w: %w", ErrCancelled, cerr)
		}
	}
	return err
}

type patternEntry struct {
	tp graph.TriplePattern
	it PatternIter
}

type evaluator struct {
	opt      Options
	emit     func(order []string, vals []graph.ID) bool
	pats     []patternEntry
	order    []string
	depths   []depth    // depths[j] is the plan of order[j] (plan.go)
	vals     []graph.ID // vals[j] is order[j]'s value on the current search path
	deadline time.Time
	ctx      context.Context // cancellation: Options.Context, or the workers' derived context in parallel mode
	ticks    int
	stopped  bool // emit returned false
	stats    *EvalStats
}

// errCancelled aborts a parallel worker when another worker satisfied the
// limit (or the caller's emit stopped the evaluation). It never escapes
// the engine: searchParallel folds it into a clean stop.
var errCancelled = errors.New("ltj: evaluation cancelled")

// checkDeadline polls the clock and the cancellation context every few
// hundred steps.
func (e *evaluator) checkDeadline() error {
	if e.deadline.IsZero() && e.ctx == nil {
		return nil
	}
	e.ticks++
	// Compare against 1, not 0, so the very first tick already polls: a
	// query whose first seek loops for a long time inside one iterator
	// range must still observe the deadline before tick 256.
	if e.ticks&255 == 1 {
		if e.ctx != nil {
			select {
			case <-e.ctx.Done():
				return errCancelled
			default:
			}
		}
		if !e.deadline.IsZero() && time.Now().After(e.deadline) {
			return ErrTimeout
		}
	}
	return nil
}

// search implements leapfrog_search(μ, j) of Algorithm 1 for j below
// len(order); descend ends the recursion at the last variable.
func (e *evaluator) search(j int) error {
	d := &e.depths[j]

	// Lonely-variable fast path (Section 4.2): a variable in exactly one
	// pattern, at one position, whose iterator can enumerate that position.
	if d.visit != nil && d.ivs[0].it.CanEnumerate(d.ivs[0].positions[0]) {
		return e.enumerate(j, d)
	}

	// Batched radix-intersection lane (DESIGN.md §13): when every
	// iterator of this join variable exposes its candidates as one
	// wavelet range, a single multi-range descent replaces the seek loop.
	if rs, ok := e.batchRuns(d); ok {
		return e.searchBatched(j, d.ivs, rs)
	}

	// General seek loop (the while loop of leapfrog_search).
	c := graph.ID(0)
	for {
		if err := e.checkDeadline(); err != nil {
			return err
		}
		v, ok, err := e.seek(d.ivs, c)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := e.descend(j, v); err != nil {
			return err
		}
		if e.stopped {
			return nil
		}
		if v == graph.MaxID {
			return nil // the "c = v + 1" below would wrap to 0
		}
		c = v + 1
	}
}

// descend is the per-value step every lane and the parallel workers
// share: record v as order[j]'s value, bind it at every occurrence in the
// iterators a deeper variable reads, search the next variable or emit at
// the last, and unwind (also on error paths).
//
// An iterator no deeper variable reads is not bound at all, and at the
// last variable that is every iterator. Nothing reads the range such a
// bind would narrow, and its emptiness check cannot fail: Leap (Lemma
// 3.7), Enumerate and IntersectRanges only return values that leave their
// pattern non-empty, and leapVar has already verified a variable
// occurring at several positions. ringdebug builds still perform every
// elided bind and assert it.
func (e *evaluator) descend(j int, v graph.ID) error {
	d := &e.depths[j]
	d.descents++
	e.vals[j] = v
	k := 0 // d.ivs[:k] have been visited
	alive := true
	for alive && k < len(d.ivs) {
		iv := &d.ivs[k]
		k++
		if !iv.bind {
			if ringdebugEnabled {
				debugCheckElidedBind(iv, v)
			}
			continue
		}
		for _, pos := range iv.positions {
			e.stats.Binds++
			iv.it.Bind(pos, v)
		}
		alive = !iv.it.Empty()
	}
	var err error
	switch {
	case !alive:
	case j+1 < len(e.depths):
		err = e.search(j + 1)
	case !e.emit(e.order, e.vals):
		e.stopped = true
	}
	for _, iv := range d.ivs[:k] {
		if iv.bind {
			for range iv.positions {
				iv.it.Unbind()
			}
		}
	}
	return err
}

// seek implements seek(μ, j, c) of Algorithm 1: the leapfrog intersection.
// It repeatedly leaps every iterator to the current candidate until all
// agree, or some iterator is exhausted.
//
//ringlint:hotpath
func (e *evaluator) seek(ivs []iterVar, c graph.ID) (graph.ID, bool, error) {
	e.stats.Seeks++
	for {
		if err := e.checkDeadline(); err != nil {
			return 0, false, err
		}
		allEqual := true
		for _, iv := range ivs {
			v, ok := e.leapVar(iv, c)
			if !ok {
				return 0, false, nil
			}
			if v != c {
				c = v
				allEqual = false
			}
		}
		if allEqual {
			return c, true, nil
		}
	}
}

// leapVar leaps one iterator for one variable. A variable occurring at
// several positions of the same pattern is handled by leap-then-verify:
// candidates from the first occurrence are checked by binding every
// occurrence, per the engineering note in DESIGN.md.
//
//ringlint:hotpath allow-dispatch -- the engine is index-generic; every iterator operation dispatches on PatternIter
func (e *evaluator) leapVar(iv iterVar, c graph.ID) (graph.ID, bool) {
	e.stats.Leaps++
	if len(iv.positions) == 1 {
		v, ok := iv.it.Leap(iv.positions[0], c)
		if ringdebugEnabled && ok {
			debugCheckLeapOrder(c, v)
		}
		return v, ok
	}
	for {
		v, ok := iv.it.Leap(iv.positions[0], c)
		if !ok {
			return 0, false
		}
		if ringdebugEnabled {
			debugCheckLeapOrder(c, v)
		}
		for _, pos := range iv.positions {
			iv.it.Bind(pos, v)
		}
		empty := iv.it.Empty()
		for range iv.positions {
			iv.it.Unbind()
		}
		if !empty {
			return v, true
		}
		if v == graph.MaxID {
			return 0, false // the "c = v + 1" below would wrap to 0
		}
		c = v + 1
	}
}
