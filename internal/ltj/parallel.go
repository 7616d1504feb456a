// Parallel intra-query evaluation (Options.Parallelism > 1).
//
// The leapfrog search tree decomposes cleanly by the first eliminated
// variable (Veldhuizen 2014): for every value v of the first variable's
// intersection, the subtree below the binding x0 = v is independent of
// every other subtree. The ring's query structures (wavelet-matrix
// columns, C arrays, bitvector directories) are immutable once built, so
// the subtrees can be explored by worker goroutines that share the index
// read-only and own only a forked iterator cursor each.
//
// Division of labour:
//
//   - a producer goroutine runs the first variable's candidate generation
//     (the top level of leapfrog_search: either the seek loop or the
//     lonely-variable enumeration) on the evaluation's own iterators and
//     batches the candidate values into contiguous chunks;
//   - K worker goroutines pull chunks from a shared channel (cheap work
//     stealing: a worker stuck on a heavy hub value simply stops taking
//     chunks, so skewed Zipf domains do not straggle), bind each value on
//     their forked iterators and run the ordinary sequential search from
//     depth 1;
//   - solutions merge through a bounded channel back onto the calling
//     goroutine, which is the only one that invokes the caller's emit —
//     streaming semantics, Limit short-circuit and Timeout behave as in
//     sequential mode, except that solution order is nondeterministic.
//
// Each worker explores a subset of the sequential search tree, so the
// per-worker work is bounded by the sequential wco bound; the union of
// the subsets is exactly the sequential tree, so the solution multiset is
// preserved (the differential tests assert this).
package ltj

import (
	"context"
	"runtime"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/wavelet"
)

// DefaultParallelism returns the worker count the CLIs use for
// "-parallel auto": the scheduler's processor count.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// maxBatch caps the candidates per work chunk. Chunks start at 1 and
// double up to this cap, so the head of a skewed domain (hub nodes with
// huge subtrees) is spread across workers value by value while long
// uniform tails move in bulk.
const maxBatch = 32

// solBuffer is the capacity of the bounded solution channel: large enough
// to decouple worker bursts from the caller's emit, small enough that a
// Limit short-circuit wastes little work.
const solBuffer = 256

// forkIter hands a worker its own iterator for p. Iterators advertising
// the ForkableIter capability clone their cursor; anything else is
// rebuilt from the pattern, which is equivalent here because workers fork
// before any variable is bound — the rebuilt iterator holds exactly the
// pattern's constants (Lemma 3.6), the same state a fork would copy.
func forkIter(idx Index, p patternEntry) PatternIter {
	if f, ok := p.it.(ForkableIter); ok {
		if it := f.Fork(); it != nil {
			return it
		}
	}
	return idx.NewPatternIter(p.tp)
}

// searchParallel distributes search(0) over opt.Parallelism workers. It
// is called on a fully set-up evaluator (iterators created, order chosen,
// varIters built) in place of e.search(0).
func (e *evaluator) searchParallel(idx Index) error {
	//ringlint:detach -- default root when the caller set no opt.Context; callers with one are honoured below
	parent := context.Background()
	if e.opt.Context != nil {
		parent = e.opt.Context
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Fork the worker evaluators first, while the main iterators are
	// still untouched by any seek (producer leaps may Bind/Unbind
	// transiently for multi-occurrence variables).
	nworkers := e.opt.Parallelism
	workers := make([]*evaluator, nworkers)
	for w := range workers {
		we := &evaluator{
			opt:      e.opt,
			order:    e.order,
			vals:     make([]graph.ID, len(e.order)),
			runBufs:  make([][]wavelet.MatrixRange, len(e.order)),
			deadline: e.deadline,
			ctx:      ctx,
			stats:    &EvalStats{},
		}
		for _, p := range e.pats {
			we.pats = append(we.pats, patternEntry{tp: p.tp, it: forkIter(idx, p)})
		}
		var err error
		if we.varIters, err = buildVarIters(e.order, we.pats); err != nil {
			return err // unreachable: the sequential setup already validated
		}
		workers[w] = we
	}
	e.ctx = ctx // let the producer's checkDeadline observe cancellation

	tasks := make(chan []graph.ID, 2*nworkers)
	sols := make(chan []graph.ID, solBuffer)
	errs := make(chan error, nworkers+1)

	go func() {
		defer close(tasks)
		err := e.produce(ctx, tasks)
		if err != nil && err != errCancelled {
			cancel() // e.g. producer timeout: stop the workers promptly
		}
		errs <- err
	}()

	var wg sync.WaitGroup
	for _, we := range workers {
		we := we
		we.emit = func(_ []string, vals []graph.ID) bool {
			select {
			case sols <- slices.Clone(vals):
				return true
			case <-ctx.Done():
				return false
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := we.drain(tasks)
			if err != nil && err != errCancelled {
				cancel()
			}
			errs <- err
		}()
	}
	go func() {
		wg.Wait()
		close(sols)
	}()

	// Merge: the calling goroutine alone runs the caller's emit, so
	// Stream's contract (emit never called concurrently) holds. After
	// emit stops the evaluation we keep draining so no worker blocks on
	// a full channel before observing the cancellation.
	stopped := false
	for vals := range sols {
		if stopped {
			continue
		}
		if !e.emit(e.order, vals) {
			stopped = true
			cancel()
		}
	}

	// Workers are done (sols closed) and the producer is past its last
	// channel send, so collecting errors and stats is race-free.
	var firstErr error
	for i := 0; i < nworkers+1; i++ {
		if err := <-errs; err != nil && err != errCancelled && firstErr == nil {
			firstErr = err
		}
	}
	for _, we := range workers {
		e.stats.Leaps += we.stats.Leaps
		e.stats.Binds += we.stats.Binds
		e.stats.Enumerations += we.stats.Enumerations
		e.stats.Seeks += we.stats.Seeks
		e.stats.BatchDescents += we.stats.BatchDescents
		e.stats.BatchEmits += we.stats.BatchEmits
	}
	return firstErr
}

// produce enumerates the first variable's candidate values — mirroring
// search(0)'s candidate generation exactly — and ships them to the
// workers in contiguous chunks of geometrically growing size.
func (e *evaluator) produce(ctx context.Context, tasks chan<- []graph.ID) error {
	ivs := e.varIters[0]
	batchCap := 1
	batch := make([]graph.ID, 0, batchCap)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case tasks <- batch:
		case <-ctx.Done():
			return false
		}
		if batchCap < maxBatch {
			batchCap *= 2
		}
		batch = make([]graph.ID, 0, batchCap)
		return true
	}
	add := func(v graph.ID) bool {
		batch = append(batch, v)
		if len(batch) == cap(batch) {
			return flush()
		}
		return true
	}

	// Lonely-variable fast path, as in search (Section 4.2).
	if !e.opt.DisableLonely && len(ivs) == 1 && len(ivs[0].positions) == 1 &&
		ivs[0].it.CanEnumerate(ivs[0].positions[0]) {
		var rerr error
		ivs[0].it.Enumerate(ivs[0].positions[0], func(c graph.ID) bool {
			if rerr = e.checkDeadline(); rerr != nil {
				return false
			}
			e.stats.Enumerations++
			if !add(c) {
				rerr = errCancelled
				return false
			}
			return true
		})
		if rerr != nil {
			return rerr
		}
		if !flush() {
			return errCancelled
		}
		return nil
	}

	// Batched radix-intersection lane, as in search: the intersection's
	// emissions are exactly the values the seek loop below would accept.
	if rs, ok := e.batchRuns(0, ivs); ok {
		e.stats.BatchDescents++
		var rerr error
		wavelet.IntersectRanges(rs, func(cv uint64) bool {
			if rerr = e.checkDeadline(); rerr != nil {
				return false
			}
			e.stats.BatchEmits++
			if !add(graph.ID(cv)) {
				rerr = errCancelled
				return false
			}
			return true
		})
		if rerr != nil {
			return rerr
		}
		if !flush() {
			return errCancelled
		}
		return nil
	}

	// General seek loop, as in search.
	c := graph.ID(0)
	for {
		if err := e.checkDeadline(); err != nil {
			return err
		}
		v, ok, err := e.seek(ivs, c)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if !add(v) {
			return errCancelled
		}
		if v == graph.MaxID {
			break // the "c = v + 1" below would wrap to 0
		}
		c = v + 1
	}
	if !flush() {
		return errCancelled
	}
	return nil
}

// drain is a worker's main loop: every candidate value of the first
// variable takes search(0)'s per-value step — descend — on the worker's
// forked iterators.
func (we *evaluator) drain(tasks <-chan []graph.ID) error {
	ivs := we.varIters[0]
	for batch := range tasks {
		for _, v := range batch {
			if err := we.checkDeadline(); err != nil {
				return err
			}
			if err := we.descend(0, ivs, v); err != nil {
				return err
			}
			if we.stopped {
				return nil
			}
		}
	}
	return nil
}
