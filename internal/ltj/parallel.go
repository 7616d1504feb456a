// Parallel intra-query evaluation (Options.Parallelism > 1).
//
// The leapfrog search tree decomposes cleanly by the first eliminated
// variable (Veldhuizen 2014): for every value v of the first variable's
// intersection, the subtree below the binding x0 = v is independent of
// every other subtree. The index structures behind the iterators
// (wavelet-matrix columns, C arrays, bitvector directories, sorted
// arrays) are immutable once built, so the subtrees can be explored by
// worker goroutines that share the index read-only and own only their
// iterator cursors.
//
// Division of labour, all of it the sequential engine's own code:
//
//   - a producer goroutine runs search(0) over the evaluation's own
//     iterators on an evaluator cut down to the first variable, so
//     whichever lane search takes (lonely enumeration, batched
//     intersection or the seek loop), each accepted value reaches descend
//     as that evaluator's last variable, and its emit batches the value
//     into contiguous chunks;
//   - K worker goroutines, each on iterators it opened itself, pull chunks
//     from a shared channel (cheap work stealing: a worker stuck on a
//     heavy hub value simply stops taking chunks, so skewed Zipf domains
//     do not straggle) and take search(0)'s per-value step, descend, on
//     every value;
//   - solutions merge through a bounded channel back onto the calling
//     goroutine, which is the only one that invokes the caller's emit —
//     streaming semantics, Limit short-circuit and Timeout behave as in
//     sequential mode, except that solution order is nondeterministic.
//
// Each worker explores a subset of the sequential search tree, so the
// per-worker work is bounded by the sequential wco bound; the union of
// the subsets is exactly the sequential tree, so the solution multiset is
// preserved and the summed EvalStats equal the sequential counts (the
// differential tests assert both).
package ltj

import (
	"context"
	"slices"
	"sync"

	"repro/internal/graph"
)

// maxBatch caps the candidates per work chunk. Chunks start at 1 and
// double up to this cap, so the head of a skewed domain (hub nodes with
// huge subtrees) is spread across workers value by value while long
// uniform tails move in bulk.
const maxBatch = 32

// solBuffer is the capacity of the bounded solution channel: large enough
// to decouple worker bursts from the caller's emit, small enough that a
// Limit short-circuit wastes little work.
const solBuffer = 256

// searchParallel distributes search(0) over opt.Parallelism workers. It
// is called on a fully set-up evaluator (iterators created, order chosen,
// depths planned) in place of e.search(0). The producer and every worker
// plan their own depths, so no lane buffer or replay record is shared.
func (e *evaluator) searchParallel(idx Index) error {
	//ringlint:detach -- default root when the caller set no opt.Context; callers with one are honoured below
	parent := context.Background()
	if e.opt.Context != nil {
		parent = e.opt.Context
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	// Every worker opens its own iterators. Creation binds a pattern's
	// constants (Lemma 3.6) and nothing else, and no variable is bound
	// above the first, so a fresh iterator is in exactly the state the
	// evaluation's own iterators are in at search(0).
	nworkers := e.opt.Parallelism
	workers := make([]*evaluator, nworkers)
	for w := range workers {
		we := &evaluator{
			opt:      e.opt,
			pats:     make([]patternEntry, len(e.pats)),
			order:    e.order,
			vals:     make([]graph.ID, len(e.order)),
			deadline: e.deadline,
			ctx:      ctx,
			stats:    &EvalStats{},
		}
		for i, p := range e.pats {
			we.pats[i] = patternEntry{tp: p.tp, it: idx.NewPatternIter(p.tp)}
		}
		if err := we.plan(); err != nil {
			return err // unreachable: the sequential setup already validated
		}
		workers[w] = we
	}

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
	// StreamSlots's contract (emit never called concurrently) holds. After
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

// produce runs search(0) on an evaluator cut down to the first variable —
// the evaluation's own iterators and stats, planned for that one depth —
// so every value search accepts reaches descend as the last variable,
// which binds nothing and whose emit ships the value to the workers in
// contiguous chunks of geometrically growing size.
func (e *evaluator) produce(ctx context.Context, tasks chan<- []graph.ID) error {
	batch := make([]graph.ID, 0, 1)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case tasks <- batch:
		case <-ctx.Done():
			return false
		}
		batch = make([]graph.ID, 0, min(2*cap(batch), maxBatch))
		return true
	}
	first := &evaluator{
		opt:      e.opt,
		pats:     e.pats,
		order:    e.order[:1],
		vals:     make([]graph.ID, 1),
		deadline: e.deadline,
		ctx:      ctx,
		stats:    e.stats,
		emit: func(_ []string, vals []graph.ID) bool {
			batch = append(batch, vals[0])
			return len(batch) < cap(batch) || flush()
		},
	}
	if err := first.plan(); err != nil {
		return err // unreachable: the sequential setup already validated
	}
	if err := first.search(0); err != nil {
		return err
	}
	if first.stopped || !flush() {
		return errCancelled
	}
	return nil
}

// drain is a worker's main loop: every candidate value of the first
// variable takes search(0)'s per-value step — descend — on the worker's
// own iterators.
func (we *evaluator) drain(tasks <-chan []graph.ID) error {
	for batch := range tasks {
		for _, v := range batch {
			if err := we.checkDeadline(); err != nil {
				return err
			}
			if err := we.descend(0, v); err != nil {
				return err
			}
			if we.stopped {
				return nil
			}
		}
	}
	return nil
}
