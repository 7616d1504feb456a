// Package dynamic implements the update strategy the paper sketches in
// its conclusions: the ring itself is read-only, but amortised updates
// come from "taking the union of results over a small dynamic index
// where new triples are added, and a constant amount of increasing
// static rings for handling space overflows", with rings "merged
// periodically ... to build a bigger ring".
//
// Concretely, a Store keeps
//
//   - a memtable of recent insertions, held as a flat-trie index (six
//     sorted copies; it is small, so the 6x space is negligible) that the
//     writer keeps sorted: each batch is sorted six ways before the
//     writer lock is taken and merged in under it, a delete rewrites the
//     arrays without the triple, and every published snapshot carries the
//     index ready to query;
//   - a bounded list of static rings of geometrically growing size.
//
// When the memtable exceeds its threshold it is frozen into a new ring
// (its index serves the frozen chunk's reads until the ring lands);
// when that would exceed the ring budget, the smallest rings are merged
// (we rebuild from the union — the paper points at BWT-merging
// algorithms as the optimised alternative). Queries run the ordinary LTJ
// engine over a union trie-iterator whose leap is the minimum of the
// components' leaps, preserving worst-case optimality up to the constant
// number of components.
//
// Deletions are supported with rebuild semantics: deleting a triple held
// by a static ring rebuilds that ring without it. This is expensive but
// exact; the paper's dynamic-wavelet-tree alternative (O(log U log n)
// updates) trades query time instead.
//
// # Concurrency: one writer, many readers
//
// The store is safe for one mutating goroutine plus any number of
// concurrent readers. Every mutation publishes an immutable Snapshot
// (an epoch: the memtable contents, the chunk currently being flushed,
// and the ring list) through an atomic pointer; readers pin a snapshot
// once per query and never observe a half-applied flush or merge. With
// Options.Background set, flushes and merges run on a dedicated
// compaction goroutine: the writer freezes the memtable and continues,
// and only blocks (backpressure) when the fresh memtable fills up again
// before the previous freeze has been compacted.
package dynamic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/baseline/flattrie"
	"repro/internal/graph"
	"repro/internal/ltj"
	"repro/internal/ring"
)

// Options configures a dynamic store.
type Options struct {
	// MemtableThreshold is the number of buffered triples that triggers a
	// flush into a static ring. 0 means 4096.
	MemtableThreshold int
	// MaxRings bounds the number of static rings ("a constant amount of
	// increasing static rings"). 0 means 4.
	MaxRings int
	// Ring configures the physical representation of the static rings.
	Ring ring.Options
	// Background moves flushes and merges to a dedicated compaction
	// goroutine: Add returns as soon as the triple is in the memtable, and
	// ring construction happens off the writer path. Writers block only
	// when the memtable reaches twice its threshold while a compaction is
	// still running. Stores with Background set must be Close()d.
	Background bool
	// OnCompact, when non-nil, is called after every completed background
	// flush or merge, outside all store locks — the persistence layer
	// checkpoints rings to disk from it. Only used with Background.
	OnCompact func()
}

// empty is the index of an empty memtable; indexes are immutable, so all
// stores share it.
var empty = flattrie.FromTriples(nil)

// Store is a dynamic triple store backed by static rings.
type Store struct {
	opt Options

	// Writer state, guarded by mu. The memtable indexes are immutable
	// values the writer replaces (flattrie.Index is copy-on-write), so
	// published snapshots share them without copying.
	mu     sync.Mutex
	cond   *sync.Cond      // broadcast when frozen drains or rings change
	mem    *flattrie.Index //ringlint:guarded-by mu
	frozen *flattrie.Index // memtable chunk being flushed (empty when idle) //ringlint:guarded-by mu
	rings  []*ring.Ring    // oldest first //ringlint:guarded-by mu
	numSO  graph.ID        //ringlint:guarded-by mu
	numP   graph.ID        //ringlint:guarded-by mu
	n      int             //ringlint:guarded-by mu
	gen    uint64          //ringlint:guarded-by mu
	closed bool            //ringlint:guarded-by mu

	compactions atomic.Uint64

	view atomic.Pointer[Snapshot]

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
}

// New creates an empty dynamic store.
func New(opt Options) *Store {
	if opt.MemtableThreshold <= 0 {
		opt.MemtableThreshold = 4096
	}
	if opt.MaxRings <= 0 {
		opt.MaxRings = 4
	}
	s := &Store{opt: opt, mem: empty, frozen: empty}
	s.cond = sync.NewCond(&s.mu)
	s.publishLocked()
	if opt.Background {
		s.compactCh = make(chan struct{}, 1)
		s.done = make(chan struct{})
		s.wg.Add(1)
		go s.compactLoop()
	}
	return s
}

// FromGraph creates a store pre-loaded with one static ring over g.
func FromGraph(g *graph.Graph, opt Options) *Store {
	s := New(opt)
	s.mu.Lock()
	if g.Len() > 0 {
		s.rings = append(s.rings, ring.New(g, s.opt.Ring))
		s.n = g.Len()
	}
	s.numSO, s.numP = g.NumSO(), g.NumP()
	s.publishLocked()
	s.mu.Unlock()
	return s
}

// FromRings creates a store pre-loaded with the given static rings, which
// must hold pairwise-disjoint triple sets (the persistence layer restores
// checkpointed rings this way). The rings are shared, not copied.
func FromRings(rings []*ring.Ring, numSO, numP graph.ID, opt Options) *Store {
	s := New(opt)
	s.mu.Lock()
	for _, r := range rings {
		if r.Len() == 0 {
			continue
		}
		s.rings = append(s.rings, r)
		s.n += r.Len()
	}
	s.numSO, s.numP = numSO, numP
	s.publishLocked()
	s.mu.Unlock()
	return s
}

// Close stops the background compaction goroutine (no-op for synchronous
// stores). The store remains queryable; further mutations are rejected by
// panicking, as they would silently stop compacting.
func (s *Store) Close() {
	if !s.opt.Background {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast() // release any writer blocked on backpressure
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
}

// Snapshot returns the current epoch: an immutable view of the store for
// any number of concurrent readers. Pin one snapshot per query so every
// pattern of the query sees the same triple set.
func (s *Store) Snapshot() *Snapshot { return s.view.Load() }

// Generation returns the current epoch number; it increases on every
// applied mutation, flush and merge. Serving layers key caches on it.
func (s *Store) Generation() uint64 { return s.Snapshot().gen }

// Compactions returns the number of completed background flushes and
// merges (monitoring).
func (s *Store) Compactions() uint64 { return s.compactions.Load() }

// Len returns the number of distinct triples currently stored.
func (s *Store) Len() int { return s.Snapshot().n }

// Rings returns the current number of static rings (for tests and
// monitoring).
func (s *Store) Rings() int { return len(s.Snapshot().rings) }

// MemtableLen returns the number of buffered triples (including a chunk
// frozen for an in-flight background flush).
func (s *Store) MemtableLen() int {
	return s.Snapshot().MemtableLen()
}

// Domains returns the current identifier-space sizes.
func (s *Store) Domains() (numSO, numP graph.ID) {
	v := s.Snapshot()
	return v.numSO, v.numP
}

// Contains reports whether the triple is stored.
func (s *Store) Contains(t graph.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.containsLocked(t)
}

func (s *Store) containsLocked(t graph.Triple) bool {
	if s.mem.Contains(t) || s.frozen.Contains(t) {
		return true
	}
	for _, r := range s.rings {
		if ringContains(r, t) {
			return true
		}
	}
	return false
}

func ringContains(r *ring.Ring, t graph.Triple) bool {
	ps := r.NewPatternState(graph.TP(graph.Const(t.S), graph.Const(t.P), graph.Const(t.O)))
	return !ps.Empty()
}

// Add inserts a triple; duplicates are ignored. Insertion copies the
// memtable index once; a flush costs one ring construction (off the
// writer path with Options.Background).
func (s *Store) Add(t graph.Triple) {
	s.AddBatch([]graph.Triple{t})
}

// AddBatch inserts many triples under one lock acquisition and publishes
// one new epoch — the preferred write path for ingestion layers. The batch
// is sorted six ways before the lock is taken; under it, the triples the
// store already holds are dropped and the rest merged into the memtable
// index, which costs one copy of the memtable.
func (s *Store) AddBatch(ts []graph.Triple) {
	b := flattrie.FromTriples(ts)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkOpenLocked()
	var dups []graph.Triple
	for _, t := range b.Triples() {
		if s.containsLocked(t) {
			dups = append(dups, t)
		}
	}
	b = b.Without(dups)
	s.mem = s.mem.Merge(b)
	s.n += b.Len()
	for _, t := range b.Triples() {
		if t.S >= s.numSO {
			s.numSO = t.S + 1
		}
		if t.O >= s.numSO {
			s.numSO = t.O + 1
		}
		if t.P >= s.numP {
			s.numP = t.P + 1
		}
	}
	if b.Len() > 0 {
		s.publishLocked()
	}
	s.maybeFlushLocked()
}

// Delete removes a triple if present. Removing from the memtable is
// cheap; removing from a static ring rebuilds that ring (exact but
// expensive — batch deletions when possible). A delete that targets the
// chunk frozen for an in-flight background flush waits for that flush to
// land first.
func (s *Store) Delete(t graph.Triple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkOpenLocked()
	if s.mem.Contains(t) {
		s.mem = s.mem.Without([]graph.Triple{t})
		s.n--
		s.publishLocked()
		return true
	}
	// The frozen chunk is immutable while the compactor builds its ring;
	// wait for it to land as a ring, then delete through the ring path
	// (with a single writer the triple cannot move anywhere else).
	for s.frozen.Contains(t) {
		s.cond.Wait()
	}
	for i, r := range s.rings {
		if !ringContains(r, t) {
			continue
		}
		kept := make([]graph.Triple, 0, r.Len()-1)
		for _, u := range r.Triples() {
			if u != t {
				kept = append(kept, u)
			}
		}
		if len(kept) == 0 {
			s.rings = append(s.rings[:i:i], s.rings[i+1:]...)
		} else {
			g := graph.NewWithDomains(kept, s.numSO, s.numP)
			nrings := append([]*ring.Ring(nil), s.rings...)
			nrings[i] = ring.New(g, s.opt.Ring)
			s.rings = nrings
		}
		s.n--
		s.publishLocked()
		s.cond.Broadcast()
		return true
	}
	return false
}

func (s *Store) checkOpenLocked() {
	if s.closed {
		panic("dynamic: mutation after Close")
	}
}

// publishLocked installs a new immutable epoch. mu must be held.
func (s *Store) publishLocked() {
	s.gen++
	s.view.Store(&Snapshot{
		mem:    s.mem,
		frozen: s.frozen,
		rings:  s.rings[:len(s.rings):len(s.rings)],
		numSO:  s.numSO,
		numP:   s.numP,
		n:      s.n,
		gen:    s.gen,
	})
}

// maybeFlushLocked triggers a flush when the memtable crosses its
// threshold: inline for synchronous stores, by signalling the compactor —
// and applying backpressure at twice the threshold — for background ones.
func (s *Store) maybeFlushLocked() {
	if s.mem.Len() < s.opt.MemtableThreshold {
		return
	}
	if !s.opt.Background {
		s.flushLocked()
		for len(s.rings) > s.opt.MaxRings {
			s.mergeSmallestLocked()
		}
		s.publishLocked()
		return
	}
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
	// Backpressure: the previous freeze has not compacted yet and the new
	// memtable is full again — wait for the compactor to catch up.
	for s.mem.Len() >= 2*s.opt.MemtableThreshold && !s.closed {
		s.cond.Wait()
	}
}

// FlushNow synchronously freezes the memtable into a static ring (even
// below the threshold), waits for any in-flight background compaction,
// and enforces the ring budget. On return every stored triple lives in a
// static ring — the persistence layer checkpoints from this state.
func (s *Store) FlushNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.frozen.Len() > 0 {
		s.cond.Wait()
	}
	s.flushLocked()
	for len(s.rings) > s.opt.MaxRings {
		s.mergeSmallestLocked()
	}
	s.publishLocked()
}

// flushLocked freezes the memtable into a static ring inline. mu held.
func (s *Store) flushLocked() {
	if s.mem.Len() == 0 {
		return
	}
	g := graph.NewWithDomains(s.mem.Triples(), s.numSO, s.numP)
	s.rings = append(s.rings[:len(s.rings):len(s.rings)], ring.New(g, s.opt.Ring))
	s.mem = empty
}

// Compact merges everything — memtable and all rings — into one ring.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkOpenLocked()
	for s.frozen.Len() > 0 {
		s.cond.Wait()
	}
	all := s.allTriplesLocked()
	s.mem = empty
	s.rings = nil
	if len(all) > 0 {
		g := graph.NewWithDomains(all, s.numSO, s.numP)
		s.rings = []*ring.Ring{ring.New(g, s.opt.Ring)}
		s.n = g.Len()
	} else {
		s.n = 0
	}
	s.publishLocked()
}

// mergeSmallestLocked merges the two smallest rings into one, inline.
// mu must be held.
func (s *Store) mergeSmallestLocked() {
	if len(s.rings) < 2 {
		return
	}
	a, b := s.smallestPairLocked()
	merged := append(s.rings[a].Triples(), s.rings[b].Triples()...)
	g := graph.NewWithDomains(merged, s.numSO, s.numP)
	nr := ring.New(g, s.opt.Ring)
	// Remove b first (the larger index), then replace a, on fresh slices
	// so published snapshots keep their ring list.
	nrings := append([]*ring.Ring(nil), s.rings...)
	nrings = append(nrings[:b], nrings[b+1:]...)
	nrings[a] = nr
	s.rings = nrings
}

// smallestPairLocked returns the indices of the two smallest rings, a < b.
func (s *Store) smallestPairLocked() (int, int) {
	a, b := 0, 1
	for i, r := range s.rings {
		if r.Len() < s.rings[a].Len() {
			a, b = i, a
		} else if i != a && r.Len() < s.rings[b].Len() {
			b = i
		}
	}
	if a > b {
		a, b = b, a
	}
	return a, b
}

// compactLoop is the background compaction goroutine: it freezes full
// memtables into rings and merges rings beyond the budget, holding the
// writer lock only to swap state — ring construction runs unlocked.
func (s *Store) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
		}
		s.compactOnce()
	}
}

func (s *Store) compactOnce() {
	worked := false
	s.mu.Lock()
	for !s.closed {
		switch {
		case s.mem.Len() >= s.opt.MemtableThreshold:
			frozen, numSO, numP := s.freezeLocked()
			s.mu.Unlock()
			r := ring.New(graph.NewWithDomains(frozen.Triples(), numSO, numP), s.opt.Ring)
			s.mu.Lock()
			s.landFrozenLocked(r)
			worked = true
		case len(s.rings) > s.opt.MaxRings:
			ai, bi := s.smallestPairLocked()
			ra, rb := s.rings[ai], s.rings[bi]
			numSO, numP := s.numSO, s.numP
			s.mu.Unlock()
			merged := append(ra.Triples(), rb.Triples()...)
			nr := ring.New(graph.NewWithDomains(merged, numSO, numP), s.opt.Ring)
			s.mu.Lock()
			// A concurrent Delete may have rebuilt or removed either input
			// while we merged; the merged ring would resurrect the deleted
			// triple, so install only if both inputs survived unchanged.
			ai, bi = s.ringIndexLocked(ra), s.ringIndexLocked(rb)
			if ai < 0 || bi < 0 {
				continue // retry against the current ring list
			}
			if ai > bi {
				ai, bi = bi, ai
			}
			nrings := append([]*ring.Ring(nil), s.rings...)
			nrings = append(nrings[:bi], nrings[bi+1:]...)
			nrings[ai] = nr
			s.rings = nrings
			s.compactions.Add(1)
			s.publishLocked()
			s.cond.Broadcast()
			worked = true
		default:
			s.mu.Unlock()
			if worked && s.opt.OnCompact != nil {
				s.opt.OnCompact()
			}
			return
		}
	}
	s.mu.Unlock()
	if worked && s.opt.OnCompact != nil {
		s.opt.OnCompact()
	}
}

// freezeLocked hands the memtable index over as the frozen chunk's and
// starts an empty memtable; it returns what the ring construction needs.
// mu must be held and no chunk may be frozen already.
func (s *Store) freezeLocked() (frozen *flattrie.Index, numSO, numP graph.ID) {
	s.frozen, s.mem = s.mem, empty
	s.publishLocked()
	s.cond.Broadcast() // writers blocked on backpressure may resume
	return s.frozen, s.numSO, s.numP
}

// landFrozenLocked installs r, the ring built from the frozen chunk, in
// the chunk's place. mu must be held.
func (s *Store) landFrozenLocked(r *ring.Ring) {
	s.rings = append(s.rings[:len(s.rings):len(s.rings)], r)
	s.frozen = empty
	s.compactions.Add(1)
	s.publishLocked()
	s.cond.Broadcast()
}

// ReplaceRing swaps old for new in the ring list, by pointer identity.
// The persistence layer uses it to substitute a freshly mapped on-disk
// ring for its heap-built equivalent after a checkpoint: the contents
// are identical, only the backing memory changes. It returns false — and
// installs nothing — if old has already left the store (merged away or
// rebuilt by a delete) or if the lengths disagree. Snapshots pinned
// before the swap keep reading the old ring; the copy-on-write ring list
// means they never observe the mutation.
func (s *Store) ReplaceRing(old, nw *ring.Ring) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.ringIndexLocked(old)
	if i < 0 || old.Len() != nw.Len() {
		return false
	}
	nrings := append([]*ring.Ring(nil), s.rings...)
	nrings[i] = nw
	s.rings = nrings
	s.publishLocked()
	return true
}

// ringIndexLocked finds r in the current ring list by identity, -1 if gone.
func (s *Store) ringIndexLocked(r *ring.Ring) int {
	for i, x := range s.rings {
		if x == r {
			return i
		}
	}
	return -1
}

// allTriplesLocked materialises the full triple set (for compaction and
// verification). mu must be held.
func (s *Store) allTriplesLocked() []graph.Triple {
	var out []graph.Triple
	out = append(out, s.frozen.Triples()...)
	out = append(out, s.mem.Triples()...)
	for _, r := range s.rings {
		out = append(out, r.Triples()...)
	}
	return out
}

// Graph exports the current contents as an immutable graph.
func (s *Store) Graph() *graph.Graph { return s.Snapshot().Graph() }

// SizeBytes returns the total footprint (rings + memtable index).
func (s *Store) SizeBytes() int { return s.Snapshot().SizeBytes() }

// NewPatternIter returns a union trie-iterator over the memtable and all
// static rings, so the standard LTJ engine evaluates joins over the
// dynamic store unchanged. Each call pins the current epoch; callers
// evaluating multi-pattern queries should pin one Snapshot themselves so
// all patterns agree.
func (s *Store) NewPatternIter(tp graph.TriplePattern) ltj.PatternIter {
	return s.Snapshot().NewPatternIter(tp)
}

// Evaluate runs LTJ over one consistent epoch of the store.
func (s *Store) Evaluate(q graph.Pattern, opt ltj.Options) (*ltj.Result, error) {
	return s.Snapshot().Evaluate(q, opt)
}

// Check verifies internal invariants (for tests): the stored count
// matches the materialised set.
func (s *Store) Check() error {
	v := s.Snapshot()
	g := v.Graph()
	if g.Len() != v.n {
		return fmt.Errorf("dynamic: count %d but %d distinct triples materialise", v.n, g.Len())
	}
	return nil
}

// Snapshot is one immutable epoch of a Store: the memtable index (plus
// that of any chunk frozen for an in-flight flush) and the ring list as of
// one publish. Any number of goroutines may query a snapshot concurrently;
// it never changes once obtained.
type Snapshot struct {
	mem    *flattrie.Index
	frozen *flattrie.Index
	rings  []*ring.Ring
	numSO  graph.ID
	numP   graph.ID
	n      int
	gen    uint64
}

// Generation returns the epoch number of this snapshot.
func (v *Snapshot) Generation() uint64 { return v.gen }

// Len returns the number of distinct triples in this epoch.
func (v *Snapshot) Len() int { return v.n }

// Rings returns the epoch's static rings, oldest first. The slice and the
// rings are shared read-only — callers must not mutate them.
func (v *Snapshot) Rings() []*ring.Ring { return v.rings }

// Domains returns the epoch's identifier-space sizes.
func (v *Snapshot) Domains() (numSO, numP graph.ID) { return v.numSO, v.numP }

// MemtableLen returns the number of buffered (un-flushed) triples.
func (v *Snapshot) MemtableLen() int { return v.mem.Len() + v.frozen.Len() }

// NewPatternIter returns a union trie-iterator over the components of this
// epoch that hold a triple matching tp. Binds only narrow a component's
// range, so one empty at creation stays empty and is left out; a lone
// component is returned as it is, so a snapshot of one ring hands LTJ the
// ring's own iterator (and its batched lane).
func (v *Snapshot) NewPatternIter(tp graph.TriplePattern) ltj.PatternIter {
	var parts []ltj.PatternIter
	add := func(it ltj.PatternIter) {
		if !it.Empty() {
			parts = append(parts, it)
		}
	}
	for _, m := range [2]*flattrie.Index{v.frozen, v.mem} {
		if m.Len() > 0 {
			add(m.NewPatternIter(tp))
		}
	}
	for _, r := range v.rings {
		add(r.NewPatternState(tp))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return &unionIter{parts: parts}
}

// Evaluate runs LTJ over this epoch.
func (v *Snapshot) Evaluate(q graph.Pattern, opt ltj.Options) (*ltj.Result, error) {
	return ltj.Evaluate(ltj.IndexFunc(v.NewPatternIter), q, opt)
}

// Triples materialises the epoch's full triple set.
func (v *Snapshot) Triples() []graph.Triple {
	var out []graph.Triple
	out = append(out, v.frozen.Triples()...)
	out = append(out, v.mem.Triples()...)
	for _, r := range v.rings {
		out = append(out, r.Triples()...)
	}
	return out
}

// Graph exports the epoch's contents as an immutable graph.
func (v *Snapshot) Graph() *graph.Graph {
	return graph.NewWithDomains(v.Triples(), v.numSO, v.numP)
}

// SizeBytes returns the epoch's total footprint (rings + memtable index).
func (v *Snapshot) SizeBytes() int {
	total := 64
	for _, m := range [2]*flattrie.Index{v.frozen, v.mem} {
		if m.Len() > 0 {
			total += m.SizeBytes()
		}
	}
	for _, r := range v.rings {
		total += r.SizeBytes()
	}
	return total
}

// unionIter merges component trie-iterators: the components partition the
// triple set, so counts add and leap is the minimum over components.
type unionIter struct {
	parts []ltj.PatternIter
}

func (u *unionIter) Count() int {
	total := 0
	for _, p := range u.parts {
		total += p.Count()
	}
	return total
}

func (u *unionIter) Empty() bool { return u.Count() == 0 }

func (u *unionIter) Leap(pos graph.Position, c graph.ID) (graph.ID, bool) {
	best, found := graph.ID(0), false
	for _, p := range u.parts {
		if p.Empty() {
			continue
		}
		if v, ok := p.Leap(pos, c); ok && (!found || v < best) {
			best, found = v, true
		}
	}
	return best, found
}

func (u *unionIter) Bind(pos graph.Position, c graph.ID) {
	for _, p := range u.parts {
		p.Bind(pos, c)
	}
}

func (u *unionIter) Unbind() {
	for _, p := range u.parts {
		p.Unbind()
	}
}

// CanEnumerate requires every non-empty component to support enumeration
// at pos; the union is then a sorted merge.
func (u *unionIter) CanEnumerate(pos graph.Position) bool {
	for _, p := range u.parts {
		if !p.Empty() && !p.CanEnumerate(pos) {
			return false
		}
	}
	return true
}

// Enumerate merges the components' sorted enumerations lazily,
// deduplicating, and stops as soon as visit does. The largest non-empty
// component enumerates natively; each other one contributes through Leap,
// holding its next value until the merge reaches it. With one non-empty
// component left the call is delegated to it.
func (u *unionIter) Enumerate(pos graph.Position, visit func(graph.ID) bool) {
	main := -1
	for i, p := range u.parts {
		if !p.Empty() && (main < 0 || p.Count() > u.parts[main].Count()) {
			main = i
		}
	}
	if main < 0 {
		return
	}
	var heads []leapHead
	for i, p := range u.parts {
		if i == main || p.Empty() {
			continue
		}
		if v, ok := p.Leap(pos, 0); ok {
			heads = append(heads, leapHead{p, v})
		}
	}
	if len(heads) == 0 {
		u.parts[main].Enumerate(pos, visit)
		return
	}
	stopped := false
	u.parts[main].Enumerate(pos, func(v graph.ID) bool {
		for {
			m, ok := minHead(heads)
			if !ok || m > v {
				break
			}
			heads = advance(heads, pos, m)
			if m < v && !visit(m) {
				stopped = true
				return false
			}
		}
		if !visit(v) {
			stopped = true
			return false
		}
		return true
	})
	for !stopped {
		m, ok := minHead(heads)
		if !ok {
			return
		}
		heads = advance(heads, pos, m)
		stopped = !visit(m)
	}
}

// leapHead is a component's next unmerged value in Enumerate.
type leapHead struct {
	it ltj.PatternIter
	v  graph.ID
}

// minHead returns the smallest pending value, if any.
func minHead(heads []leapHead) (graph.ID, bool) {
	if len(heads) == 0 {
		return 0, false
	}
	m := heads[0].v
	for _, h := range heads[1:] {
		m = min(m, h.v)
	}
	return m, true
}

// advance moves every head holding m to its component's next value,
// dropping the components that have none.
func advance(heads []leapHead, pos graph.Position, m graph.ID) []leapHead {
	for i := 0; i < len(heads); {
		h := &heads[i]
		if h.v == m {
			var ok bool
			if m < graph.MaxID {
				h.v, ok = h.it.Leap(pos, m+1)
			}
			if !ok {
				heads[i] = heads[len(heads)-1]
				heads = heads[:len(heads)-1]
				continue
			}
		}
		i++
	}
	return heads
}
