package ltj

// The per-evaluation plan (DESIGN.md §13). Before the first leap the
// engine decides, from the elimination order alone, what each depth of the
// search does with a value: which iterators mention the variable and at
// which positions, which of them a deeper variable reads (descend binds
// only those), and whether a lonely depth may replay the values it
// enumerated on an earlier entry instead of enumerating again.
//
// Replay. Take a lonely depth j whose variable lives in pattern P, and let
// dep(j) be the deepest earlier depth whose variable occurs in P (-1 if
// none). P's range at search(j) depends only on the values at depths ≤
// dep(j), and search(j) is reachable only through descend(dep(j)), so the
// number of descend calls at dep(j) so far identifies that range. Where
// dep(j) < j-1, the depths in between re-enter search(j) under the same
// count once per value of theirs: a Cartesian product of P's values with
// theirs, which plain backtracking (LFTJ) would enumerate afresh each time.
// The first complete enumeration under a count is recorded and the
// re-entries replay it, in the same order, through the same descend step.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wavelet"
)

// replayCap bounds the values one lonely depth records: 4096 IDs, 16 KB a
// depth whatever the query's Limit. It exceeds the WGPB protocol's limit
// and the server's default limit, both 1000. A longer enumeration is not
// recorded and re-runs on every entry, as it does without replay.
const replayCap = 4096

// iterVar is one iterator's part in one depth: the positions the depth's
// variable occupies in pattern pat.
type iterVar struct {
	it        PatternIter
	positions []graph.Position
	pat       int  // index into evaluator.pats
	bind      bool // a deeper variable reads this pattern, so descend binds it
}

// replayState says what a lonely depth's record holds for its key.
type replayState uint8

const (
	replayNone    replayState = iota // nothing usable: enumerate and record
	replayReady                      // a complete enumeration: replay it
	replayTooLong                    // longer than replayCap: enumerate, do not record
)

// depth is the plan and the running state of one depth of the order.
type depth struct {
	ivs      []iterVar             // the iterators mentioning the variable, in pattern order
	runs     []wavelet.MatrixRange // the batched lane's ranges, live across the recursion below
	descents int                   // descend calls at this depth so far: the replay key of the depths below

	// The lonely lane; visit is nil when the depth cannot take it.
	visit     func(graph.ID) bool // Enumerate's callback, made once per evaluation
	err       error               // what stopped visit
	dep       int                 // deepest earlier depth reading the same pattern, -1 if none
	replays   bool                // dep < j-1: the same range comes back, so record it
	key       int                 // depths[dep].descents when record was taken
	state     replayState
	recording bool
	record    []graph.ID
}

// plan builds e.depths for e.order over e.pats.
func (e *evaluator) plan() error {
	// Every position of a pattern holds at most one variable, so no
	// slab below needs more than three entries per pattern.
	slab := 3 * len(e.pats)
	e.depths = make([]depth, len(e.order))
	ivs := make([]iterVar, 0, slab)
	positions := make([]graph.Position, 0, slab)
	var runs []wavelet.MatrixRange
	if !e.opt.DisableBatch {
		runs = make([]wavelet.MatrixRange, slab)
	}
	for j, name := range e.order {
		first := len(ivs)
		for i := range e.pats {
			p0 := len(positions)
			for pos := graph.PosS; pos <= graph.PosO; pos++ {
				if t := e.pats[i].tp.Term(pos); t.IsVar && t.Name == name {
					positions = append(positions, pos)
				}
			}
			if len(positions) > p0 {
				ivs = append(ivs, iterVar{it: e.pats[i].it, positions: positions[p0:len(positions):len(positions)], pat: i})
			}
		}
		if len(ivs) == first {
			return fmt.Errorf("ltj: variable %q not in query", name)
		}
		d := &e.depths[j]
		d.ivs = ivs[first:len(ivs):len(ivs)]
		if runs != nil {
			d.runs = runs[first:first:len(ivs)]
		}
	}
	for j := range e.depths {
		d := &e.depths[j]
		d.dep = -1
		for k := range d.ivs {
			for deeper := j + 1; deeper < len(e.depths) && !d.ivs[k].bind; deeper++ {
				d.ivs[k].bind = e.reads(deeper, d.ivs[k].pat)
			}
		}
		if e.opt.DisableLonely || len(d.ivs) != 1 || len(d.ivs[0].positions) != 1 {
			continue
		}
		for earlier := j - 1; earlier >= 0 && d.dep < 0; earlier-- {
			if e.reads(earlier, d.ivs[0].pat) {
				d.dep = earlier
			}
		}
		d.replays = d.dep < j-1
		d.visit = e.lonelyVisit(j, d)
	}
	return nil
}

// reads reports whether depth j's variable occurs in pattern pat.
func (e *evaluator) reads(j, pat int) bool {
	for _, iv := range e.depths[j].ivs {
		if iv.pat == pat {
			return true
		}
	}
	return false
}

// lonelyVisit is depth j's Enumerate callback: each value takes the same
// descend step the other lanes use, and is recorded while d.recording.
func (e *evaluator) lonelyVisit(j int, d *depth) func(graph.ID) bool {
	return func(c graph.ID) bool {
		if d.err = e.checkDeadline(); d.err != nil {
			return false
		}
		if d.recording {
			if len(d.record) < replayCap {
				d.record = append(d.record, c)
			} else {
				d.recording = false
			}
		}
		e.stats.Enumerations++
		d.err = e.descend(j, c)
		return d.err == nil && !e.stopped
	}
}

// enumerate eliminates lonely depth j by enumerating the distinct values
// of its pattern's range, or by replaying them when that range is the one
// recorded last.
func (e *evaluator) enumerate(j int, d *depth) error {
	iv := &d.ivs[0]
	d.err = nil
	if !d.replays {
		iv.it.Enumerate(iv.positions[0], d.visit)
		return d.err
	}
	key := 0
	if d.dep >= 0 {
		key = e.depths[d.dep].descents
	}
	if key == d.key {
		switch d.state {
		case replayReady:
			return e.replay(j, d)
		case replayTooLong:
			iv.it.Enumerate(iv.positions[0], d.visit)
			return d.err
		}
	}
	d.key, d.record, d.recording = key, d.record[:0], true
	iv.it.Enumerate(iv.positions[0], d.visit)
	switch {
	case d.err != nil || e.stopped:
		d.state = replayNone
	case d.recording:
		d.state = replayReady
	default:
		d.state = replayTooLong
	}
	d.recording = false
	return d.err
}

// replay feeds depth j the values its last complete enumeration produced,
// through the same steps the Enumerate callback takes.
func (e *evaluator) replay(j int, d *depth) error {
	if ringdebugEnabled {
		debugCheckReplay(d)
	}
	for _, c := range d.record {
		if err := e.checkDeadline(); err != nil {
			return err
		}
		e.stats.Enumerations++
		if err := e.descend(j, c); err != nil {
			return err
		}
		if e.stopped {
			return nil
		}
	}
	return nil
}
