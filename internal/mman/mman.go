// Package mman memory-maps immutable index files: every index load
// views bytes obtained here. A Region is a read-only byte view of one
// file: on Linux the bytes are a shared file mapping (so load cost is
// page faults, N processes share one physical copy, and cold pages never
// touch the heap); elsewhere the file is read into an anonymous slice,
// which is semantically identical but pays the copy.
//
// Lifetime: a Region has exactly one owner, which calls Release once;
// a second Release is an error. Slices handed out by Bytes alias the
// mapping and are invisible to the garbage collector — they do NOT keep
// the Region alive, and the mapping is deliberately never unmapped by a
// Region finalizer: a forgotten Release leaks address space until
// process exit, which is strictly safer than unmapping under a live
// structure whose aliases the collector cannot see. Owners that want
// reclamation tie the Region to the structure built over it (the persist
// layer sets a finalizer on the view-loaded ring that releases its
// Region; the static server holds its Region for the process lifetime).
package mman

import (
	"fmt"
	"sync/atomic"
)

// Region is a read-only view of one file, either memory-mapped or read
// into an anonymous slice (see Mapped).
type Region struct {
	data     []byte // immutable after Map; unmapped by Release
	path     string
	mapped   bool
	released atomic.Bool
}

// Map opens path read-only and maps (or on fallback platforms, reads)
// its contents. The caller owns the Region and must Release it once.
func Map(path string) (*Region, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	return &Region{data: data, path: path, mapped: mapped}, nil
}

// Bytes returns the mapped contents. The slice aliases the mapping: it
// must not be written to, and it becomes invalid at Release.
func (r *Region) Bytes() []byte {
	if ringdebugEnabled {
		r.debugCheckAlive("Bytes")
	}
	return r.data
}

// Len returns the mapped length in bytes.
func (r *Region) Len() int {
	if ringdebugEnabled {
		r.debugCheckAlive("Len")
	}
	return len(r.data)
}

// Mapped reports whether the bytes are a real file mapping (false on
// fallback platforms and for empty files).
func (r *Region) Mapped() bool { return r.mapped }

// Release unmaps the region. Only the first call unmaps; any later one
// returns an error.
func (r *Region) Release() error {
	if !r.released.CompareAndSwap(false, true) {
		return fmt.Errorf("mman: Release of already-unmapped region %s", r.path)
	}
	if !r.mapped {
		return nil
	}
	return unmapBytes(r.data)
}

// debugCheckAlive is the ringdebug use-after-unmap assertion: a view
// read after Release, which on a real mapping is a SIGSEGV waiting for
// an unlucky page.
func (r *Region) debugCheckAlive(op string) {
	if r.released.Load() {
		panic(fmt.Sprintf("ringdebug: mman: %s on %s after the region was unmapped", op, r.path))
	}
}
