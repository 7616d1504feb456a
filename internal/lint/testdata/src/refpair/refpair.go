// Package refpair is a ringlint test fixture: positive and negative
// cases for the acquire/release pairing analyzer.
package refpair

import "os"

type region struct{ refs int }

func Map(path string) (*region, error) { return &region{refs: 1}, nil }

func (r *region) Release() { r.refs-- }

type sem struct{ used int }

func (s *sem) acquire(w int) error { s.used += w; return nil }
func (s *sem) release(w int)       { s.used -= w }

func use(r *region) {}

func leakOnReturn(path string) error {
	r, err := Map(path)
	if err != nil {
		return err // negative: the acquire failed on this branch
	}
	use(r)
	return nil // want "not released or transferred"
}

func releasedOnAllPaths(path string) error {
	r, err := Map(path)
	if err != nil {
		return err
	}
	defer r.Release()
	use(r)
	return nil // negative: deferred release covers every exit
}

func deferredClosureRelease(path string) error {
	r, err := Map(path)
	if err != nil {
		return err
	}
	defer func() { r.Release() }()
	use(r)
	return nil // negative: the deferred closure releases
}

func explicitRelease(path string) error {
	r, err := Map(path)
	if err != nil {
		return err
	}
	use(r)
	r.Release()
	return nil // negative
}

func leakOnBranch(path string) (*region, error) {
	r, err := Map(path)
	if err != nil {
		return nil, err
	}
	if r.refs > 1 {
		return nil, nil // want "not released or transferred"
	}
	return r, nil // negative: transfer by return
}

var global *region

func transferToGlobal(path string) error {
	r, err := Map(path)
	if err != nil {
		return err
	}
	global = r // negative: package-level owner takes over
	return nil
}

func annotatedTransfer(path string) error {
	//ringlint:transfer r -- fixture: handed off to a finalizer
	r, err := Map(path)
	if err != nil {
		return err
	}
	use(r)
	return nil // negative: annotated handoff
}

func weightHeld(s *sem) error {
	if err := s.acquire(1); err != nil {
		return err
	}
	defer s.release(1)
	return nil // negative
}

func weightDropped(s *sem) error {
	if err := s.acquire(1); err != nil {
		return err
	}
	return nil // want "not released or transferred"
}

func exitHolding(path string) {
	r, err := Map(path)
	if err != nil {
		return
	}
	use(r)
	os.Exit(0) // negative: the dying process owes nothing
}
