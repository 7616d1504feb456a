// Package guardedby is a ringlint test fixture: positive and negative
// cases for the guardedby lock-discipline analyzer.
package guardedby

import "sync"

type counterSet struct {
	mu sync.Mutex
	n  int //ringlint:guarded-by mu
	m  map[string]int
}

func unlocked(c *counterSet) int {
	return c.n // want "access to c.n without holding mu"
}

func locked(c *counterSet) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n // negative: lock held via defer
}

func lockUnlock(c *counterSet) {
	c.mu.Lock()
	c.n++ // negative: between Lock and Unlock
	c.mu.Unlock()
	c.n-- // want "access to c.n without holding mu"
}

func earlyReturn(c *counterSet, quit bool) int {
	c.mu.Lock()
	if quit {
		c.mu.Unlock()
		return 0
	}
	v := c.n // negative: the unlock above belongs to the returning branch
	c.mu.Unlock()
	return v
}

func wrongReceiver(a, b *counterSet) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return b.n // want "access to b.n without holding mu"
}

func unguardedField(c *counterSet) map[string]int {
	return c.m // negative: field carries no directive
}

// bumpLocked relies on the caller-holds-the-lock naming convention.
func (c *counterSet) bumpLocked() {
	c.n++ // negative: *Locked suffix means the caller holds mu
}

// bump is the locking wrapper.
func (c *counterSet) bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
}

func constructor() *counterSet {
	c := &counterSet{}
	c.n = 1 // negative: constructed here, not shared yet
	return c
}

func closureResets(c *counterSet) func() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() int {
		return c.n // want "access to c.n without holding mu"
	}
}

func reviewed(c *counterSet) int {
	//ringlint:allow guardedby -- fixture: reviewed lock-free fast path
	return c.n // negative: allow suppression
}
