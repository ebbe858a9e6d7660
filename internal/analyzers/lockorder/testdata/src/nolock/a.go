// Fixture for lockorder's spanlint:nolock check: the lock-free Stats
// contract, including the shapes lockorder's class-based summaries
// alone would miss (function-local mutexes, sync.Locker, closures).
package nolock

import (
	"sync"
	"sync/atomic"
)

type S struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	n    int
	hits atomic.Int64
}

func (s *S) locked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func (s *S) helper() int { return s.locked() } // locks transitively

func (s *S) pure() int { return int(s.hits.Load()) }

// Stats reads only atomics: the contract holds.
//
// spanlint:nolock
func (s *S) Stats() int {
	return s.pure()
}

// BadStats takes the mutex directly.
//
// spanlint:nolock
func (s *S) BadStats() int {
	s.mu.Lock() // want `BadStats is marked spanlint:nolock but acquires a mutex here`
	defer s.mu.Unlock()
	return s.n
}

// BadStatsDeep reaches a lock through two levels of helpers.
//
// spanlint:nolock
func (s *S) BadStatsDeep() int {
	return s.helper() // want `BadStatsDeep is marked spanlint:nolock but calls helper, which acquires a mutex`
}

// BadStatsRead takes a read lock; still a lock.
//
// spanlint:nolock
func (s *S) BadStatsRead() int {
	s.rw.RLock() // want `BadStatsRead is marked spanlint:nolock but acquires a mutex here`
	defer s.rw.RUnlock()
	return s.n
}

func localLocked() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return 0
}

// BadStatsLocal reaches a function-local mutex, which has no lock class.
//
// spanlint:nolock
func (s *S) BadStatsLocal() int {
	return localLocked() // want `BadStatsLocal is marked spanlint:nolock but calls localLocked, which acquires a mutex`
}

// BadStatsLocker locks through the sync.Locker interface.
//
// spanlint:nolock
func (s *S) BadStatsLocker(l sync.Locker) int {
	l.Lock() // want `BadStatsLocker is marked spanlint:nolock but acquires a mutex here`
	defer l.Unlock()
	return s.n
}

// BadStatsClosure takes the mutex inside a function literal.
//
// spanlint:nolock
func (s *S) BadStatsClosure() int {
	read := func() int {
		s.mu.Lock() // want `BadStatsClosure is marked spanlint:nolock but acquires a mutex here`
		defer s.mu.Unlock()
		return s.n
	}
	return read()
}

func (s *S) lockedInLit() int {
	get := func() int { return s.locked() }
	return get()
}

// BadStatsLit reaches a helper that locks only from a function literal.
//
// spanlint:nolock
func (s *S) BadStatsLit() int {
	return s.lockedInLit() // want `BadStatsLit is marked spanlint:nolock but calls lockedInLit, which acquires a mutex`
}
