// Fixture for the lockorder analyzer: the repo's locking idioms that
// must stay clean (defer-unlock, explicit branch unlocks, the
// method-value unlock handoff, conditional lock+defer), and
// the discipline violations the contract forbids (leaked locks, locks
// held across panics, double-acquire, mode mismatches, and self-deadlock
// through a helper).
package lockorder

import "sync"

func work()        {}
func compute() int { return 1 }

// --- clean shapes ---

func okDefer(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	work()
}

func okRW(mu *sync.RWMutex) {
	mu.RLock()
	defer mu.RUnlock()
	work()
}

type cacheT struct {
	mu sync.Mutex
	m  map[string]int
}

func okExplicit(c *cacheT, k string) int {
	c.mu.Lock()
	if v, ok := c.m[k]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	v := compute()
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
	return v
}

type streamT struct {
	mu   sync.Mutex
	lazy func()
}

// The method-value handoff: the unlock obligation is handed to the
// caller.
func okMethodValue(s *streamT) func() {
	s.mu.Lock()
	return s.mu.Unlock
}

func okConditionalLockDefer(s *streamT) {
	if s.lazy != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	work()
}

// Helpers that release a caller-held lock are legitimate.
func okHelperUnlock(mu *sync.Mutex) {
	mu.Unlock()
}

func okDeferClosure(mu *sync.Mutex) {
	mu.Lock()
	defer func() {
		work()
		mu.Unlock()
	}()
	work()
}

// --- violations ---

func badLeak(mu *sync.Mutex, cond bool) int {
	mu.Lock()
	if cond {
		return 1 // want `mu is locked .* but not unlocked on this path`
	}
	mu.Unlock()
	return 0
}

func badPanic(mu *sync.Mutex, cond bool) {
	mu.Lock()
	if cond {
		panic("boom") // want `mu is locked .* and still held at this panic`
	}
	mu.Unlock()
}

func badDouble(mu *sync.Mutex) {
	mu.Lock()
	mu.Lock() // want `mu is already locked .* sync mutexes are not reentrant`
	mu.Unlock()
}

func badRLockTwice(mu *sync.RWMutex) {
	mu.RLock()
	mu.RLock() // want `a second RLock on this path can deadlock with a waiting writer`
	mu.RUnlock()
}

func badWrongModeUnlock(mu *sync.RWMutex) {
	mu.RLock()
	mu.Unlock() // want `mu is read-locked .* use RUnlock`
}

func badWrongModeRUnlock(mu *sync.RWMutex) {
	mu.Lock()
	mu.RUnlock() // want `mu is write-locked .* use Unlock`
}

func badDeferredWrongModeUnlock(mu *sync.RWMutex) {
	mu.RLock()
	defer mu.Unlock() // want `mu is read-locked .* use RUnlock`
	work()
}

func badDeferredWrongModeRUnlock(mu *sync.RWMutex) {
	mu.Lock()
	defer mu.RUnlock() // want `mu is write-locked .* use Unlock`
	work()
}

var pmu sync.Mutex

func helperLocks() {
	pmu.Lock()
	defer pmu.Unlock()
	work()
}

func badSelfDeadlock() {
	pmu.Lock()
	helperLocks() // want `calling helperLocks while holding pmu .* self-deadlock`
	pmu.Unlock()
}
