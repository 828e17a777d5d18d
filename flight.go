package avgi

import (
	"container/list"
	"encoding/json"
	"sync"

	"avgi/internal/campaign"
	"avgi/internal/core"
	"avgi/internal/obs"
)

// flight is one in-flight (or completed) campaign execution. done is
// closed when res is valid; late callers block on it instead of
// recomputing. el is the flight's place in the retention LRU once it has
// completed (nil while it runs).
//
// A service response also needs res as an AssessResult and that result's
// JSON encoding; assessment makes both once, on the first response that
// asks, and they live exactly as long as the flight. Study flights never
// ask, so they carry neither.
type flight struct {
	done chan struct{}
	res  []CampaignResult
	el   *list.Element

	assessOnce sync.Once
	assessed   *AssessResult
	assessJSON []byte // compact json.Marshal(assessed)
	assessErr  error
}

// assessment returns the flight's AssessResult and its compact JSON
// encoding, building both on the first call. The flight must be done with
// non-nil results. Both are shared by every response the flight answers,
// so neither may be modified.
func (f *flight) assessment() (*AssessResult, []byte, error) {
	f.assessOnce.Do(func() {
		sum := campaign.Summarize(f.res)
		f.assessed = &AssessResult{Results: f.res, Summary: sum, AVF: core.AVFFromEffects(sum)}
		f.assessJSON, f.assessErr = json.Marshal(f.assessed)
	})
	return f.assessed, f.assessJSON, f.assessErr
}

// served says how a flightMap call was answered.
type served int

const (
	ran      served = iota // this caller executed
	joined                 // waited on another caller's running execution
	retained               // answered by a retained completed execution
)

// retainAll keeps every completed flight (the study's bounded grid).
const retainAll = -1

// flightMap is a single-flight executor: at most one execution per key at
// a time, concurrent callers for the same key coalesce onto the leader's
// result. It is also the in-memory result cache: it keeps up to retain
// completed flights (retainAll = every one, 0 = evict on completion),
// dropping the least recently used beyond that. A running flight is never
// evicted — only completed ones enter the LRU. Results are deterministic
// per key and shared among callers as immutable slices, so a retained
// flight never goes stale; the bound exists only to cap memory.
//
// Failure semantics: a flight whose exec panics is evicted before the
// panic propagates, so the key is never poisoned — the next caller
// re-executes instead of being handed the dead flight's nil result
// forever. Callers already coalesced onto the panicked flight do receive
// nil (they cannot re-enter exec without risking a thundering herd); nil
// from a coalesced wait therefore means "leader failed, retry".
type flightMap[K comparable] struct {
	mu      sync.Mutex
	flights map[K]*flight
	lru     list.List // keys of completed flights, front = most recently used
	retain  int

	evictions *obs.Counter // completed flights dropped by the bound
}

func newFlightMap[K comparable](retain int) *flightMap[K] {
	return &flightMap[K]{flights: make(map[K]*flight), retain: retain}
}

// do executes exec under single-flight semantics for key and returns the
// completed flight plus how this caller was served. The flight's res is
// nil only when a coalesced caller's leader panicked.
func (m *flightMap[K]) do(key K, exec func() []CampaignResult) (*flight, served) {
	m.mu.Lock()
	if f, ok := m.flights[key]; ok {
		how := joined
		if f.el != nil {
			m.lru.MoveToFront(f.el)
			how = retained
		}
		m.mu.Unlock()
		<-f.done
		return f, how
	}
	f := &flight{done: make(chan struct{})}
	m.flights[key] = f
	m.mu.Unlock()

	completed := false
	// Runs even when exec panics: evict first (under the lock, before the
	// done-channel close publishes the flight) so no later caller can
	// observe a failed entry, then unblock coalesced waiters.
	defer func() {
		m.mu.Lock()
		if !completed || m.retain == 0 {
			delete(m.flights, key)
		} else {
			f.el = m.lru.PushFront(key)
			for m.retain > 0 && m.lru.Len() > m.retain {
				delete(m.flights, m.lru.Remove(m.lru.Back()).(K))
				m.evictions.Inc()
			}
		}
		m.mu.Unlock()
		close(f.done)
	}()
	f.res = exec()
	completed = true
	return f, ran
}

// len reports the number of retained or in-flight entries (test hook).
func (m *flightMap[K]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.flights)
}
