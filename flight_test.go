package avgi

import (
	"encoding/json"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"avgi/internal/obs"
)

func TestFlightMapCoalescesAndRetains(t *testing.T) {
	m := newFlightMap[string](retainAll)
	var execs int
	first, how := m.do("k", func() []CampaignResult {
		execs++
		return make([]CampaignResult, 3)
	})
	if how != ran || len(first.res) != 3 {
		t.Fatalf("first do: how=%v len=%d", how, len(first.res))
	}
	f, how := m.do("k", func() []CampaignResult {
		execs++
		return nil
	})
	if how != retained || f != first || execs != 1 {
		t.Errorf("retained flight not served: how=%v same flight=%v execs=%d", how, f == first, execs)
	}
	if m.len() != 1 {
		t.Errorf("retained map holds %d entries, want 1", m.len())
	}
}

// retainedKeys lists the keys a flight map holds, sorted.
func retainedKeys(m *flightMap[int]) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var keys []int
	for k := range m.flights {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// TestFlightMapRetention pins the retention bound: a flight map keeps at
// most retain completed flights, evicting the least recently used, and
// never evicts a flight that is still running.
func TestFlightMapRetention(t *testing.T) {
	for _, tc := range []struct {
		name      string
		retain    int
		calls     []int // keys requested, in order
		execs     int   // executions those calls cost
		kept      []int // keys held afterwards
		evictions uint64
	}{
		{"bound 0 evicts on completion", 0, []int{1, 1, 2}, 3, nil, 0},
		// The repeat of 1 makes 2 the least recently used when 3 completes.
		{"bound k evicts the LRU completed flight", 2, []int{1, 2, 1, 3, 1}, 3, []int{1, 3}, 1},
		{"unbounded retains everything", retainAll, []int{1, 2, 3, 1, 2, 3}, 3, []int{1, 2, 3}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newFlightMap[int](tc.retain)
			m.evictions = obs.NewRegistry().Counter("evictions", "", nil)
			execs := 0
			for _, k := range tc.calls {
				f, _ := m.do(k, func() []CampaignResult { execs++; return make([]CampaignResult, k) })
				if len(f.res) != k {
					t.Fatalf("key %d answered with %d results", k, len(f.res))
				}
			}
			if execs != tc.execs {
				t.Errorf("%d executions, want %d", execs, tc.execs)
			}
			if got := retainedKeys(m); !slices.Equal(got, tc.kept) {
				t.Errorf("kept %v, want %v", got, tc.kept)
			}
			if got := m.evictions.Value(); got != tc.evictions {
				t.Errorf("%d evictions, want %d", got, tc.evictions)
			}
		})
	}

	t.Run("a running flight is never evicted", func(t *testing.T) {
		m := newFlightMap[int](1)
		entered, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		var leaderHow, waiterHow served
		var waiter *flight
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, leaderHow = m.do(0, func() []CampaignResult {
				close(entered)
				<-release
				return make([]CampaignResult, 5)
			})
		}()
		<-entered
		wg.Add(1)
		go func() {
			defer wg.Done()
			waiter, waiterHow = m.do(0, func() []CampaignResult { return nil })
		}()
		// Two completions over a bound of one: the first is evicted by the
		// second, and the running flight must survive both.
		for k := 1; k <= 2; k++ {
			m.do(k, func() []CampaignResult { return make([]CampaignResult, k) })
		}
		if got := retainedKeys(m); !slices.Equal(got, []int{0, 2}) {
			t.Fatalf("while 0 runs the map holds %v, want [0 2]", got)
		}
		close(release)
		wg.Wait()
		// The waiter either blocked on the running flight or, scheduled
		// late, found it kept; either way it never re-executed.
		if leaderHow != ran || waiterHow == ran || len(waiter.res) != 5 {
			t.Errorf("leader %v, waiter %v with %d results; want ran, not ran with 5", leaderHow, waiterHow, len(waiter.res))
		}
		if got := retainedKeys(m); !slices.Equal(got, []int{0}) {
			t.Errorf("after 0 completes the map holds %v, want [0]", got)
		}
	})
}

// TestFlightMapPanicDoesNotPoison is the regression test for the poisoned
// flight cache: do() used to insert the flight before executing and only
// close(done) on panic, so the failed flight stayed in the map forever and
// every later caller for that key got its nil result instead of
// re-executing. A panicking exec must be evicted so the next caller runs
// exec again and succeeds.
func TestFlightMapPanicDoesNotPoison(t *testing.T) {
	m := newFlightMap[string](retainAll)
	var execs int
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("exec panic must propagate to the do caller")
			}
		}()
		m.do("k", func() []CampaignResult {
			execs++
			panic("campaign blew up")
		})
	}()
	if m.len() != 0 {
		t.Fatalf("panicked flight still in the map (%d entries)", m.len())
	}
	f, how := m.do("k", func() []CampaignResult {
		execs++
		return make([]CampaignResult, 2)
	})
	if how != ran {
		t.Error("second call coalesced onto the panicked flight")
	}
	if len(f.res) != 2 || execs != 2 {
		t.Errorf("second call after panic: len=%d execs=%d, want 2/2", len(f.res), execs)
	}
}

// TestFlightMapPanicUnblocksWaiters: callers already coalesced onto a
// flight whose leader panics must be released (with a nil result), not
// hang forever on a done channel nobody will close.
func TestFlightMapPanicUnblocksWaiters(t *testing.T) {
	m := newFlightMap[string](retainAll)
	entered := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		m.do("k", func() []CampaignResult {
			close(entered)
			<-release
			panic("leader failed")
		})
	}()
	<-entered

	var waiter *flight
	var waiterHow served
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		waiter, waiterHow = m.do("k", func() []CampaignResult {
			// Only reachable if the waiter raced past the leader's eviction
			// — i.e. it never coalesced. Valid single-flight behaviour, but
			// not the interleaving this test is about.
			return make([]CampaignResult, 9)
		})
	}()
	// The leader parks in exec until release, so the waiter finds its entry
	// in the map for as long as we wait here; give it time to block on the
	// done channel before the leader panics.
	<-started
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if waiterHow != joined {
		t.Error("waiter did not coalesce onto the leader")
	}
	if waiter.res != nil {
		t.Errorf("waiter got %d results from a panicked leader, want nil", len(waiter.res))
	}
	if m.len() != 0 {
		t.Error("panicked flight still in the map")
	}
}

// TestFlightMapAssessmentOnce: concurrent responses of one flight share one
// AssessResult and one encoding, built once from the flight's results.
func TestFlightMapAssessmentOnce(t *testing.T) {
	m := newFlightMap[string](retainAll)
	f, _ := m.do("k", func() []CampaignResult { return make([]CampaignResult, 3) })
	const n = 8
	results := make([]*AssessResult, n)
	encs := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			results[i], encs[i], err = f.assessment()
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if len(results[0].Results) != 3 || results[0].Summary.Total != 3 {
		t.Fatalf("assessment of 3 results: %d results, summary total %d", len(results[0].Results), results[0].Summary.Total)
	}
	want, err := json.Marshal(results[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i] != results[0] || &encs[i][0] != &encs[0][0] {
			t.Fatalf("call %d built its own assessment", i)
		}
	}
	if string(encs[0]) != string(want) {
		t.Errorf("encoding %s, want json.Marshal of the result %s", encs[0], want)
	}
}
