package campaign

import (
	"reflect"
	"sync"
	"testing"

	"avgi/internal/cpu"
)

func TestChunkSize(t *testing.T) {
	cases := []struct{ n, w, want int }{
		{0, 4, 0},
		{10, 1, 10},
		{10, 3, 4},
		{10, 4, 3},
		{10, 10, 1},
		{10, 99, 1}, // workers clamp to the list length
		{10, 0, 10}, // non-positive plan degenerates to one chunk
		{7, 2, 4},
	}
	for _, tc := range cases {
		if got := ChunkSize(tc.n, tc.w); got != tc.want {
			t.Errorf("ChunkSize(%d, %d) = %d, want %d", tc.n, tc.w, got, tc.want)
		}
	}
	// The invariant the lease protocol rests on: chunks tile [0, n).
	for _, tc := range cases {
		if tc.n == 0 {
			continue
		}
		covered := 0
		for lo := 0; lo < tc.n; lo += ChunkSize(tc.n, tc.w) {
			hi := lo + ChunkSize(tc.n, tc.w)
			if hi > tc.n {
				hi = tc.n
			}
			covered += hi - lo
		}
		if covered != tc.n {
			t.Errorf("ChunkSize(%d, %d): chunks cover %d faults", tc.n, tc.w, covered)
		}
	}
}

// stripeClaimer grants every chunk whose ordinal (by lo) satisfies
// ordinal % stride == phase — the unit-test model of two processes
// splitting one campaign.
type stripeClaimer struct {
	chunk  int
	stride int
	phase  int

	mu       sync.Mutex
	claimed  [][2]int
	released int
	failed   int
}

func (c *stripeClaimer) Claim(lo, hi int) (func(bool), bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if (lo/c.chunk)%c.stride != c.phase {
		return nil, false
	}
	c.claimed = append(c.claimed, [2]int{lo, hi})
	return func(done bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if done {
			c.released++
		} else {
			c.failed++
		}
	}, true
}

// TestRunCampaignClaimerStripes is the distributed split in miniature: two
// RunCampaign calls with complementary stripe claimers must each simulate
// only their own chunks, and the union of their results must equal a plain
// single-process run — the byte-identity guarantee at the Result level.
func TestRunCampaignClaimerStripes(t *testing.T) {
	r := newTestRunner(t, cpu.ConfigA72(), "crc32")
	faults := r.FaultList("RF", 24, 5)
	serial := r.Run(faults, ModeExhaustive, 0, 1)

	const plan = 4
	chunk := ChunkSize(len(faults), plan)
	var got [2][]Result
	var skipped [2]int
	claimers := [2]*stripeClaimer{
		{chunk: chunk, stride: 2, phase: 0},
		{chunk: chunk, stride: 2, phase: 1},
	}
	for p := 0; p < 2; p++ {
		got[p], skipped[p] = r.RunCampaign(RunSpec{
			Faults: faults, Mode: ModeExhaustive,
			Budget: NewBudget(2), PlanWorkers: plan,
			Claimer: claimers[p],
		})
	}
	if skipped[0]+skipped[1] != len(faults) {
		t.Errorf("skipped %d + %d faults across both halves, want %d total",
			skipped[0], skipped[1], len(faults))
	}
	for p, c := range claimers {
		if len(c.claimed) == 0 {
			t.Fatalf("claimer %d claimed nothing", p)
		}
		if c.released != len(c.claimed) || c.failed != 0 {
			t.Errorf("claimer %d: %d claims, %d done releases, %d failed releases",
				p, len(c.claimed), c.released, c.failed)
		}
	}
	// Union the two halves chunk-by-chunk and require equality with the
	// serial run; also require each half's claimed chunks to hold exactly
	// the serial results (zero slots only outside its claims).
	union := make([]Result, len(faults))
	for p, c := range claimers {
		for _, ch := range c.claimed {
			for i := ch[0]; i < ch[1]; i++ {
				if !reflect.DeepEqual(got[p][i], serial[i]) {
					t.Fatalf("half %d, fault %d: claimed result diverges from serial run", p, i)
				}
				union[i] = got[p][i]
			}
		}
	}
	if !reflect.DeepEqual(union, serial) {
		t.Error("union of the two striped halves diverges from the serial run")
	}
}

// TestRunCampaignPlanWorkersGeometry pins that the claimer sees chunk
// boundaries derived from PlanWorkers — the fleet-wide plan — not from the
// local budget capacity, so every process of a distributed campaign asks
// for the same [lo, hi) ranges whatever its local core count.
func TestRunCampaignPlanWorkersGeometry(t *testing.T) {
	r := newTestRunner(t, cpu.ConfigA72(), "crc32")
	faults := r.FaultList("RF", 24, 5)
	const plan = 6
	chunk := ChunkSize(len(faults), plan)
	c := &stripeClaimer{chunk: chunk, stride: 1, phase: 0} // claim everything
	res, skipped := r.RunCampaign(RunSpec{
		Faults: faults, Mode: ModeExhaustive,
		Budget: NewBudget(1), PlanWorkers: plan, Claimer: c,
	})
	if skipped != 0 {
		t.Fatalf("everything-claimer skipped %d faults", skipped)
	}
	var want [][2]int
	for lo := 0; lo < len(faults); lo += chunk {
		hi := lo + chunk
		if hi > len(faults) {
			hi = len(faults)
		}
		want = append(want, [2]int{lo, hi})
	}
	if !reflect.DeepEqual(c.claimed, want) {
		t.Errorf("claimed chunks %v, want plan-derived %v (budget cap must not shape geometry)",
			c.claimed, want)
	}
	if !reflect.DeepEqual(res, r.Run(faults, ModeExhaustive, 0, 1)) {
		t.Error("plan-worker results diverge from serial run")
	}
}

// TestRunCampaignPriorChunksBypassClaimer: a chunk fully journalled needs
// no lease — its results are durable, so claiming it would only make two
// processes fight over finished work.
func TestRunCampaignPriorChunksBypassClaimer(t *testing.T) {
	r := newTestRunner(t, cpu.ConfigA72(), "crc32")
	faults := r.FaultList("RF", 24, 5)
	serial := r.Run(faults, ModeExhaustive, 0, 1)
	const plan = 4
	chunk := ChunkSize(len(faults), plan)
	prior := make(map[int]Result)
	for i := 0; i < chunk; i++ { // exactly the first chunk
		prior[i] = serial[i]
	}
	c := &stripeClaimer{chunk: chunk, stride: 1, phase: 0}
	res, skipped := r.RunCampaign(RunSpec{
		Faults: faults, Mode: ModeExhaustive,
		Budget: NewBudget(2), Prior: prior, PlanWorkers: plan, Claimer: c,
	})
	if skipped != 0 {
		t.Fatalf("skipped %d faults", skipped)
	}
	for _, ch := range c.claimed {
		if ch[0] == 0 {
			t.Error("fully-journalled chunk was claimed")
		}
	}
	if !reflect.DeepEqual(res, serial) {
		t.Error("prior+claimed results diverge from serial run")
	}
}
