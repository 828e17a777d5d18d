package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"avgi/internal/campaign"
	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/prog"
)

// gridWindow is the repository's standard AVGI campaign shape: a
// 2000-cycle effective-residency window.
const gridWindow = 2000

// gridPrograms are the four programs of the grid; with the 12 structures
// they make 48 pairs. ROB/SQ/LQ pairs simulate a handful of cycles per
// fault, TLB pairs cannot exit early and run full windows.
var gridPrograms = []string{"sha", "qsort", "rijndael", "cg"}

// gridPair is one (structure, program) campaign of the grid.
type gridPair struct {
	id     string
	runner *campaign.Runner
	faults []fault.Fault
}

type avgiGrid struct {
	pairs []gridPair
}

// newRunner performs the golden run of one program on the A72 model with
// the product settings: cursor forks and the convergence early exit.
func newRunner(program string) (*campaign.Runner, error) {
	w, err := prog.ByName(program)
	if err != nil {
		return nil, err
	}
	cfg := cpu.ConfigA72()
	r, err := campaign.NewRunner(cfg, w.Build(cfg.Variant))
	if err != nil {
		return nil, err
	}
	r.EarlyExit = true
	return r, nil
}

// digestResults folds the classification of every fault into h; two
// campaigns agree exactly when their digests do.
func digestResults(h hash.Hash, results []campaign.Result) {
	for i := range results {
		r := &results[i]
		fmt.Fprintf(h, "%d:%d:%d:%t:%d:%d:%d:%t:%t:%t|", r.Fault.ID, r.IMM, r.Effect, r.Manifested,
			r.ManifestLatency, r.SimCycles, r.Crash, r.Runaway, r.Quarantined, r.HasEffect)
	}
}

func digestOf(results []campaign.Result) string {
	h := sha256.New()
	digestResults(h, results)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checkCampaign applies the per-campaign output checks and returns the
// number of quarantined faults.
func checkCampaign(chk *checks, id string, faults []fault.Fault, results []campaign.Result) int {
	chk.attempt(len(faults))
	if len(results) != len(faults) {
		chk.fail("%s: %d results for %d faults", id, len(results), len(faults))
	}
	quarantined := 0
	for i := range results {
		if results[i].Quarantined {
			quarantined++
			chk.fail("%s: fault %d quarantined: %s", id, results[i].Fault.ID, results[i].Err)
		}
	}
	return quarantined
}

func buildGrid(e *env) (*avgiGrid, error) {
	g := &avgiGrid{}
	for _, program := range gridPrograms {
		r, err := newRunner(program)
		if err != nil {
			return nil, err
		}
		for _, structure := range cpu.StructureNames {
			g.pairs = append(g.pairs, gridPair{
				id:     structure + "/" + program,
				runner: r,
				faults: r.FaultList(structure, e.sc.gridFaults, e.seed),
			})
		}
		// A throwaway campaign records the runner's checkpoint store.
		p := g.pairs[len(g.pairs)-len(cpu.StructureNames)]
		p.runner.Run(p.faults[:2], campaign.ModeAVGI, gridWindow, procs)
	}
	// One worker and two must classify every fault of a pair identically.
	p := g.pairs[0]
	one := p.runner.Run(p.faults, campaign.ModeAVGI, gridWindow, 1)
	two := p.runner.Run(p.faults, campaign.ModeAVGI, gridWindow, procs)
	e.chk.attempt(1)
	if digestOf(one) != digestOf(two) {
		e.chk.fail("%s: results differ between 1 and %d workers", p.id, procs)
	}
	return g, nil
}

// runAVGIGrid: set-up is the golden runs, fault lists and checkpoint
// stores; each round runs the 48 campaigns back to back on two workers.
// One op is one classified fault; the latency sample is one campaign.
func runAVGIGrid(e *env) (*outcome, error) {
	o := &outcome{}
	g, times, err := setups(e, func() (*avgiGrid, error) { return buildGrid(e) }, func(*avgiGrid) {})
	if err != nil {
		return nil, err
	}
	o.setup = times
	var first string
	err = e.rounds(o, func(i int) (float64, time.Duration, error) {
		var wall time.Duration
		faults := 0
		h := sha256.New()
		for _, p := range g.pairs {
			sp := e.rec.begin("campaign.run", p.id, -1)
			t0 := time.Now()
			results := p.runner.Run(p.faults, campaign.ModeAVGI, gridWindow, procs)
			d := time.Since(t0)
			e.rec.end(sp)
			wall += d
			o.lat = append(o.lat, d)
			checkCampaign(&e.chk, p.id, p.faults, results)
			digestResults(h, results)
			faults += len(results)
		}
		// Same seed, same faults: every round must classify identically.
		digest := hex.EncodeToString(h.Sum(nil)[:8])
		if i == 0 {
			first = digest
			fmt.Printf("# avgi-grid results digest %s (%d faults)\n", digest, faults)
		}
		e.chk.attempt(1)
		if digest != first {
			e.chk.fail("round %d digest %s differs from round 0 digest %s", i, digest, first)
		}
		return float64(faults), wall, nil
	})
	return o, err
}
