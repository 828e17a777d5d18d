package campaign

import (
	"reflect"
	"strings"
	"testing"

	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/imm"
	"avgi/internal/obs"
)

// poisonFault builds a fault whose injection deterministically panics: its
// multi-bit range wraps past the end of the structure, which
// injectAndObserve asserts against.
func poisonFault(r *Runner, structure string, cycle uint64) fault.Fault {
	return fault.Fault{
		ID:        1 << 20,
		Structure: structure,
		Bit:       r.BitCounts[structure] - 1,
		Cycle:     cycle,
		Width:     2,
	}
}

// TestQuarantineIsolatesPoisonedFault proves the tentpole guarantee: one
// panicking fault yields a quarantined Result and a completed campaign, and
// every other result is byte-identical to a campaign without the poisoned
// fault — the worker's cursor machine is discarded, and the next fault on
// that worker still classifies as in a clean run.
func TestQuarantineIsolatesPoisonedFault(t *testing.T) {
	t.Run("cursor", func(t *testing.T) {
		r := shaRunner(t)
		faults := r.FaultList("RF", 30, 5)
		clean := r.Run(faults, ModeExhaustive, 0, 2)

		// Insert the poison mid-list so the same worker chunk
		// continues past the panic.
		poison := poisonFault(r, "RF", r.Golden.Cycles/2)
		mixed := make([]fault.Fault, 0, len(faults)+1)
		mixed = append(mixed, faults[:15]...)
		mixed = append(mixed, poison)
		mixed = append(mixed, faults[15:]...)

		res := r.Run(mixed, ModeExhaustive, 0, 2)
		if len(res) != len(mixed) {
			t.Fatalf("campaign returned %d results for %d faults", len(res), len(mixed))
		}
		q := res[15]
		if !q.Quarantined || q.Fault != poison {
			t.Fatalf("poisoned fault not quarantined: %+v", q)
		}
		if !strings.Contains(q.Err, "wraps past the end") {
			t.Errorf("quarantined Err = %q, want the panic message", q.Err)
		}
		if q.IMM != imm.Benign || q.HasEffect || q.Manifested {
			t.Errorf("quarantined result must carry no classification: %+v", q)
		}
		// Byte-identity of every healthy result.
		healthy := append(append([]Result(nil), res[:15]...), res[16:]...)
		if !reflect.DeepEqual(healthy, clean) {
			t.Error("healthy results diverge from the poison-free campaign")
		}
	})
}

// TestQuarantineTelemetry checks that the campaign telemetry reports the
// quarantine (that the worker does not recycle its poisoned machine is
// proven byte-identically above).
func TestQuarantineTelemetry(t *testing.T) {
	r := newTestRunner(t, cpu.ConfigA72(), "crc32")
	o := obs.New(nil)
	o.Progress = nil
	r.Obs = o
	faults := r.FaultList("RF", 10, 5)
	faults = append(faults, poisonFault(r, "RF", r.Golden.Cycles/2))
	res := r.Run(faults, ModeExhaustive, 0, 2)
	sum := Summarize(res)
	if sum.Quarantined != 1 || sum.Total != 10 {
		t.Fatalf("summary: %+v", sum)
	}
	var got uint64
	for _, fam := range o.Metrics.Snapshot() {
		if fam.Name == "avgi_faults_quarantined_total" {
			for _, s := range fam.Series {
				got += s.Value
			}
		}
	}
	if got != 1 {
		t.Errorf("avgi_faults_quarantined_total = %d, want 1", got)
	}
}

// TestQuarantineLimitAborts: a campaign drowning in quarantined faults
// must fail loudly with an aggregated error instead of silently returning
// statistically meaningless numbers.
func TestQuarantineLimitAborts(t *testing.T) {
	r := newTestRunner(t, cpu.ConfigA72(), "crc32")
	faults := r.FaultList("RF", 4, 5)
	for i := 0; i < 4; i++ {
		faults = append(faults, poisonFault(r, "RF", r.Golden.Cycles/2))
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("campaign above the quarantine limit must panic")
		}
		msg, ok := p.(string)
		if !ok || !strings.Contains(msg, "quarantined") || !strings.Contains(msg, "wraps past the end") {
			t.Errorf("aggregated error %v must name the quarantine count and a sample cause", p)
		}
	}()
	r.Run(faults, ModeExhaustive, 0, 2)
}

// TestRunNoObserverRace drives the fully uninstrumented campaign path (nil
// *runObs) with several workers — the hot path the telemetry layer
// promises to leave untouched — and checks determinism across runs. The
// verify recipe runs this package under -race, which is the actual point
// of the test.
func TestRunNoObserverRace(t *testing.T) {
	r := newTestRunner(t, cpu.ConfigA72(), "sha")
	if r.Obs.Enabled() {
		t.Fatal("runner must have no observer for this test")
	}
	faults := r.FaultList("RF", 24, 9)
	res1 := r.Run(faults, ModeAVGI, 500, 4)
	res2 := r.Run(faults, ModeAVGI, 500, 4)
	if !reflect.DeepEqual(res1, res2) {
		t.Error("uninstrumented campaign is not deterministic")
	}
	for i, res := range res1 {
		if res.Quarantined {
			t.Errorf("fault %d spuriously quarantined: %s", i, res.Err)
		}
	}
}

// TestSummarizeRunaway checks the runaway/crash distinction rides through
// Summarize without touching the IMM- or effect-side tallies.
func TestSummarizeRunaway(t *testing.T) {
	results := []Result{
		{IMM: imm.PRE, Runaway: true, HasEffect: true, Effect: imm.Crash},
		{IMM: imm.PRE, HasEffect: true, Effect: imm.Crash, Crash: cpu.CrashPageFault},
		{IMM: imm.Benign},
		{Quarantined: true, Err: "boom"},
	}
	s := Summarize(results)
	if s.Total != 3 || s.Quarantined != 1 || s.Runaways != 1 {
		t.Fatalf("summary %+v", s)
	}
	if s.ByEffect[imm.Crash] != 2 {
		t.Errorf("runaway must still count as a Crash effect: %+v", s.ByEffect)
	}
	if s.Corruptions != 2 || s.Benign != 1 {
		t.Errorf("tallies %+v", s)
	}
	str := s.String()
	if !strings.Contains(str, "1 runaway") || !strings.Contains(str, "1 quarantined") {
		t.Errorf("String() = %q must surface runaway and quarantined counts", str)
	}
}
