package avgi

import (
	"reflect"
	"testing"

	"avgi/internal/journal"
	"avgi/internal/obs"
)

// partialObservers are the telemetry shapes a caller may hand a Study or a
// Service besides a full NewObserver: none at all, metrics only, progress
// only. Every obs handle is nil-safe, so each must run the same campaigns
// as a fully observed run.
func partialObservers() map[string]func() *Observer {
	return map[string]func() *Observer{
		"nil":           func() *Observer { return nil },
		"metrics-only":  func() *Observer { return &Observer{Metrics: obs.NewRegistry()} },
		"progress-only": func() *Observer { return &Observer{Progress: obs.NewProgress()} },
	}
}

// TestStudyPartialObservers runs a journalled study, and then a second one
// resuming from its journal (every campaign a journal hit), under each
// partial observer and compares the Results with a fully observed run's.
func TestStudyPartialObservers(t *testing.T) {
	grid := func(o *Observer, dir string) [][]CampaignResult {
		var out [][]CampaignResult
		for _, resume := range []bool{false, true} {
			s := newJournalStudy(t, dir, resume, o)
			for _, structure := range schedStructures {
				out = append(out, s.Campaign(structure, "crc32", ModeExhaustive, 0))
			}
		}
		return out
	}
	want := grid(NewObserver(nil), t.TempDir())
	for name, o := range partialObservers() {
		t.Run(name, func(t *testing.T) {
			if got := grid(o(), t.TempDir()); !reflect.DeepEqual(got, want) {
				t.Error("results differ from the fully observed study's")
			}
		})
	}
}

// TestServicePartialObservers serves a simulated request, its repeat from
// the retained flight, a journal hit on a fresh service and an invalid
// request under each partial observer, and compares the answers with a
// fully observed service's.
func TestServicePartialObservers(t *testing.T) {
	serve := func(o *Observer, dir string) []string {
		var out []string
		for i := 0; i < 2; i++ { // the second service answers from the journal
			s, err := NewService(ServiceConfig{Workers: 2, JournalDir: dir, Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 2; j++ {
				resp, err := s.Assess(svcRequest())
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, resultBytes(t, resp))
			}
			bad := svcRequest()
			bad.Structure = "nope"
			if _, err := s.Assess(bad); err == nil {
				t.Fatal("an unknown structure was accepted")
			}
		}
		return out
	}
	want := serve(NewObserver(nil), t.TempDir())
	for name, o := range partialObservers() {
		t.Run(name, func(t *testing.T) {
			if got := serve(o(), t.TempDir()); !reflect.DeepEqual(got, want) {
				t.Error("answers differ from the fully observed service's")
			}
		})
	}
}

// TestServiceResumesDeadNodePartShard: a fleet node died after journalling
// half of a campaign into its part shard. A standalone service on the same
// journal resumes from that part shard, simulating only the other half,
// and answers exactly as a cold service does.
func TestServiceResumesDeadNodePartShard(t *testing.T) {
	ref := newTestService(t, t.TempDir())
	want, err := ref.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	r, err := ref.runner("a72", "crc32")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	key, bind, _ := exhaustiveShard(t, dir, r, 7, svcFaults)
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := j.PartWriter(key, bind, "dead-node", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < svcFaults; i += 2 {
		pw.Append(i, want.Result.Results[i])
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := newTestService(t, dir).Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.ResumedFaults != svcFaults/2 || got.Meta.SimulatedFaults != svcFaults/2 {
		t.Errorf("resumed %d / simulated %d faults, want %d / %d",
			got.Meta.ResumedFaults, got.Meta.SimulatedFaults, svcFaults/2, svcFaults/2)
	}
	if resultBytes(t, got) != resultBytes(t, want) {
		t.Error("answer resumed from a part shard differs from a cold service's")
	}
}
