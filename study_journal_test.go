package avgi

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"avgi/internal/campaign"
)

// newJournalStudy builds the small scheduler-test study grid with the
// durable journal enabled.
func newJournalStudy(t *testing.T, dir string, resume bool, obsv *Observer) *Study {
	t.Helper()
	s, err := NewStudy(StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          pick(t, schedWorkloads...),
		Structures:         schedStructures,
		FaultsPerStructure: schedFaults,
		Workers:            4,
		SeedBase:           7,
		Obs:                obsv,
		JournalDir:         dir,
		Resume:             resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runGrid executes the full exhaustive grid and returns results per pair.
func runGrid(s *Study) map[string][]CampaignResult {
	out := make(map[string][]CampaignResult)
	for _, structure := range schedStructures {
		for _, workload := range schedWorkloads {
			out[structure+"/"+workload] = s.Exhaustive(structure, workload)
		}
	}
	return out
}

// shardFiles returns every journal shard under dir, sorted by path.
func shardFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".ndjson") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStudyJournalResumeByteIdentical is the acceptance test of the
// fault-tolerance tentpole: a study whose process dies mid-run (simulated
// by mangling the journal exactly as a SIGKILL would leave it — one shard
// half written with a torn final line, one shard missing entirely) and is
// restarted with Resume reproduces byte-identical results and Summary/AVF
// output to an uninterrupted run, re-simulating only the un-journalled
// faults. The verify recipe runs this test under -race.
func TestStudyJournalResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple campaign grids in -short mode")
	}
	dir := t.TempDir()

	// The uninterrupted reference: same config, no journal at all.
	ref := runGrid(newSchedStudy(t, nil))

	// First run: journal everything, then simulate the SIGKILL by
	// mangling the shards on disk.
	runGrid(newJournalStudy(t, dir, false, nil))
	shards := shardFiles(t, dir)
	if len(shards) != len(schedStructures)*len(schedWorkloads) {
		t.Fatalf("journalled run left %d shards, want %d", len(shards), 4)
	}
	// Shard 0: cut mid-way through a record line (torn final write).
	data, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 1+schedFaults {
		t.Fatalf("shard %s has %d lines, want %d", shards[0], len(lines), 1+schedFaults)
	}
	keep := strings.Join(lines[:1+schedFaults/2], "\n") + "\n" + lines[1+schedFaults/2][:9]
	if err := os.WriteFile(shards[0], []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	// Shard 1: gone entirely (killed before its campaign started).
	if err := os.Remove(shards[1]); err != nil {
		t.Fatal(err)
	}

	// Restart with -resume.
	obsv := NewObserver(nil)
	resumed := runGrid(newJournalStudy(t, dir, true, obsv))
	for pair, want := range ref {
		if !reflect.DeepEqual(resumed[pair], want) {
			t.Errorf("pair %s: resumed results diverge from the uninterrupted run", pair)
		}
		s1, s2 := campaign.Summarize(want), campaign.Summarize(resumed[pair])
		if s1.String() != s2.String() {
			t.Errorf("pair %s: summary %q != %q", pair, s2, s1)
		}
	}

	reg := obsv.Metrics
	hits := counterValue(t, reg, "avgi_journal_hits_total", nil)
	res := counterValue(t, reg, "avgi_journal_resumed_faults_total", nil)
	app := counterValue(t, reg, "avgi_journal_appends_total", nil)
	// Two intact shards load wholesale; the torn one keeps its first
	// half-or-fewer records (worker chunks may straddle the cut, but at
	// least the fully-synced early chunks survive); the deleted one
	// contributes nothing.
	if hits != 2 {
		t.Errorf("journal hits = %d, want 2 full-shard hits", hits)
	}
	if res <= 2*schedFaults || res >= 3*schedFaults {
		t.Errorf("resumed faults = %d, want between %d and %d", res, 2*schedFaults, 3*schedFaults)
	}
	// Everything not resumed was re-simulated and re-journalled.
	if app != uint64(4*schedFaults)-res {
		t.Errorf("appends = %d, resumed = %d; must cover exactly the missing %d faults",
			app, res, uint64(4*schedFaults)-res)
	}

	// Third start: the journal is complete again, so every campaign is a
	// full hit and nothing simulates or appends.
	obsv2 := NewObserver(nil)
	final := runGrid(newJournalStudy(t, dir, true, obsv2))
	for pair, want := range ref {
		if !reflect.DeepEqual(final[pair], want) {
			t.Errorf("pair %s: fully journalled reload diverges", pair)
		}
	}
	if h := counterValue(t, obsv2.Metrics, "avgi_journal_hits_total", nil); h != 4 {
		t.Errorf("fully journalled restart: hits = %d, want 4", h)
	}
	if a := counterValue(t, obsv2.Metrics, "avgi_journal_appends_total", nil); a != 0 {
		t.Errorf("fully journalled restart: appends = %d, want 0", a)
	}
}

// TestStudyJournalSeedMismatch proves the checksummed header binding: a
// journal written under one seed must never be resumed into a study with
// another, silently or otherwise — the shards are distinct and the second
// study re-simulates from scratch.
func TestStudyJournalSeedMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign grids in -short mode")
	}
	dir := t.TempDir()
	s1 := newJournalStudy(t, dir, false, nil)
	first := s1.Exhaustive("RF", "sha")

	obsv := NewObserver(nil)
	s2, err := NewStudy(StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          pick(t, "sha"),
		Structures:         []string{"RF"},
		FaultsPerStructure: schedFaults,
		Workers:            2,
		SeedBase:           8, // different seed: binding must not match
		Obs:                obsv,
		JournalDir:         dir,
		Resume:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	second := s2.Exhaustive("RF", "sha")
	if counterValue(t, obsv.Metrics, "avgi_journal_resumed_faults_total", nil) != 0 {
		t.Error("a different seed must not resume any journalled fault")
	}
	if reflect.DeepEqual(first, second) {
		t.Error("different seeds produced identical fault lists — test is vacuous")
	}
}

// TestStudyResumeRequiresJournal pins the config validation.
func TestStudyResumeRequiresJournal(t *testing.T) {
	_, err := NewStudy(StudyConfig{
		Machine:   ConfigA72(),
		Workloads: pick(t, "sha"),
		Resume:    true,
	})
	if err == nil || !strings.Contains(err.Error(), "JournalDir") {
		t.Fatalf("Resume without JournalDir must fail, got %v", err)
	}
}

// TestJournalSeparatesAVGIChargeRules: the early exit changes what an AVGI
// fault is charged (SimCycles), so a study run without it (StudyConfig's
// default) and avgid's service (always with it) must not answer each
// other's AVGI campaigns from the journal. Exhaustive Results do not depend
// on the early exit, so those shards are still shared.
func TestJournalSeparatesAVGIChargeRules(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStudy(StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          pick(t, "sha"),
		Structures:         []string{"RF"},
		FaultsPerStructure: 40,
		Workers:            4,
		JournalDir:         dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Campaign("RF", "sha", ModeAVGI, 2000)
	exhaustive := st.Campaign("RF", "sha", ModeExhaustive, 0)

	service := func(journalDir string) *Service {
		s, err := NewService(ServiceConfig{Workers: 4, JournalDir: journalDir, ShardCacheEntries: -1, Obs: NewObserver(nil)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	req := AssessRequest{Structure: "RF", Workload: "sha", Mode: "avgi", Window: 2000, Faults: 40, Seed: 1}
	got, err := service(dir).Assess(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := service("").Assess(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.JournalHit {
		t.Errorf("the service answered from the study's AVGI shard, journalled without the early exit: meta %+v", got.Meta)
	}
	if !reflect.DeepEqual(got.Result.Results, want.Result.Results) {
		t.Errorf("AVGI results over the study's journal differ from a fresh service's: SimCycles sum %d, want %d",
			simCycles(got.Result.Results), simCycles(want.Result.Results))
	}

	req.Mode, req.Window = "exhaustive", 0
	hit, err := service(dir).Assess(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Meta.JournalHit || !reflect.DeepEqual(hit.Result.Results, exhaustive) {
		t.Errorf("the study's exhaustive shard no longer answers the service: meta %+v", hit.Meta)
	}
}

func simCycles(res []CampaignResult) (n uint64) {
	for _, r := range res {
		n += r.SimCycles
	}
	return n
}
