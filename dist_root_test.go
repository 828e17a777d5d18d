package avgi

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"avgi/internal/journal"
)

func distStudy(t *testing.T, journalDir, owner string) *Study {
	t.Helper()
	w, err := WorkloadByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{
		Machine:            ConfigA72(),
		Workloads:          []Workload{w},
		Structures:         []string{"RF"},
		FaultsPerStructure: 16,
		Workers:            2,
		JournalDir:         journalDir,
		Resume:             true,
	}
	if owner != "" {
		cfg.Dist = &DistConfig{Fleet: 4, Owner: owner, LeaseTTL: 2 * time.Second}
	}
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// exhaustiveShard locates the canonical shard the RF/crc32 exhaustive campaign of r's
// machine at (seed, faults) journals to under dir — whether a Study or a
// Service runs it — for byte-level and layout checks.
func exhaustiveShard(t *testing.T, dir string, r *Runner, seed int64, faults int) (journal.Key, journal.Binding, string) {
	t.Helper()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := journal.Key{Structure: "RF", Workload: "crc32", Mode: ModeExhaustive.String()}
	bind := journal.Binding{
		Machine:     r.Cfg.Name,
		Variant:     r.Cfg.Variant.String(),
		ProgramHash: journal.HashProgram(r.Prog),
		Seed:        seed,
		Faults:      faults,
	}
	return key, bind, filepath.Join(dir, filepath.FromSlash(j.ShardID(key, bind)))
}

// distShard is exhaustiveShard for a study built by distStudy.
func distShard(t *testing.T, s *Study, dir string) (journal.Key, journal.Binding, string) {
	t.Helper()
	return exhaustiveShard(t, dir, s.Runner("crc32"), s.Cfg.SeedBase, s.Cfg.FaultsPerStructure)
}

// TestStudyDistTwoNodes drives the distributed layer through the public
// Study API: two studies (two "processes") sharing one journal directory
// split a campaign via file leases, both return the exact single-process
// results, and the merged canonical shard is byte-identical to the one a
// plain journalled study writes.
func TestStudyDistTwoNodes(t *testing.T) {
	// Result reference: a plain (non-distributed) journalled study. Its
	// shard bytes are NOT the byte-identity reference — a live journal
	// appends chunks in completion order, which is timing-dependent; only
	// merged canonical shards are canonicalised into fault-index order.
	want := distStudy(t, t.TempDir(), "").Campaign("RF", "crc32", ModeExhaustive, 0)

	// Byte reference: a single-node fleet over its own journal directory.
	refDir := t.TempDir()
	ref := distStudy(t, refDir, "ref-node")
	if res := ref.Campaign("RF", "crc32", ModeExhaustive, 0); !reflect.DeepEqual(res, want) {
		t.Fatal("single-node fleet diverges from the plain study")
	}
	_, _, refShard := distShard(t, ref, refDir)
	refBytes, err := os.ReadFile(refShard)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet: two dist-mode studies over one shared journal directory.
	dir := t.TempDir()
	nodes := [2]*Study{distStudy(t, dir, "node-0"), distStudy(t, dir, "node-1")}
	var got [2][]CampaignResult
	var wg sync.WaitGroup
	for i, s := range nodes {
		wg.Add(1)
		go func(i int, s *Study) {
			defer wg.Done()
			got[i] = s.Campaign("RF", "crc32", ModeExhaustive, 0)
		}(i, s)
	}
	wg.Wait()

	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("node %d: distributed results diverge from the single-process run", i)
		}
	}
	key, bind, shardPath := distShard(t, nodes[0], dir)
	data, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatalf("merged canonical shard: %v", err)
	}
	if !bytes.Equal(data, refBytes) {
		t.Errorf("merged canonical shard (%d bytes) is not byte-identical to the single-process shard (%d bytes)",
			len(data), len(refBytes))
	}
	j, _ := journal.Open(dir)
	if hasParts, err := j.HasParts(key, bind); err != nil || hasParts {
		t.Errorf("after merge: hasParts=%v err=%v, want no part shards left", hasParts, err)
	}

	// A third node arriving late finds everything journalled: pure load.
	late := distStudy(t, dir, "node-late")
	if res := late.Campaign("RF", "crc32", ModeExhaustive, 0); !reflect.DeepEqual(res, want) {
		t.Error("late node: journal-served distributed results diverge")
	}
}

// TestServiceDistAssess drives the distributed layer through the Service:
// a dist-configured service answers an assessment via a one-node fleet and
// the next identical request is a pure cache hit.
func TestServiceDistAssess(t *testing.T) {
	dir := t.TempDir()
	s, err := NewService(ServiceConfig{
		Workers:    2,
		JournalDir: dir,
		Dist:       &DistConfig{Fleet: 2, Owner: "svc-node", LeaseTTL: 2 * time.Second},
		Obs:        NewObserver(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if first.Meta.JournalHit {
		t.Fatalf("first dist assessment reported a journal hit: %+v", first.Meta)
	}
	second, err := s.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Meta.JournalHit {
		t.Errorf("repeat dist assessment meta %+v, want a hit", second.Meta)
	}
	if resultBytes(t, first) != resultBytes(t, second) {
		t.Error("dist-served payloads are not byte-identical across requests")
	}

	// The distributed path must match a plain service's answer exactly.
	plain := newTestService(t, t.TempDir())
	ref, err := plain.Assess(svcRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resultBytes(t, first) != resultBytes(t, ref) {
		t.Error("distributed assessment payload diverges from the plain service's")
	}
}

// TestStudyDistFailureLeavesCanonicalShard: when this node cannot open its
// part shard, the distributed run fails and the study answers from an
// unjournalled local run. It must not open a writer on the canonical shard,
// which another node may be merging at that moment.
func TestStudyDistFailureLeavesCanonicalShard(t *testing.T) {
	want := distStudy(t, t.TempDir(), "").Campaign("RF", "crc32", ModeExhaustive, 0)

	dir := t.TempDir()
	node := distStudy(t, dir, "node-0")
	_, _, canonical := distShard(t, node, dir)
	// A directory where the part shard belongs: PartWriter fails with EISDIR.
	if err := os.MkdirAll(canonical+".part-node-0", 0o755); err != nil {
		t.Fatal(err)
	}
	if got := node.Campaign("RF", "crc32", ModeExhaustive, 0); !reflect.DeepEqual(got, want) {
		t.Error("fallback results diverge from a plain study's")
	}
	if _, err := os.Stat(canonical); !os.IsNotExist(err) {
		t.Errorf("fallback touched the canonical shard (stat err %v), want it absent", err)
	}
}
