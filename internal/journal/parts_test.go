package journal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSeverAllPointsUnderPolicies is the satellite crash-safety sweep: a
// shard written under fsync policy `every` and `chunk` is severed at EVERY
// byte offset, and each torn shard must resume to a study identical to the
// untorn one. Three invariants per sever point: Load never returns a
// record that differs from the true result, the resume writer heals the
// shard completely, and a header tear degrades to a clean from-scratch
// shard rather than an error. The resume runs on the real fsync where the
// cut falls on a line boundary (the header's end, each record's end) and
// at the last byte; everywhere else fsync is a counting no-op, which the
// sweep must still reach.
func TestSeverAllPointsUnderPolicies(t *testing.T) {
	realSync := fsync
	defer func() { fsync = realSync }()
	results := testResults()
	for name, policy := range map[string]SyncPolicy{"every": SyncEvery, "chunk": SyncChunk} {
		t.Run(name, func(t *testing.T) {
			j, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key, bind := testKey(), testBinding(4)
			w, err := j.Writer(key, bind, false)
			if err != nil {
				t.Fatal(err)
			}
			w.SetSyncPolicy(policy)
			for i, r := range results {
				w.Append(i, r)
				if policy == SyncChunk {
					w.Sync() // the ChunkSink cadence
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := j.shardPath(key, bind)
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			for cut := 1; cut < len(whole); cut++ {
				synced := 0
				fake := whole[cut-1] != '\n' && cut != len(whole)-1
				fsync = realSync
				if fake {
					fsync = func(*os.File) error { synced++; return nil }
				}
				if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				prior, err := j.Load(key, bind)
				if err != nil && err != ErrMismatch {
					t.Fatalf("cut=%d: Load error %v", cut, err)
				}
				for i, got := range prior {
					if !reflect.DeepEqual(got, results[i]) {
						t.Fatalf("cut=%d: surviving record %d corrupted", cut, i)
					}
				}
				// Resume and re-append everything the tear lost.
				rw, err := j.Writer(key, bind, true)
				if err != nil {
					t.Fatalf("cut=%d: resume writer: %v", cut, err)
				}
				rw.SetSyncPolicy(policy)
				for i, r := range results {
					if _, ok := prior[i]; !ok {
						rw.Append(i, r)
					}
				}
				if err := rw.Close(); err != nil {
					t.Fatalf("cut=%d: close: %v", cut, err)
				}
				healed, err := j.Load(key, bind)
				if err != nil {
					t.Fatalf("cut=%d: healed shard: %v", cut, err)
				}
				if len(healed) != len(results) {
					t.Fatalf("cut=%d: healed shard has %d records, want %d", cut, len(healed), len(results))
				}
				for i, want := range results {
					if !reflect.DeepEqual(healed[i], want) {
						t.Fatalf("cut=%d: record %d differs after heal", cut, i)
					}
				}
				if fake && synced == 0 {
					t.Fatalf("cut=%d: the resume never synced", cut)
				}
			}
		})
	}
}

// TestPartWriterLoadAll drives the distributed resume view: results spread
// over the canonical shard and two worker parts must merge by index, with
// duplicate indices resolved deterministically and damaged parts skipped
// rather than poisoning the campaign.
func TestPartWriterLoadAll(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	results := testResults()

	// Canonical shard holds record 0 (a prior partial merge).
	w, err := j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(0, results[0])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Worker a holds 1 and a duplicate of 0; worker b holds 2 and 3.
	wa, err := j.PartWriter(key, bind, "worker-a", false)
	if err != nil {
		t.Fatal(err)
	}
	wa.Append(1, results[1])
	wa.Append(0, results[0])
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	wb, err := j.PartWriter(key, bind, "worker-b", false)
	if err != nil {
		t.Fatal(err)
	}
	wb.Append(2, results[2])
	wb.Append(3, results[3])
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}

	all, err := j.LoadAll(key, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("LoadAll merged %d records, want 4", len(all))
	}
	for i, want := range results {
		if !reflect.DeepEqual(all[i], want) {
			t.Errorf("merged record %d: got %+v, want %+v", i, all[i], want)
		}
	}

	// Plain Load must NOT see the parts — the canonical shard alone is the
	// service cache's source of truth until a merge lands.
	only, err := j.Load(key, bind)
	if err != nil || len(only) != 1 {
		t.Fatalf("Load leaked part records: %d (%v), want 1", len(only), err)
	}

	// A header-damaged part is skipped, not fatal.
	pp := j.partPath(key, bind, "worker-b")
	data, err := os.ReadFile(pp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pp, bytes.Replace(data, []byte(`"seed":7`), []byte(`"seed":9`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	all, err = j.LoadAll(key, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("LoadAll with a damaged part merged %d records, want 2", len(all))
	}
}

// TestMergeByteIdentity is the tentpole guarantee in miniature: however the
// campaign's records were sharded across workers, Merge writes a canonical
// shard whose bytes are identical, and the parts are gone afterwards.
func TestMergeByteIdentity(t *testing.T) {
	results := testResults()
	shard := func(t *testing.T, split func(j *Journal, key Key, bind Binding)) []byte {
		t.Helper()
		j, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key, bind := testKey(), testBinding(4)
		split(j, key, bind)
		all, err := j.LoadAll(key, bind)
		if err != nil || len(all) != 4 {
			t.Fatalf("LoadAll before merge: %d records (%v)", len(all), err)
		}
		if err := j.Merge(key, bind, all); err != nil {
			t.Fatal(err)
		}
		if parts, _ := j.parts(key, bind); len(parts) != 0 {
			t.Fatalf("%d part shards survived the merge", len(parts))
		}
		got, err := j.Load(key, bind)
		if err != nil || len(got) != 4 {
			t.Fatalf("merged shard: %d records (%v)", len(got), err)
		}
		data, err := os.ReadFile(j.shardPath(key, bind))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	appendAll := func(t *testing.T, w *Writer, idx ...int) {
		t.Helper()
		for _, i := range idx {
			w.Append(i, results[i])
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// One process, no parts at all.
	single := shard(t, func(j *Journal, key Key, bind Binding) {
		w, err := j.Writer(key, bind, false)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, w, 0, 1, 2, 3)
	})
	// Two workers, out-of-order appends, a duplicated index.
	double := shard(t, func(j *Journal, key Key, bind Binding) {
		wa, err := j.PartWriter(key, bind, "a", false)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, wa, 3, 0)
		wb, err := j.PartWriter(key, bind, "b", false)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, wb, 2, 1, 3)
	})
	// Four workers, one record each.
	quad := shard(t, func(j *Journal, key Key, bind Binding) {
		for i, owner := range []string{"w0", "w1", "w2", "w3"} {
			w, err := j.PartWriter(key, bind, owner, false)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, w, i)
		}
	})
	if !bytes.Equal(single, double) {
		t.Error("2-worker merged shard bytes differ from single-process shard")
	}
	if !bytes.Equal(single, quad) {
		t.Error("4-worker merged shard bytes differ from single-process shard")
	}
}

// TestMergeReaderKeepsOldShard: Merge replaces the canonical shard instead
// of rewriting it in place, so a reader that opened the shard before the
// merge reads the pre-merge bytes to the end — never a splice of the old
// file's head and the merged file's tail — and the merged records are in
// the file the name points to afterwards.
func TestMergeReaderKeepsOldShard(t *testing.T) {
	results := testResults()
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	// The canonical shard holds the records a single-process run left
	// (out of order, as a live shard appends them); a part holds the rest.
	w, err := j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(3, results[3])
	w.Append(1, results[1])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pw, err := j.PartWriter(key, bind, "n1", false)
	if err != nil {
		t.Fatal(err)
	}
	pw.Append(0, results[0])
	pw.Append(2, results[2])
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	path := j.shardPath(key, bind)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	head := make([]byte, len(before)/2)
	if _, err := io.ReadFull(f, head); err != nil {
		t.Fatal(err)
	}
	all, err := j.LoadAll(key, bind)
	if err != nil || len(all) != 4 {
		t.Fatalf("LoadAll before merge: %d records (%v)", len(all), err)
	}
	if err := j.Merge(key, bind, all); err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(head, tail...); !bytes.Equal(got, before) {
		t.Errorf("a reader open across the merge read %d bytes that are not the pre-merge shard (%d bytes)", len(got), len(before))
	}

	got, err := j.Load(key, bind)
	if err != nil || !reflect.DeepEqual(got, all) {
		t.Fatalf("merged shard: %d records (%v), want the 4 merged", len(got), err)
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Errorf("merge left %d files beside the canonical shard, want none", len(entries)-1)
	}
}

// TestPartWriterResume verifies a restarted worker resumes its own part
// shard: the torn tail is truncated, prior records survive.
func TestPartWriterResume(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	results := testResults()
	w, err := j.PartWriter(key, bind, "node1", false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(0, results[0])
	w.Append(1, results[1])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	pp := j.partPath(key, bind, "node1")
	data, err := os.ReadFile(pp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pp, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	w, err = j.PartWriter(key, bind, "node1", true)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(1, results[1])
	w.Append(2, results[2])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := j.LoadAll(key, bind)
	if err != nil || len(all) != 3 {
		t.Fatalf("resumed part: %d records (%v), want 3", len(all), err)
	}
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(all[i], results[i]) {
			t.Errorf("record %d corrupted across part resume", i)
		}
	}
}

// TestShardIDStable pins that ShardID is journal-relative (two journals at
// different roots agree on it) and slash-normalized.
func TestShardIDStable(t *testing.T) {
	j1, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	a, b := j1.ShardID(key, bind), j2.ShardID(key, bind)
	if a == "" || a != b {
		t.Fatalf("ShardID not root-independent: %q vs %q", a, b)
	}
	if filepath.IsAbs(a) {
		t.Fatalf("ShardID %q is absolute", a)
	}
	other := testBinding(4)
	other.Seed = 99
	if j1.ShardID(key, other) == a {
		t.Error("different bindings must yield different ShardIDs")
	}
}
