package journal

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"avgi/internal/campaign"
	"avgi/internal/cpu"
	"avgi/internal/fault"
	"avgi/internal/imm"
	"avgi/internal/prog"
)

func testKey() Key {
	return Key{Structure: "RF", Workload: "sha", Mode: "exhaustive", Window: 0}
}

func testBinding(faults int) Binding {
	return Binding{Machine: "avgi-a72", Variant: "AVG64", ProgramHash: 0xfeedface, Seed: 7, Faults: faults}
}

// testResults covers every Result field class the journal must round-trip:
// a plain classified fault, a crash with latency, a runaway, and a
// quarantined fault with an error string.
func testResults() []campaign.Result {
	return []campaign.Result{
		{
			Fault:     fault.Fault{ID: 0, Structure: "RF", Bit: 12, Cycle: 100},
			IMM:       imm.DCR,
			Effect:    imm.SDC,
			HasEffect: true, Manifested: true, ManifestLatency: 42, SimCycles: 9000,
		},
		{
			Fault: fault.Fault{ID: 1, Structure: "RF", Bit: 7, Cycle: 200, Width: 2},
			IMM:   imm.PRE, Manifested: true, ManifestLatency: 5,
			SimCycles: 5, Crash: cpu.CrashPageFault,
		},
		{
			Fault: fault.Fault{ID: 2, Structure: "RF", Bit: 3, Cycle: 300},
			IMM:   imm.PRE, SimCycles: 100000, Runaway: true,
		},
		{
			Fault:       fault.Fault{ID: 3, Structure: "RF", Bit: 1, Cycle: 400},
			Quarantined: true, Err: "campaign: fault #3 wraps past the end of RF (2048 bits)",
		},
	}
}

func TestRoundTrip(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	results := testResults()

	w, err := j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		w.Append(i, r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	prior, err := j.Load(key, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != len(results) {
		t.Fatalf("loaded %d records, want %d", len(prior), len(results))
	}
	for i, want := range results {
		if got, ok := prior[i]; !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("record %d: got %+v, want %+v", i, prior[i], want)
		}
	}
}

func TestMissingShard(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prior, err := j.Load(testKey(), testBinding(4))
	if err != nil || prior != nil {
		t.Fatalf("missing shard: got (%v, %v), want (nil, nil)", prior, err)
	}
}

func TestBindingMismatch(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey()
	w, err := j.Writer(key, testBinding(4), false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(0, testResults()[0])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Same key, different seed: distinct shard file, so no records — and
	// no cross-contamination of the original shard.
	other := testBinding(4)
	other.Seed = 99
	if prior, err := j.Load(key, other); err != nil || len(prior) != 0 {
		t.Errorf("different binding must map to a different (missing) shard, got (%v, %v)", prior, err)
	}

	// A shard whose header was corrupted in place must be refused.
	path := j.shardPath(key, testBinding(4))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 2)
	mangled := strings.Replace(lines[0], `"seed":7`, `"seed":99`, 1) + "\n" + lines[1]
	if mangled == string(data) {
		t.Fatal("test setup: header mangle had no effect")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Load(key, testBinding(4)); err != ErrMismatch {
		t.Errorf("corrupt header: err = %v, want ErrMismatch", err)
	}
}

// TestTornTail simulates a SIGKILL mid-append: the final line is cut short
// and must be discarded on load without failing the whole shard.
func TestTornTail(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	w, err := j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range testResults() {
		w.Append(i, r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	path := j.shardPath(key, bind)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-way through the final record's line.
	cut := len(data) - 17
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	prior, err := j.Load(key, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 3 {
		t.Fatalf("torn shard loaded %d records, want 3", len(prior))
	}
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(prior[i], testResults()[i]) {
			t.Errorf("record %d corrupted by torn tail", i)
		}
	}
}

// TestResumeAppends verifies that a resume-mode writer extends an existing
// shard rather than truncating it, and that a non-resume writer starts
// over.
func TestResumeAppends(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	results := testResults()

	w, err := j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(0, results[0])
	w.Append(1, results[1])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = j.Writer(key, bind, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(2, results[2])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	prior, err := j.Load(key, bind)
	if err != nil || len(prior) != 3 {
		t.Fatalf("after resume append: %d records (%v), want 3", len(prior), err)
	}

	w, err = j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	prior, err = j.Load(key, bind)
	if err != nil || len(prior) != 0 {
		t.Fatalf("non-resume writer must truncate: %d records (%v)", len(prior), err)
	}
}

// TestResumeTruncatesTornTail is the regression test for torn-tail resume:
// appending after a crash must first truncate the shard to its last intact
// record, or the fresh append would concatenate onto the torn half-line and
// corrupt both records forever.
func TestResumeTruncatesTornTail(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	results := testResults()
	w, err := j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Append(i, results[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record mid-line, then resume and append the two
	// missing results.
	path := j.shardPath(key, bind)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-13], 0o644); err != nil {
		t.Fatal(err)
	}
	w, err = j.Writer(key, bind, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(2, results[2])
	w.Append(3, results[3])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The shard must now be whole: four intact records, no torn remnant.
	prior, err := j.Load(key, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 4 {
		t.Fatalf("resumed shard has %d records, want 4", len(prior))
	}
	for i, want := range results {
		if !reflect.DeepEqual(prior[i], want) {
			t.Errorf("record %d corrupted across the torn-tail resume", i)
		}
	}
}

// TestHashProgram asserts the binding hash is sensitive to the program
// image: same workload+variant hashes stably, text and data changes are
// detected.
func TestHashProgram(t *testing.T) {
	w, err := prog.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.ConfigA72()
	p1, p2 := w.Build(cfg.Variant), w.Build(cfg.Variant)
	if HashProgram(p1) != HashProgram(p2) {
		t.Error("identical builds must hash identically")
	}
	p2.Text = append([]uint32(nil), p2.Text...)
	p2.Text[0] ^= 1
	if HashProgram(p1) == HashProgram(p2) {
		t.Error("a text change must change the hash")
	}
	p3 := w.Build(cpu.ConfigA15().Variant)
	if HashProgram(p1) == HashProgram(p3) {
		t.Error("different variants must hash differently")
	}
}

// TestTornShardSeverPoints drives the torn-tail recovery across the three
// distinct places a crash can sever the shard: inside a record's payload,
// exactly at a record's closing brace with the newline lost, and inside the
// header's checksum field. Each case must load exactly the intact prefix
// (or refuse the shard outright when the header itself is torn), and a
// resume writer must leave a shard whose records are identical to an
// untorn study.
func TestTornShardSeverPoints(t *testing.T) {
	results := testResults()
	// sever returns the truncation point for one scenario given the whole
	// shard; wantErr/wantLoaded describe the post-sever Load, appendFrom
	// the index resume must restart at to rebuild the full study.
	cases := []struct {
		name       string
		sever      func(data []byte) int
		wantErr    error
		wantLoaded int
		appendFrom int
	}{
		{
			name: "mid-payload",
			// Cut a few bytes into the final record's Result object: the
			// remnant {"i":3,"r" is undecodable and must be discarded.
			sever: func(data []byte) int {
				lastNL := lastLineStart(data)
				return lastNL + 10
			},
			wantLoaded: 3, appendFrom: 3,
		},
		{
			name: "json-complete-newline-lost",
			// Cut exactly past the final record's closing brace, before
			// its newline: the line parses, but the record must still be
			// dropped so resume truncates to a clean line boundary.
			sever:      func(data []byte) int { return len(data) - 1 },
			wantLoaded: 3, appendFrom: 3,
		},
		{
			name: "header-mid-checksum",
			// Sever inside the header's trailing checksum field: the
			// whole shard is untrustworthy and must be refused; resume
			// falls back to a from-scratch shard.
			sever:      func(data []byte) int { return bytes.IndexByte(data, '\n') - 3 },
			wantErr:    ErrMismatch,
			wantLoaded: 0, appendFrom: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key, bind := testKey(), testBinding(4)
			w, err := j.Writer(key, bind, false)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				w.Append(i, r)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			path := j.shardPath(key, bind)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := tc.sever(data)
			if cut <= 0 || cut >= len(data) {
				t.Fatalf("test setup: sever point %d outside shard (%d bytes)", cut, len(data))
			}
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			prior, err := j.Load(key, bind)
			if err != tc.wantErr {
				t.Fatalf("Load on torn shard: err = %v, want %v", err, tc.wantErr)
			}
			if len(prior) != tc.wantLoaded {
				t.Fatalf("torn shard loaded %d records, want %d", len(prior), tc.wantLoaded)
			}
			for i := 0; i < tc.wantLoaded; i++ {
				if !reflect.DeepEqual(prior[i], results[i]) {
					t.Errorf("record %d corrupted by the torn tail", i)
				}
			}

			// Resume across the tear and rebuild the missing suffix: the
			// healed shard must hold the identical full study.
			w, err = j.Writer(key, bind, true)
			if err != nil {
				t.Fatal(err)
			}
			for i := tc.appendFrom; i < len(results); i++ {
				w.Append(i, results[i])
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			prior, err = j.Load(key, bind)
			if err != nil {
				t.Fatal(err)
			}
			if len(prior) != len(results) {
				t.Fatalf("healed shard has %d records, want %d", len(prior), len(results))
			}
			for i, want := range results {
				if !reflect.DeepEqual(prior[i], want) {
					t.Errorf("record %d differs from the untorn study after resume", i)
				}
			}
		})
	}
}

// lastLineStart returns the offset of the final \n-terminated line's first
// byte.
func lastLineStart(data []byte) int {
	return bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
}

// TestShardPathSanitizeCollision pins the checksum-suffix guarantee: two
// keys whose human-readable components sanitize to the same filename
// fragment ("L1D (Tag)" and "L1D_(Tag)" both become "L1D__Tag_") must still
// land in distinct shard files, because the binding checksum — computed
// over the raw, unsanitized strings — differs. Without the suffix the
// second campaign would silently truncate the first one's work.
func TestShardPathSanitizeCollision(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bind := testBinding(1)
	a := Key{Structure: "L1D (Tag)", Workload: "sha", Mode: "exhaustive"}
	b := Key{Structure: "L1D_(Tag)", Workload: "sha", Mode: "exhaustive"}
	if sanitize(a.Structure) != sanitize(b.Structure) {
		t.Fatalf("test setup: %q and %q no longer sanitize identically", a.Structure, b.Structure)
	}
	pa, pb := j.shardPath(a, bind), j.shardPath(b, bind)
	if pa == pb {
		t.Fatalf("colliding sanitized keys share one shard path %s", pa)
	}

	// End to end: write both shards, load both back, no cross-talk.
	ra := testResults()[0]
	rb := testResults()[1]
	rb.Fault.Structure = b.Structure
	for _, wr := range []struct {
		k Key
		r campaign.Result
	}{{a, ra}, {b, rb}} {
		w, err := j.Writer(wr.k, bind, false)
		if err != nil {
			t.Fatal(err)
		}
		w.Append(0, wr.r)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := j.Load(a, bind)
	if err != nil || !reflect.DeepEqual(got[0], ra) {
		t.Errorf("shard A corrupted by its sanitize-collision sibling (%v)", err)
	}
	got, err = j.Load(b, bind)
	if err != nil || !reflect.DeepEqual(got[0], rb) {
		t.Errorf("shard B corrupted by its sanitize-collision sibling (%v)", err)
	}
}

// TestWriterErrorHookFiresOnce proves a dying disk is visible immediately:
// the first sticky I/O error fires OnError exactly once, later appends are
// silent no-ops, and Close still reports the original error.
func TestWriterErrorHookFiresOnce(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(4)
	w, err := j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	var fired []error
	w.OnError(func(err error) { fired = append(fired, err) })

	// Simulate the disk dying under the writer: close the file out from
	// underneath it, so the next flush-inducing operation errors.
	w.f.Close()
	w.Append(0, testResults()[0])
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on a closed file must error")
	}
	w.Append(1, testResults()[1]) // sticky: silently dropped
	w.Sync()

	if len(fired) != 1 {
		t.Fatalf("OnError fired %d times, want exactly once", len(fired))
	}
	if cerr := w.Close(); cerr == nil || !strings.Contains(cerr.Error(), "journal:") {
		t.Errorf("Close must report the sticky error, got %v", cerr)
	}
}

// TestChunkSinkAppendsSettled: of a chunk whose ran mask interleaves
// settled and prior indices, the sink appends exactly the settled ones,
// reports their count, and makes them durable before the writer closes.
// Marks outside the chunk belong to other chunks and are not its to write.
func TestChunkSinkAppendsSettled(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, bind := testKey(), testBinding(8)
	w, err := j.Writer(key, bind, false)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]campaign.Result, 8)
	for i := range results {
		results[i] = testResults()[i%4]
		results[i].Fault.ID = i
	}
	ran := []bool{true, false, true, false, true, true, false, true}
	var added []uint64
	NewChunkSink(w, func(n uint64) { added = append(added, n) }).ChunkDone(1, 7, ran, results)
	if !reflect.DeepEqual(added, []uint64{3}) {
		t.Errorf("added reported %v, want [3]", added)
	}

	got, err := j.Load(key, bind)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("loaded %d records before Close, want the 3 settled ones", len(got))
	}
	for _, i := range []int{2, 4, 5} {
		if res, ok := got[i]; !ok || !reflect.DeepEqual(res, results[i]) {
			t.Errorf("record %d: got %+v (present %v), want %+v", i, res, ok, results[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
