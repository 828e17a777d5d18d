// Package journal is the durable result store of the fault-injection
// campaigns: completed per-fault Results are appended as NDJSON shards, one
// shard per single-flight campaign key (structure, workload, mode, ERT
// window), so a study killed mid-run — a crash, an OOM kill, a pre-empted
// node — can be restarted and resume from the first missing fault instead
// of re-simulating days of work. Fault injectors must tolerate faults:
// this is the same per-injection checkpoint/journal discipline CHAOS and
// InjectV apply at the paper's 726k-injection scale.
//
// Shard layout (see docs/ROBUSTNESS.md):
//
//   - line 1: a checksummed header binding the shard to its exact campaign
//     configuration — machine config name and ISA variant, a hash of the
//     assembled program image, the sampling seed, and the fault count. A
//     shard whose binding does not match is never resumed from: results
//     from a different seed or a different build would silently corrupt
//     the campaign's statistics.
//   - following lines: one record per completed fault, {"i": index,
//     "r": Result}, in completion order (not index order — concurrent
//     chunks interleave).
//
// Appends are buffered and fsynced per completed chunk (the campaign
// runner's ChunkSink granularity), bounding loss on a crash to the chunks
// still in flight. Loading tolerates a torn final line — the signature of
// a crash mid-append — by discarding everything from the first undecodable
// line onward.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"avgi/internal/asm"
	"avgi/internal/campaign"
)

// Key identifies one campaign shard — the same quadruple the study's
// single-flight scheduler deduplicates executions on.
type Key struct {
	Structure string `json:"structure"`
	Workload  string `json:"workload"`
	Mode      string `json:"mode"`
	Window    uint64 `json:"window"`
}

// Binding pins a shard to the exact campaign configuration that produced
// it. Every field participates in the header checksum; a mismatch on any
// of them makes Load refuse the shard.
type Binding struct {
	Machine     string `json:"machine"`
	Variant     string `json:"variant"`
	ProgramHash uint64 `json:"program_hash"`
	Seed        int64  `json:"seed"`
	Faults      int    `json:"faults"`
}

const (
	headerMagic   = "avgi-journal"
	headerVersion = 1
)

// header is the first NDJSON line of every shard.
type header struct {
	Magic    string  `json:"magic"`
	Version  int     `json:"version"`
	Key      Key     `json:"key"`
	Binding  Binding `json:"binding"`
	Checksum uint64  `json:"checksum"`
}

// checksum binds key and binding into one FNV-1a value, so a truncated or
// hand-edited header cannot pass for a valid one.
func checksum(k Key, b Binding) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\x00%s\x00%s\x00%d\x00%d\x00%d",
		k.Structure, k.Workload, k.Mode, k.Window,
		b.Machine, b.Variant, b.ProgramHash, b.Seed, b.Faults)
	return h.Sum64()
}

// record is one completed fault.
type record struct {
	Index  int             `json:"i"`
	Result campaign.Result `json:"r"`
}

// ErrMismatch is returned by Load when a shard exists but its header does
// not bind to the requested key/binding (different seed, build, machine,
// or a corrupt header). The caller must re-simulate from scratch.
var ErrMismatch = errors.New("journal: shard header does not match the campaign binding")

// HashProgram digests an assembled program image — name, variant, text,
// data and memory layout — for the shard binding. Two programs with equal
// hashes produce identical golden runs, so their journalled results are
// interchangeable.
func HashProgram(p *asm.Program) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d\x00%d\x00%d\x00",
		p.Name, p.Variant, p.TextBase, p.DataBase, p.OutBase, p.OutLenAddr, p.RAMSize)
	var w [4]byte
	for _, inst := range p.Text {
		w[0], w[1], w[2], w[3] = byte(inst), byte(inst>>8), byte(inst>>16), byte(inst>>24)
		h.Write(w[:])
	}
	h.Write(p.Data)
	return h.Sum64()
}

// SyncPolicy selects when a Writer fsyncs its shard — the
// durability/throughput trade of docs/ROBUSTNESS.md. It is not a user
// setting: it follows from the shard's role. Loss bounds on a crash (a
// torn tail is always recovered from, whatever the policy):
//
//   - SyncChunk (default): Sync is called once per completed campaign
//     chunk; loss is bounded to the chunks still in flight.
//   - SyncEvery: every Append flushes and fsyncs — per-fault durability,
//     what a distributed node's part shard uses, because another node
//     must be able to take its chunks over mid-flight.
type SyncPolicy uint8

const (
	SyncChunk SyncPolicy = iota
	SyncEvery
)

// Journal is a directory of campaign shards. All methods are safe for
// concurrent use across distinct shards (the study runs one writer per
// in-flight campaign); a single shard must not have two concurrent
// writers, which the single-flight scheduler already guarantees.
type Journal struct {
	dir string
}

// Open creates (if needed) and returns the journal rooted at dir.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// shardPath derives a shard's file path. Shards are grouped into one
// subdirectory per machine and variant, named readably after the key, and
// suffixed with the binding checksum so incompatible configurations (another
// machine, program, seed or fault count) get distinct files instead of
// truncating each other's work. This is the only layout: a Study and a
// Service over one directory read and write the same shards.
func (j *Journal) shardPath(k Key, b Binding) string {
	sub := sanitize(b.Machine + "-" + b.Variant)
	name := fmt.Sprintf("%s__%s__%s__%d-%016x.ndjson",
		sanitize(k.Structure), sanitize(k.Workload), sanitize(k.Mode), k.Window, checksum(k, b))
	return filepath.Join(j.dir, sub, name)
}

// ShardID is a shard's journal-relative identity — the machine-variant
// subdirectory plus the checksummed shard filename. It is the stable
// resource name distributed workers lease chunks of (see internal/dist):
// two processes agreeing on (key, binding) agree on the ShardID, and two
// different bindings can never collide on one (the binding checksum is
// part of the name).
func (j *Journal) ShardID(k Key, b Binding) string {
	rel, _ := filepath.Rel(j.dir, j.shardPath(k, b))
	return filepath.ToSlash(rel)
}

// partPath derives the worker-private sibling of a shard: the same
// checksummed NDJSON format under the same directory, suffixed with the
// owning worker's name so concurrent workers of one distributed campaign
// never share a file descriptor. The merge step folds parts back into the
// canonical shard (see Merge).
func (j *Journal) partPath(k Key, b Binding, owner string) string {
	return j.shardPath(k, b) + ".part-" + sanitize(owner)
}

// sanitize maps a key component onto a portable filename fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// Load reads a shard's journalled results, keyed by fault-list index. A
// missing shard yields (nil, nil). A shard whose header fails validation
// yields ErrMismatch. A torn final line (crash mid-append) is discarded
// silently; any record after the first undecodable line is ignored, as is
// any record whose index lies outside [0, binding.Faults).
//
// Load is strictly read-only: it never creates, truncates or locks the
// shard, so a long-running service can answer cache lookups against a
// journal directory (len(prior) == binding.Faults is a full hit) without
// opening a Writer or contending with one owned by an in-flight campaign.
func (j *Journal) Load(k Key, b Binding) (map[int]campaign.Result, error) {
	prior, _, err := j.load(k, b)
	return prior, err
}

// LoadAll reads the canonical shard plus every worker part shard of a
// distributed campaign, merged by fault index — the resume view of a
// sharded campaign, where completed work may be spread over the canonical
// shard (a finished merge), this worker's own part, and the parts of
// every other live or dead worker. Duplicate indices (two workers raced a
// stale lease and both simulated a chunk) are harmless: chunk results are
// deterministic, so either record is the record. Parts that fail header
// validation are skipped (they cannot occur under the checksummed naming
// scheme unless hand-damaged); a canonical-shard mismatch is surfaced as
// ErrMismatch exactly like Load.
func (j *Journal) LoadAll(k Key, b Binding) (map[int]campaign.Result, error) {
	prior, err := j.Load(k, b)
	if err != nil {
		return nil, err
	}
	if prior == nil {
		prior = make(map[int]campaign.Result)
	}
	parts, err := j.parts(k, b)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		rec, _, err := j.loadPath(p, k, b)
		if err != nil {
			continue // damaged part: its records are unverifiable, skip
		}
		for i, r := range rec {
			if _, ok := prior[i]; !ok {
				prior[i] = r
			}
		}
	}
	if len(prior) == 0 {
		return nil, nil
	}
	return prior, nil
}

// HasParts reports whether any worker part shards exist for this campaign
// — the signal that a distributed merge still has consolidation to do
// (e.g. after a crash that landed between the canonical fsync and the part
// removal).
func (j *Journal) HasParts(k Key, b Binding) (bool, error) {
	parts, err := j.parts(k, b)
	return len(parts) > 0, err
}

// parts lists the worker part shards of one campaign, sorted by path so
// LoadAll's merge order (and therefore a merge race's winner for
// duplicate indices) is deterministic.
func (j *Journal) parts(k Key, b Binding) ([]string, error) {
	matches, err := filepath.Glob(j.shardPath(k, b) + ".part-*")
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	sort.Strings(matches)
	return matches, nil
}

// load is Load plus the byte offset just past the last valid record — the
// truncation point a resuming Writer appends from, so a torn tail can never
// merge with the first fresh record.
func (j *Journal) load(k Key, b Binding) (map[int]campaign.Result, int64, error) {
	return j.loadPath(j.shardPath(k, b), k, b)
}

// loadPath is load against an explicit file (the canonical shard or one
// worker part — both carry the same checksummed header).
func (j *Journal) loadPath(path string, k Key, b Binding) (map[int]campaign.Result, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		return nil, 0, ErrMismatch // empty or unreadable header
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, 0, ErrMismatch
	}
	if h.Magic != headerMagic || h.Version != headerVersion ||
		h.Key != k || h.Binding != b || h.Checksum != checksum(k, b) {
		return nil, 0, ErrMismatch
	}
	// The writer emits plain \n-terminated lines, so each scanned line
	// occupies len(bytes)+1 bytes of the file.
	valid := int64(len(sc.Bytes())) + 1

	prior := make(map[int]campaign.Result)
	lastIdx, lastLen := -1, int64(0)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // torn tail: trust nothing at or past the first bad line
		}
		if rec.Index < 0 || rec.Index >= b.Faults {
			break
		}
		prior[rec.Index] = rec.Result
		lastIdx, lastLen = rec.Index, int64(len(sc.Bytes()))
		valid += lastLen + 1
	}
	// A crash can cut the file exactly at the end of a line's JSON, before
	// its newline: the line still parses but the counted offset overshoots
	// the file. Drop that record so a resume truncates to a clean boundary.
	if fi, err := f.Stat(); err == nil && valid > fi.Size() {
		if lastIdx < 0 {
			return nil, 0, ErrMismatch // the header itself lost its newline
		}
		delete(prior, lastIdx)
		valid -= lastLen + 1
		if valid > fi.Size() {
			return nil, 0, ErrMismatch
		}
	}
	return prior, valid, nil
}

// Writer appends records to one shard. Safe for concurrent Append/Sync
// from multiple campaign workers. I/O errors are sticky: the first one is
// remembered, later appends become no-ops, and Close reports it — a
// failing disk degrades the journal, never the campaign. Set OnError to
// observe the first error the moment it happens instead of at Close: a
// dying disk used to journal nothing for an entire campaign with no sign
// of trouble until the final Close call.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	buf      *bufio.Writer
	policy   SyncPolicy
	err      error
	errFired bool
	onError  func(error)
}

// SetSyncPolicy selects the writer's fsync discipline (default SyncChunk).
// Call before sharing the writer between goroutines.
func (w *Writer) SetSyncPolicy(p SyncPolicy) { w.policy = p }

// OnError registers a callback invoked exactly once, with the writer's
// first sticky I/O error, at the moment the writer degrades to a no-op.
// The callback runs with the writer's lock held — it must not call back
// into the writer. Call before sharing the writer between goroutines.
func (w *Writer) OnError(fn func(error)) { w.onError = fn }

// fail records the first sticky error and fires the OnError hook once.
// Caller holds w.mu.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	if !w.errFired && w.onError != nil {
		w.errFired = true
		w.onError(w.err)
	}
	return w.err
}

// Writer opens a shard for appending. With resume false the shard is
// truncated and a fresh header written — the caller wants a from-scratch
// run. With resume true an existing shard with a valid matching header is
// truncated to its last intact record and appended from there (the caller
// has already Loaded those records), so a torn tail from a crash can never
// merge with the first fresh append; a missing or invalid shard falls back
// to a from-scratch truncation.
func (j *Journal) Writer(k Key, b Binding, resume bool) (*Writer, error) {
	return j.writerAt(j.shardPath(k, b), k, b, resume)
}

// PartWriter opens a worker-private part shard for appending — the shard a
// distributed campaign worker journals its leased chunks into, sibling to
// the canonical shard and in the identical checksummed format. owner must
// be stable across a worker's restarts (the resume path truncates the
// worker's own torn tail and appends from there) and unique across live
// workers (two live writers on one part file would interleave). The merge
// step (Merge) folds all parts back into the canonical shard.
func (j *Journal) PartWriter(k Key, b Binding, owner string, resume bool) (*Writer, error) {
	return j.writerAt(j.partPath(k, b, owner), k, b, resume)
}

func (j *Journal) writerAt(path string, k Key, b Binding, resume bool) (*Writer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var off int64
	if resume {
		if _, o, err := j.loadPath(path, k, b); err != nil || o == 0 {
			resume = false // missing or mismatched: start over
		} else {
			off = o
		}
	}
	flags := os.O_CREATE | os.O_WRONLY
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if resume {
		err := f.Truncate(off)
		if err == nil {
			_, err = f.Seek(off, io.SeekStart)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	w := &Writer{f: f, buf: bufio.NewWriter(f)}
	if !resume {
		h := header{Magic: headerMagic, Version: headerVersion, Key: k, Binding: b, Checksum: checksum(k, b)}
		if err := w.writeLine(h); err != nil {
			f.Close()
			return nil, err
		}
		// The header hits the disk before any result does: a crash
		// right after creation leaves a valid, resumable empty shard
		// rather than a headerless file.
		if err := w.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

func (w *Writer) writeLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := w.buf.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := w.buf.WriteByte('\n'); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Append journals one completed fault. Errors are sticky; use Err or Close
// to observe them.
func (w *Writer) Append(i int, res campaign.Result) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err := w.writeLine(record{Index: i, Result: res}); err != nil {
		w.fail(err)
		return
	}
	if w.policy == SyncEvery {
		w.syncLocked()
	}
}

// Sync flushes buffered records and fsyncs the shard — called once per
// completed campaign chunk, which under the default SyncChunk policy bounds
// crash loss to in-flight chunks without paying an fsync per fault.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if err := w.buf.Flush(); err != nil {
		return w.fail(fmt.Errorf("journal: %w", err))
	}
	if err := fsync(w.f); err != nil {
		return w.fail(fmt.Errorf("journal: %w", err))
	}
	return nil
}

// ChunkSink is the campaign.ChunkSink that keeps a running campaign
// durable: every freshly simulated chunk is appended to the shard and then
// synced, bounding crash loss to in-flight chunks.
type ChunkSink struct {
	w     *Writer
	added func(uint64)
}

// NewChunkSink journals chunks through w; added is told how many records
// each chunk appended.
func NewChunkSink(w *Writer, added func(uint64)) *ChunkSink {
	return &ChunkSink{w: w, added: added}
}

// ChunkDone implements campaign.ChunkSink: it appends the indices the
// campaign settled (ran); the rest of the chunk is already durable from an
// earlier run.
func (cs *ChunkSink) ChunkDone(lo, hi int, ran []bool, results []campaign.Result) {
	var n uint64
	for i := lo; i < hi; i++ {
		if ran[i] {
			cs.w.Append(i, results[i])
			n++
		}
	}
	cs.w.Sync()
	cs.added(n)
}

// Close flushes, fsyncs and closes the shard,
// returning the first error encountered over the writer's lifetime.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	return err
}

// Merge consolidates a distributed campaign's results into the canonical
// shard and removes the worker part shards. Records are written in fault-
// index order, so the merged shard's bytes are a pure function of (key,
// binding, results) — the byte-identity guarantee of docs/DISTRIBUTED.md:
// however many workers ran, however chunks were leased or stolen, the
// merged file is identical to a single-process run's merged file. results
// should be the complete LoadAll view (the caller has verified coverage);
// Merge itself only requires the indices to be in-range.
//
// Crash ordering: the merged shard is written under a sibling name that
// neither Load nor the part glob reads, fsynced, renamed over the
// canonical shard, and the directory fsynced, before any part is unlinked.
// Every record is in a durable file LoadAll reads at every instant — the
// old canonical shard and the parts until the rename, the new canonical
// shard after it — so a crash anywhere loses none, and leaves at most a
// stray "<shard>.merge-*" file nothing reads. A reader holding the old
// canonical shard open reads it whole.
func (j *Journal) Merge(k Key, b Binding, results map[int]campaign.Result) error {
	canon := j.shardPath(k, b)
	if err := os.MkdirAll(filepath.Dir(canon), 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(canon), filepath.Base(canon)+".merge-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	tmp := f.Name()
	f.Close()
	defer os.Remove(tmp) // a no-op once renamed
	w, err := j.writerAt(tmp, k, b, false)
	if err != nil {
		return err
	}
	idx := make([]int, 0, len(results))
	for i := range results {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		w.Append(i, results[i])
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, canon); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := syncDir(filepath.Dir(canon)); err != nil {
		return err
	}
	parts, err := j.parts(k, b)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// fsync makes a file's writes durable. Every shard and directory fsync
// goes through it, so a crash-safety test can sweep thousands of sever
// points without paying a disk flush at each.
var fsync = (*os.File).Sync

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := fsync(d); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
