// Package dist is the distributed campaign layer: it shards the chunks of
// one fault-injection campaign across N worker processes (and machines)
// with nothing but the shared journal directory — or a tiny coordinator
// endpoint — as the coordination substrate.
//
// The design leans entirely on two properties the rest of the codebase
// already guarantees:
//
//   - Chunk geometry is deterministic and timing-independent
//     (campaign.ChunkSize): every process derives identical [lo, hi)
//     fault ranges from the shared (fault-list length, fleet size) pair,
//     so a lease named "chunk-lo-hi" means the same faults on every node.
//   - Per-fault results are deterministic regardless of which process
//     simulates them, so duplicated simulation — two workers racing a
//     stale lease — is wasted work, never corruption: the merge dedups by
//     fault index and either copy is the copy.
//
// Leases are therefore a performance mechanism, not a safety mechanism.
// Safety (no lost or corrupt results) comes from the journal: each worker
// appends to its own checksummed part shard, the merge step consolidates
// parts into the canonical shard only after verifying full index coverage,
// and a killed worker is just a resumed study. See docs/DISTRIBUTED.md for
// the topology and failure matrix.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Leaser is the chunk-ownership arbiter of one campaign fleet. Resource
// names are slash-separated paths ("<shardID>.chunk-0-125", "slots/slot-3");
// owners are stable node identities. Two implementations exist: FileLeaser
// (lease files in the shared journal directory, no server needed) and the
// coordinator pair (Coordinator in-process / HTTPLeaser remote).
//
// Semantics every implementation provides:
//
//   - TryAcquire is first-writer-wins. A lease whose heartbeat expired is
//     free (stale-lease takeover); a torn or empty lease record is free; a
//     resource with a done marker is never acquirable again.
//   - TryAcquire by the current holder renews the lease (a restarted
//     worker with a stable owner name reclaims its own leases instantly).
//   - Heartbeat extends a held lease by ttl. Heartbeating a lease that no
//     longer exists re-creates it — that is what lets workers ride through
//     a coordinator restart (the restarted coordinator has empty state and
//     relearns ownership from the next heartbeat wave).
//   - Release with done=true writes a persistent done marker so every
//     later TryAcquire refuses the resource; done=false frees it for the
//     next claimant.
//   - Reset deletes all lease and done state under a name prefix — called
//     by the merge winner once the canonical shard is durable, so finished
//     chunk markers do not outlive the parts they described.
//
// Errors are transport failures (an unreachable coordinator, an unwritable
// lease directory) — callers treat them as "not acquired" and retry, never
// as campaign failures.
type Leaser interface {
	TryAcquire(name, owner string, ttl time.Duration) (bool, error)
	Heartbeat(name, owner string, ttl time.Duration) error
	Release(name, owner string, done bool) error
	Reset(prefix string) error
}

// leaseRecord is the JSON body of a lease file (and the wire form of
// coordinator lease state).
type leaseRecord struct {
	Owner string `json:"owner"`
	// Expiry is the heartbeat deadline in Unix nanoseconds; a lease whose
	// expiry has passed is stale and free to take over.
	Expiry int64 `json:"expiry_unix_ns"`
}

// FileLeaser coordinates through atomic lease files under a shared
// directory — the zero-infrastructure mode: point every worker's journal
// at the same (network) filesystem and no server is needed.
//
// Protocol, per resource name:
//
//   - root/<name>.lease — the lease record, written to a temp file and
//     hard-linked into place, so exactly one creator wins and the record
//     appears whole. Heartbeats rewrite it via temp-file rename (atomic,
//     so readers never see a torn record from a live owner).
//   - root/<name>.done — the persistent done marker.
//   - takeover: a claimant that reads a stale (or torn/empty) lease
//     renames it to a claimant-unique tombstone — exactly one racer's
//     rename succeeds — re-checks staleness on the tombstone, removes it,
//     and link-creates a fresh lease. If the tombstone turns out live
//     (the owner heartbeated between read and rename), it is renamed
//     back: the owner keeps working either way, because leases only
//     arbitrate efficiency — a lost lease means duplicated simulation,
//     which the deterministic merge absorbs.
type FileLeaser struct {
	root string
	// now is the clock; a variable so tests can run takeover scenarios
	// without real TTL waits.
	now func() time.Time

	// onSteal/onExpired, when non-nil, observe won takeovers and
	// expired-lease sightings (wired to avgi_dist_* counters).
	onSteal   func()
	onExpired func()
}

// NewFileLeaser returns a leaser rooted at dir (created on demand).
func NewFileLeaser(dir string) *FileLeaser {
	return &FileLeaser{root: dir, now: time.Now}
}

// SetClock replaces the staleness clock (tests).
func (l *FileLeaser) SetClock(now func() time.Time) { l.now = now }

// SetHooks registers observation callbacks for won takeovers and expired
// leases. Call before sharing the leaser between goroutines.
func (l *FileLeaser) SetHooks(onSteal, onExpired func()) {
	l.onSteal, l.onExpired = onSteal, onExpired
}

// sanitizeOwner maps an owner identity onto a filename fragment (used in
// tombstone names, which must be claimant-unique).
func sanitizeOwner(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

func (l *FileLeaser) leasePath(name string) string {
	return filepath.Join(l.root, filepath.FromSlash(name)+".lease")
}

func (l *FileLeaser) donePath(name string) string {
	return filepath.Join(l.root, filepath.FromSlash(name)+".done")
}

// read parses a lease file. ok is false for missing, torn or empty
// records — all of which mean "free" to a claimant.
func (l *FileLeaser) read(path string) (leaseRecord, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return leaseRecord{}, false
	}
	var rec leaseRecord
	if json.Unmarshal(data, &rec) != nil || rec.Owner == "" {
		return leaseRecord{}, false
	}
	return rec, true
}

// write atomically replaces path with a fresh lease record via temp-file
// rename.
func (l *FileLeaser) write(path, owner string, ttl time.Duration) error {
	rec := leaseRecord{Owner: owner, Expiry: l.now().Add(ttl).UnixNano()}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	tmp := path + ".tmp-" + sanitizeOwner(owner)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}

// create attempts the exclusive lease creation; ok=false means it already
// exists. The record is written to a private file and hard-linked into
// place: like O_EXCL the link fails when path exists, and unlike an O_EXCL
// create followed by a write it never shows rivals an empty lease — which
// reads as torn, so free, and let a second claimant take over a lease its
// winner was still writing.
func (l *FileLeaser) create(path, owner string, ttl time.Duration) (bool, error) {
	rec := leaseRecord{Owner: owner, Expiry: l.now().Add(ttl).UnixNano()}
	data, err := json.Marshal(rec)
	if err != nil {
		return false, fmt.Errorf("dist: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".new-*")
	if err != nil {
		return false, fmt.Errorf("dist: %w", err)
	}
	defer os.Remove(f.Name())
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Link(f.Name(), path)
	}
	if errors.Is(err, os.ErrExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("dist: %w", err)
	}
	return true, nil
}

// TryAcquire implements Leaser.
func (l *FileLeaser) TryAcquire(name, owner string, ttl time.Duration) (bool, error) {
	if done, err := l.isDone(name); done || err != nil {
		return false, err
	}
	path := l.leasePath(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, fmt.Errorf("dist: %w", err)
	}
	if ok, err := l.create(path, owner, ttl); ok || err != nil {
		return ok, err
	}
	rec, readable := l.read(path)
	switch {
	case readable && rec.Owner == owner:
		// Our own lease (a restarted process, or the previous round):
		// renew in place.
		return true, l.write(path, owner, ttl)
	case readable && l.now().UnixNano() < rec.Expiry:
		return false, nil // live, someone else's
	}
	if readable && l.onExpired != nil {
		l.onExpired()
	}
	// Stale or torn: tombstone takeover. The rename is the race arbiter —
	// exactly one concurrent claimant moves the file.
	tomb := path + ".tomb-" + sanitizeOwner(owner)
	if err := os.Rename(path, tomb); err != nil {
		return false, nil // another claimant renamed first
	}
	if rec2, ok := l.read(tomb); ok && rec2.Owner != owner && l.now().UnixNano() < rec2.Expiry {
		// The owner heartbeated between our read and our rename: give the
		// (live) lease back. Worst case the owner already recreated it and
		// this rename clobbers a fresher record — duplicated simulation,
		// absorbed by the merge.
		os.Rename(tomb, path)
		return false, nil
	}
	os.Remove(tomb)
	ok, err := l.create(path, owner, ttl)
	if ok && l.onSteal != nil {
		l.onSteal()
	}
	return ok, err
}

// Heartbeat implements Leaser. A heartbeat on a vanished lease re-creates
// it (coordinator-restart symmetry; for files this covers a lease
// directory wiped mid-run).
func (l *FileLeaser) Heartbeat(name, owner string, ttl time.Duration) error {
	path := l.leasePath(name)
	if rec, ok := l.read(path); ok && rec.Owner != owner && l.now().UnixNano() < rec.Expiry {
		return fmt.Errorf("dist: lease %s now held by %s", name, rec.Owner)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return l.write(path, owner, ttl)
}

// Release implements Leaser.
func (l *FileLeaser) Release(name, owner string, done bool) error {
	if done {
		f, err := os.OpenFile(l.donePath(name), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		fmt.Fprintf(f, "{\"owner\":%q}\n", owner)
		if err := f.Close(); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
	}
	path := l.leasePath(name)
	if rec, ok := l.read(path); ok && rec.Owner == owner {
		os.Remove(path)
	}
	return nil
}

// isDone reports whether name carries a done marker.
func (l *FileLeaser) isDone(name string) (bool, error) {
	if _, err := os.Stat(l.donePath(name)); err == nil {
		return true, nil
	} else if errors.Is(err, os.ErrNotExist) {
		return false, nil
	} else {
		return false, fmt.Errorf("dist: %w", err)
	}
}

// Reset implements Leaser: every lease, done marker and takeover remnant
// whose name starts with prefix is deleted.
func (l *FileLeaser) Reset(prefix string) error {
	base := filepath.Join(l.root, filepath.FromSlash(prefix))
	dir, stem := filepath.Split(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("dist: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), stem) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("dist: %w", err)
		}
	}
	return nil
}
