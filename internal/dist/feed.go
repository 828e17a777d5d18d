package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Feed is the campaign feed of an avgid fleet: <journal>/feed, one file
// per campaign in flight. A peer announces each assessment it is asked for
// by writing the request there, and every other peer polling the directory
// runs it as its share of the fleet's campaign. The feed lives in the
// shared journal like the leases and part shards, so an entry outlives the
// peer that announced it, and any peer whose assessment of an entry
// returns removes it — the feed holds only campaigns in flight.
type Feed struct {
	dir string
}

// FeedEntry is one announced campaign: its file name under the feed
// directory and the opaque spec it carries (the avgid AssessRequest; the
// feed does not depend on its shape).
type FeedEntry struct {
	Name string
	Spec []byte
}

// feedExt marks a complete entry; anything else in the directory is an
// announcement still being written (a ".announce-*" temp file).
const feedExt = ".json"

// NewFeed returns the feed of the fleet sharing journalDir.
func NewFeed(journalDir string) *Feed {
	return &Feed{dir: filepath.Join(journalDir, "feed")}
}

// Announce publishes spec and returns its entry name, a hash of the spec,
// so announcing a byte-identical spec again writes nothing new. The entry
// is written aside and renamed into place: a poller never reads it torn.
func (f *Feed) Announce(spec []byte) (string, error) {
	sum := sha256.Sum256(spec)
	name := hex.EncodeToString(sum[:16]) + feedExt
	path := filepath.Join(f.dir, name)
	if _, err := os.Stat(path); err == nil {
		return name, nil
	}
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", fmt.Errorf("dist: %w", err)
	}
	tmp, err := os.CreateTemp(f.dir, ".announce-*")
	if err != nil {
		return "", fmt.Errorf("dist: %w", err)
	}
	_, err = tmp.Write(spec)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("dist: %w", err)
	}
	return name, nil
}

// Entries returns every complete entry, in name order. Announcements still
// being written and entries removed between the listing and the read are
// skipped.
func (f *Feed) Entries() ([]FeedEntry, error) {
	des, err := os.ReadDir(f.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	var out []FeedEntry
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), feedExt) {
			continue
		}
		spec, err := os.ReadFile(filepath.Join(f.dir, de.Name()))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		out = append(out, FeedEntry{Name: de.Name(), Spec: spec})
	}
	return out, nil
}

// Remove deletes an entry; one already removed (by another peer whose
// assessment returned first) is not an error.
func (f *Feed) Remove(name string) error {
	if err := os.Remove(filepath.Join(f.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}
