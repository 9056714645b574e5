package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/guard"
)

// The on-disk cache is content-addressed: <dir>/<jobhash>.json holds
// one completed job's payload inside an envelope that repeats the hash
// and spec identity, so a corrupted or foreign entry is detected and
// treated as a miss (the job simply re-runs). The entries are the only
// record of finished work: a killed campaign rerun on the same
// directory serves every entry it finds and runs the rest. Any other
// file in the directory, such as an older build's checkpoint, is
// ignored.
//
// Entries are keyed by the job's content hash, not its campaign, so
// overlapping campaigns sharing a cache directory reuse each other's
// completed work. A job writes only its own entry and temp file, and
// its ID, unique in its campaign, is part of its hash, so concurrent
// workers never write the same path.

// cacheEntry is the envelope around one stored payload.
type cacheEntry struct {
	Version string          `json:"version"`
	JobHash string          `json:"job_hash"`
	JobID   string          `json:"job_id"`
	Kind    Kind            `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// diskCache is one cache directory.
type diskCache struct{ dir string }

// openCache prepares dir, creating it if missing.
func openCache(dir string) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: cache dir: %w", err)
	}
	return &diskCache{dir: dir}, nil
}

// lookup returns the cached payload for a job, if a valid entry
// exists. Any mismatch — unreadable file, foreign envelope, version
// drift — is a miss, never an error: the job just re-runs.
func (dc *diskCache) lookup(j Job) (json.RawMessage, bool) {
	raw, err := os.ReadFile(dc.entryPath(j))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, false
	}
	if e.Version != specVersion || e.JobHash != j.Hash() || e.JobID != j.ID || e.Kind != j.Kind {
		return nil, false
	}
	if len(e.Payload) == 0 {
		return nil, false
	}
	return e.Payload, true
}

// store persists one completed job's payload. Called concurrently by
// workers, each with its own job.
func (dc *diskCache) store(j Job, payload json.RawMessage) error {
	entry, err := json.Marshal(cacheEntry{
		Version: specVersion,
		JobHash: j.Hash(),
		JobID:   j.ID,
		Kind:    j.Kind,
		Payload: payload,
	})
	if err != nil {
		return err
	}
	// The crash points bracket the entry write; the kill matrices die
	// at each one and prove a plain rerun still merges byte-identical
	// output, with the entry either absent (the job re-runs) or whole
	// (it is served).
	guard.CrashPoint("fleet/pre-entry")
	if err := writeAtomic(dc.entryPath(j), append(entry, '\n')); err != nil {
		return fmt.Errorf("fleet: cache store %s: %w", j.ID, err)
	}
	guard.CrashPoint("fleet/post-entry")
	return nil
}

func (dc *diskCache) entryPath(j Job) string {
	return filepath.Join(dc.dir, j.Hash()+".json")
}

// writeAtomic writes data via a temp file, fsync, rename, and a
// parent-directory fsync. The rename alone makes a kill mid-write
// atomic (no torn file), but not durable: after a power-loss-style
// kill the directory entry can survive while the data blocks were
// never flushed, surfacing an empty or truncated entry. Syncing the
// file before the rename and the directory after it closes both holes.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		// Best effort: don't leave the temp file behind on failure.
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename is durable across a
// kill. Platforms that cannot sync a directory handle (the error shows
// up as EINVAL/EBADF on some filesystems) degrade to the plain rename
// guarantee rather than failing the store.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}
