// Package durable is the atomic on-disk checkpoint store (§4.3): each
// checkpoint is a single self-verifying file — magic, id, length, CRC32C,
// gob payload — written crash-atomically (temp + fsync + rename + dir
// fsync) through the diskio fault boundary and named by its id. A crash at
// any instant leaves the store loadable: a file is renamed into place
// whole, ids never decrease, and the journal rotates only after Save
// returns, so the loader takes the newest file that verifies. Corrupt
// checkpoint files are skipped loudly and counted, never trusted.
package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"log"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hermes/internal/diskio"
)

const (
	ckptMagic  = uint64(0x4845524d434b5031) // "HERMCKP1"
	ckptHdrLen = 24                         // 8B magic + 8B id + 4B len + 4B CRC32C
	ckptSuffix = ".ckpt"

	// keepCheckpoints is how many newest checkpoints survive pruning: the
	// current one plus one predecessor, so a corrupt current file still
	// leaves a (staler) recovery point.
	keepCheckpoints = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Stats reports the store's activity counters.
type Stats struct {
	Saves          int64 // checkpoints written
	SaveBytes      int64 // payload bytes across all saves
	LastSaveNanos  int64 // wall time of the most recent save (write+fsync+rename)
	CorruptSkipped int64 // checkpoint files rejected by verification
	Pruned         int64 // old checkpoint files removed
}

// Store reads and writes checkpoints in one directory.
type Store struct {
	fs  diskio.FS
	dir string

	stSaves     atomic.Int64
	stSaveBytes atomic.Int64
	stSaveNanos atomic.Int64
	stCorrupt   atomic.Int64
	stPruned    atomic.Int64
}

// Open prepares a checkpoint store in dir (fsys nil = real filesystem).
func Open(dir string, fsys diskio.FS) (*Store, error) {
	if fsys == nil {
		fsys = diskio.OSFS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: mkdir %s: %w", dir, err)
	}
	sweepTmp(fsys, dir)
	return &Store{fs: fsys, dir: dir}, nil
}

// sweepTmp removes temp files left by saves that crashed between Create and
// Rename. Load and prune filter on the .ckpt suffix, so without this sweep
// the orphans would sit in the directory forever. Best-effort: a failed
// sweep never fails Open.
func sweepTmp(fsys diskio.FS, dir string) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	removed := false
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			if fsys.Remove(filepath.Join(dir, n)) == nil {
				removed = true
				log.Printf("durable: removed stale temp file %s from %s", n, dir)
			}
		}
	}
	if removed {
		_ = fsys.SyncDir(dir)
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Saves:          s.stSaves.Load(),
		SaveBytes:      s.stSaveBytes.Load(),
		LastSaveNanos:  s.stSaveNanos.Load(),
		CorruptSkipped: s.stCorrupt.Load(),
		Pruned:         s.stPruned.Load(),
	}
}

func ckptName(id uint64) string { return fmt.Sprintf("ckpt-%016d%s", id, ckptSuffix) }

// Save durably writes v as checkpoint id. Ids must be non-decreasing
// across a store's lifetime (the loader prefers the highest id); the
// natural id is the checkpoint's input watermark.
// Only after Save returns may the caller discard what the checkpoint
// covers (journal rotation) — checkpoint-then-rotate, never the reverse.
func (s *Store) Save(id uint64, v any) error {
	start := time.Now()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("durable: encode checkpoint %d: %w", id, err)
	}
	blob := make([]byte, ckptHdrLen+payload.Len())
	binary.BigEndian.PutUint64(blob[0:8], ckptMagic)
	binary.BigEndian.PutUint64(blob[8:16], id)
	binary.BigEndian.PutUint32(blob[16:20], uint32(payload.Len()))
	binary.BigEndian.PutUint32(blob[20:24], crc32.Checksum(payload.Bytes(), crcTable))
	copy(blob[ckptHdrLen:], payload.Bytes())

	name := ckptName(id)
	if err := diskio.WriteFileAtomic(s.fs, filepath.Join(s.dir, name), blob); err != nil {
		return fmt.Errorf("durable: write checkpoint %s: %w", name, err)
	}
	s.stSaves.Add(1)
	s.stSaveBytes.Add(int64(payload.Len()))
	s.stSaveNanos.Store(time.Since(start).Nanoseconds())
	s.prune()
	return nil
}

// Load decodes the newest complete checkpoint into v, returning its id.
// ok=false means the store holds no loadable checkpoint (a fresh node).
// Files are tried newest id first; one that does not verify is skipped.
func (s *Store) Load(v any) (id uint64, ok bool, err error) {
	ckpts, err := s.ckptNames()
	if err != nil {
		return 0, false, fmt.Errorf("durable: scan %s: %w", s.dir, err)
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		if id, ok := s.tryLoad(ckpts[i], v); ok {
			return id, true, nil
		}
	}
	return 0, false, nil
}

// ckptNames lists the store's checkpoint files, oldest id first (the ids
// are zero-padded, so name order is id order).
func (s *Store) ckptNames() ([]string, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ckpts []string
	for _, n := range names {
		if strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ckptSuffix) {
			ckpts = append(ckpts, n)
		}
	}
	sort.Strings(ckpts)
	return ckpts, nil
}

// tryLoad verifies and decodes one checkpoint file; failures are counted
// and logged, never fatal (the caller falls back to an older file).
func (s *Store) tryLoad(name string, v any) (uint64, bool) {
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		if !diskio.IsNotExist(err) {
			s.stCorrupt.Add(1)
			log.Printf("durable: read checkpoint %s: %v", name, err)
		}
		return 0, false
	}
	reject := func(why string) (uint64, bool) {
		s.stCorrupt.Add(1)
		log.Printf("durable: checkpoint %s rejected: %s", name, why)
		return 0, false
	}
	if len(raw) < ckptHdrLen {
		return reject(fmt.Sprintf("truncated header (%d bytes)", len(raw)))
	}
	if binary.BigEndian.Uint64(raw[0:8]) != ckptMagic {
		return reject("bad magic")
	}
	id := binary.BigEndian.Uint64(raw[8:16])
	n := int(binary.BigEndian.Uint32(raw[16:20]))
	if len(raw)-ckptHdrLen != n {
		return reject(fmt.Sprintf("length %d but %d payload bytes", n, len(raw)-ckptHdrLen))
	}
	payload := raw[ckptHdrLen:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(raw[20:24]) {
		return reject("CRC mismatch")
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return reject(fmt.Sprintf("gob decode: %v", err))
	}
	return id, true
}

// prune removes checkpoint files older than the newest keepCheckpoints.
// Best-effort: pruning failure never fails a save.
func (s *Store) prune() {
	ckpts, err := s.ckptNames()
	if err != nil || len(ckpts) <= keepCheckpoints {
		return
	}
	for _, n := range ckpts[:len(ckpts)-keepCheckpoints] {
		if s.fs.Remove(filepath.Join(s.dir, n)) == nil {
			s.stPruned.Add(1)
		}
	}
	_ = s.fs.SyncDir(s.dir)
}
