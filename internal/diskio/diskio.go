// Package diskio is the storage fault boundary: a small file abstraction
// the durability layers (delivery journal, checkpoint store) write through,
// with two interchangeable backends. OSFS talks to the real filesystem;
// MemFS is a deterministic, seeded fault injector that models the failure
// surface a single-copy durable node actually faces — short writes, torn
// writes at arbitrary byte offsets, ENOSPC, failed and *lying* fsyncs, and
// crash-time loss or bit-flip corruption of everything beyond the last
// successful fsync (including un-fsynced renames). Every durability claim
// the journal and checkpoint store make is testable by swapping the
// backend; no claim rests on "the OS probably flushed it".
//
// The crash model MemFS implements is the standard one (ALICE-style): data
// acknowledged by a successful Sync is stable; anything after the sync
// watermark may, at a crash, survive fully, survive as a torn prefix, be
// corrupted bit-by-bit, or vanish. Directory entries (creates, renames)
// become stable only after SyncDir on the parent.
package diskio

import (
	"errors"
	"io/fs"
	"path/filepath"
)

// ErrNoSpace is the injected "device full" failure (ENOSPC analogue).
var ErrNoSpace = errors.New("diskio: no space left on device")

// File is an open handle. Writes append at the current end of file
// (journal and checkpoint writers are strictly append/replace-shaped, so
// the abstraction does not offer seeks).
type File interface {
	// Write appends p. Like the POSIX contract it may write a short
	// prefix: n < len(p) with a nil error, or n < len(p) with an error
	// after a torn prefix landed. Callers that need all-or-nothing must
	// loop (WriteFull) and repair (truncate + retry) on error.
	Write(p []byte) (n int, err error)
	// Sync flushes the file's written bytes to stable storage. A nil
	// return is a durability promise — except from a lying device, which
	// only the crash model can expose.
	Sync() error
	// Truncate cuts the file to size bytes; subsequent writes append at
	// the new end.
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem slice the durability layers need.
type FS interface {
	MkdirAll(dir string) error
	// Create truncates-or-creates path for writing.
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// ReadFile returns the full contents; a missing file reports
	// fs.ErrNotExist (via errors.Is).
	ReadFile(path string) ([]byte, error)
	// WriteFile replaces path's contents in one call with no durability
	// promise (sidecar marks, scratch state). Use WriteFileAtomic for
	// anything recovery depends on.
	WriteFile(path string, data []byte) error
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// SyncDir makes the directory's entries (creates, renames, removes)
	// stable.
	SyncDir(dir string) error
	// ReadDir lists the directory's entry names, sorted; a missing
	// directory returns an empty list.
	ReadDir(dir string) ([]string, error)
}

// IsNotExist reports whether err is the backend's missing-file error.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// WriteFull writes all of p through f, looping over short writes. It
// returns the byte count actually applied (which can be non-zero even on
// error: the torn prefix is on disk and the caller must repair it).
func WriteFull(f File, p []byte) (int, error) {
	written := 0
	for written < len(p) {
		n, err := f.Write(p[written:])
		written += n
		if err != nil {
			return written, err
		}
		if n == 0 {
			return written, errors.New("diskio: write made no progress")
		}
	}
	return written, nil
}

// WriteFileAtomic durably replaces path with data: write to a temp file in
// the same directory, fsync it, rename over path, fsync the directory. A
// crash at any point leaves either the old complete file or the new
// complete file — never a torn mix.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := WriteFull(f, data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
