package diskio

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// OSFS is the real-filesystem backend.
type OSFS struct{}

type osFile struct{ f *os.File }

func (o osFile) Write(p []byte) (int, error) { return o.f.Write(p) }
func (o osFile) Sync() error                 { return o.f.Sync() }
func (o osFile) Truncate(size int64) error   { return o.f.Truncate(size) }
func (o osFile) Close() error                { return o.f.Close() }
func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OSFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (OSFS) ReadFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func (OSFS) WriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func (OSFS) Rename(oldPath, newPath string) error     { return os.Rename(oldPath, newPath) }
func (OSFS) Remove(path string) error                 { return os.Remove(path) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// SyncedMarkSuffix names the sidecar a durability layer writes next to an
// append-only file after each successful fsync, holding the decimal byte
// offset known stable. The mark is written *without* fsync on purpose: it
// exists for the parent orchestrator (same host, reads through the shared
// page cache), which uses it to simulate host death — truncating the file
// back to the mark destroys exactly the bytes a power cut would have.
const SyncedMarkSuffix = ".synced"

// WriteSyncedMark records off as path's stable watermark. The write goes
// through a temp file + rename — not for durability (still no fsync, see
// SyncedMarkSuffix) but so a SIGKILL mid-update can never leave a torn,
// unparseable mark: the sidecar always reads as either the old or the new
// offset. A leftover temp is cleaned up by WipeUnsynced like any other.
func WriteSyncedMark(fsys FS, path string, off int64) error {
	mark := path + SyncedMarkSuffix
	tmp := mark + ".tmp"
	if err := fsys.WriteFile(tmp, []byte(strconv.FormatInt(off, 10))); err != nil {
		return err
	}
	return fsys.Rename(tmp, mark)
}

// ReadSyncedMark returns path's recorded stable watermark, or ok=false if
// no sidecar exists or it does not parse.
func ReadSyncedMark(fsys FS, path string) (off int64, ok bool) {
	b, err := fsys.ReadFile(path + SyncedMarkSuffix)
	if err != nil {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// WipeReport says what WipeUnsynced destroyed.
type WipeReport struct {
	// Truncated maps file path -> bytes destroyed beyond its synced mark.
	Truncated map[string]int64
	// RemovedTmp lists deleted in-flight temp files.
	RemovedTmp []string
}

// WipeUnsynced simulates host death for a node directory on the real
// filesystem: SIGKILL leaves the page cache intact, so to test
// restart-from-stable-storage the orchestrator must destroy what a power
// cut would have. For every file under dir (recursively) carrying a
// .synced sidecar, the file is truncated back to the recorded watermark;
// every *.tmp file (an atomic replace that never committed) is deleted.
// Files written via WriteFileAtomic carry no sidecar and survive intact,
// exactly like a properly fsynced rename.
func WipeUnsynced(dir string) (*WipeReport, error) {
	rep := &WipeReport{Truncated: make(map[string]int64)}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".tmp") {
			if rmErr := os.Remove(path); rmErr == nil {
				rep.RemovedTmp = append(rep.RemovedTmp, path)
			}
			return nil
		}
		if !strings.HasSuffix(path, SyncedMarkSuffix) {
			return nil
		}
		target := strings.TrimSuffix(path, SyncedMarkSuffix)
		mark, ok := ReadSyncedMark(OSFS{}, target)
		if !ok {
			return fmt.Errorf("diskio: unreadable synced mark %s", path)
		}
		st, statErr := os.Stat(target)
		if statErr != nil {
			if os.IsNotExist(statErr) {
				return nil
			}
			return statErr
		}
		if st.Size() > mark {
			if trErr := os.Truncate(target, mark); trErr != nil {
				return trErr
			}
			rep.Truncated[target] = st.Size() - mark
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
