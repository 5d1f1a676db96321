package diskio

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
)

// FaultSpec parameterizes MemFS's deterministic fault injection. All
// probabilities are per-operation; draws come from a single seeded PRNG in
// operation order, so a single-writer test reproduces the exact fault
// sequence from the seed.
type FaultSpec struct {
	Seed int64
	// ShortWriteProb: Write persists a strict prefix and returns n <
	// len(p) with a nil error (the POSIX short write).
	ShortWriteProb float64
	// TornWriteProb: Write persists a prefix (possibly empty) and returns
	// an error — the torn write a crash or I/O error mid-append leaves.
	TornWriteProb float64
	// NoSpaceProb: like TornWriteProb but the error is ErrNoSpace.
	NoSpaceProb float64
	// SyncFailProb: Sync returns an error and makes nothing durable.
	SyncFailProb float64
	// SyncLieProb: Sync returns nil but makes nothing durable — the lying
	// device/controller. Undetectable live by construction; the crash
	// model is what surfaces it.
	SyncLieProb float64
	// CrashBitFlipProb: at Crash, each surviving byte beyond a file's
	// durable watermark flips one bit with this probability (silent
	// corruption of un-fsynced data).
	CrashBitFlipProb float64
}

// MemStats counts the faults MemFS actually injected.
type MemStats struct {
	Writes      int64
	Syncs       int64
	ShortWrites int64
	TornWrites  int64
	NoSpace     int64
	SyncFails   int64
	SyncLies    int64
	Crashes     int64
}

type memFile struct {
	data    []byte
	durable int // stable byte prefix (advanced by honest Sync)
}

// MemFS is the in-memory crash-simulating backend. The volatile namespace
// is what live handles see; durability (per-file watermark, per-entry
// stable names) is tracked separately, and Crash reduces the volatile view
// to what stable storage plus seeded damage would really hold.
type MemFS struct {
	mu   sync.Mutex
	spec FaultSpec
	rng  *rand.Rand

	files   map[string]*memFile // volatile namespace
	durable map[string]*memFile // namespace as of the last SyncDir per dir

	// scripted one-shot faults, consumed FIFO ahead of probabilistic ones
	writeScript []scriptedWrite
	syncScript  []scriptedSync

	stats MemStats
}

type scriptedWrite struct {
	prefix int // bytes that land before the fault
	err    error
}

type scriptedSync struct {
	err error
	lie bool
}

// NewMemFS builds a fault-injecting in-memory filesystem.
func NewMemFS(spec FaultSpec) *MemFS {
	return &MemFS{
		spec:    spec,
		rng:     rand.New(rand.NewSource(spec.Seed)),
		files:   make(map[string]*memFile),
		durable: make(map[string]*memFile),
	}
}

// FailNextWrite scripts the next Write on any handle: prefix bytes land,
// then err is returned (a nil err scripts a short write).
func (m *MemFS) FailNextWrite(prefix int, err error) {
	m.mu.Lock()
	m.writeScript = append(m.writeScript, scriptedWrite{prefix: prefix, err: err})
	m.mu.Unlock()
}

// FailNextSync scripts the next Sync: a non-nil err fails it; lie makes it
// return nil without any durability.
func (m *MemFS) FailNextSync(err error, lie bool) {
	m.mu.Lock()
	m.syncScript = append(m.syncScript, scriptedSync{err: err, lie: lie})
	m.mu.Unlock()
}

// Stats snapshots the injected-fault counters.
func (m *MemFS) Stats() MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Install places a file with the given contents and durable watermark into
// both namespaces (as if written, fsynced to the watermark, and its entry
// SyncDir'd). Test/verification scaffolding.
func (m *MemFS) Install(path string, data []byte, durable int) {
	if durable > len(data) {
		durable = len(data)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{data: append([]byte(nil), data...), durable: durable}
	p := filepath.Clean(path)
	m.files[p] = f
	m.durable[p] = f
}

// SnapshotFile returns a copy of path's volatile contents and its durable
// watermark, atomically.
func (m *MemFS) SnapshotFile(path string) (data []byte, durable int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, 0, fmt.Errorf("diskio: snapshot %s: %w", path, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), f.durable, nil
}

// DurableLen returns path's stable watermark (0 if the file is unknown).
func (m *MemFS) DurableLen(path string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[filepath.Clean(path)]; ok {
		return f.durable
	}
	return 0
}

// Crash simulates power loss: the namespace reverts to the last SyncDir'd
// entries, and every file's bytes beyond its durable watermark either
// vanish, survive as a torn prefix, or survive bit-flipped, per the seeded
// damage draws. Open handles must not be used across a Crash.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Crashes++
	damaged := make(map[*memFile]bool)
	m.files = make(map[string]*memFile, len(m.durable))
	for name, f := range m.durable {
		m.files[name] = f
		if damaged[f] {
			continue
		}
		damaged[f] = true
		if len(f.data) > f.durable {
			// The unsynced suffix survives up to a uniformly drawn torn
			// point; surviving bytes may be silently corrupted.
			torn := f.durable + m.rng.Intn(len(f.data)-f.durable+1)
			f.data = f.data[:torn]
			if p := m.spec.CrashBitFlipProb; p > 0 {
				for i := f.durable; i < torn; i++ {
					if m.rng.Float64() < p {
						f.data[i] ^= 1 << uint(m.rng.Intn(8))
					}
				}
			}
		}
	}
}

type memHandle struct {
	m      *MemFS
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	h.m.stats.Writes++
	apply := func(n int) {
		h.f.data = append(h.f.data, p[:n]...)
	}
	if len(h.m.writeScript) > 0 {
		s := h.m.writeScript[0]
		h.m.writeScript = h.m.writeScript[1:]
		n := s.prefix
		if n > len(p) {
			n = len(p)
		}
		apply(n)
		if s.err != nil {
			h.m.stats.TornWrites++
			return n, s.err
		}
		h.m.stats.ShortWrites++
		return n, nil
	}
	if pr := h.m.spec.ShortWriteProb; pr > 0 && len(p) > 1 && h.m.rng.Float64() < pr {
		n := 1 + h.m.rng.Intn(len(p)-1)
		apply(n)
		h.m.stats.ShortWrites++
		return n, nil
	}
	if pr := h.m.spec.TornWriteProb; pr > 0 && h.m.rng.Float64() < pr {
		n := h.m.rng.Intn(len(p) + 1)
		apply(n)
		h.m.stats.TornWrites++
		return n, errors.New("diskio: injected I/O error mid-write")
	}
	if pr := h.m.spec.NoSpaceProb; pr > 0 && h.m.rng.Float64() < pr {
		n := h.m.rng.Intn(len(p) + 1)
		apply(n)
		h.m.stats.NoSpace++
		return n, ErrNoSpace
	}
	apply(len(p))
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.m.stats.Syncs++
	if len(h.m.syncScript) > 0 {
		s := h.m.syncScript[0]
		h.m.syncScript = h.m.syncScript[1:]
		if s.err != nil {
			h.m.stats.SyncFails++
			return s.err
		}
		if s.lie {
			h.m.stats.SyncLies++
			return nil
		}
		h.f.durable = len(h.f.data)
		return nil
	}
	if pr := h.m.spec.SyncFailProb; pr > 0 && h.m.rng.Float64() < pr {
		h.m.stats.SyncFails++
		return errors.New("diskio: injected fsync failure")
	}
	if pr := h.m.spec.SyncLieProb; pr > 0 && h.m.rng.Float64() < pr {
		h.m.stats.SyncLies++
		return nil
	}
	h.f.durable = len(h.f.data)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	if size < 0 || size > int64(len(h.f.data)) {
		return fmt.Errorf("diskio: truncate to %d outside file of %d bytes", size, len(h.f.data))
	}
	h.f.data = h.f.data[:size]
	if h.f.durable > int(size) {
		h.f.durable = int(size)
	}
	return nil
}

// Close invalidates the handle, matching os.File: any further Write, Sync,
// or Truncate (and a second Close) reports fs.ErrClosed. Without
// this, a use-after-close — e.g. syncing a rotated-away journal file —
// would silently succeed in fault-injection tests while failing on OSFS.
func (h *memHandle) Close() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.closed = true
	return nil
}

func (m *MemFS) MkdirAll(dir string) error { return nil }

func (m *MemFS) Create(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[filepath.Clean(path)] = f
	return &memHandle{m: m, f: f}, nil
}

func (m *MemFS) OpenAppend(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := filepath.Clean(path)
	f, ok := m.files[p]
	if !ok {
		f = &memFile{}
		m.files[p] = f
	}
	return &memHandle{m: m, f: f}, nil
}

func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, fmt.Errorf("diskio: read %s: %w", path, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) WriteFile(path string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[filepath.Clean(path)] = &memFile{data: append([]byte(nil), data...)}
	return nil
}

func (m *MemFS) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	op, np := filepath.Clean(oldPath), filepath.Clean(newPath)
	f, ok := m.files[op]
	if !ok {
		return fmt.Errorf("diskio: rename %s: %w", oldPath, fs.ErrNotExist)
	}
	m.files[np] = f
	delete(m.files, op)
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := filepath.Clean(path)
	if _, ok := m.files[p]; !ok {
		return fmt.Errorf("diskio: remove %s: %w", path, fs.ErrNotExist)
	}
	delete(m.files, p)
	return nil
}

// SyncDir makes dir's current entries stable: creations, renames, and
// removals of direct children become the namespace a Crash reverts to.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := filepath.Clean(dir)
	for name := range m.durable {
		if filepath.Dir(name) == d {
			if _, live := m.files[name]; !live {
				delete(m.durable, name)
			}
		}
	}
	for name, f := range m.files {
		if filepath.Dir(name) == d {
			m.durable[name] = f
		}
	}
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := filepath.Clean(dir)
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == d {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}
