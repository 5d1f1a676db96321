package network

import (
	"encoding/binary"
	"fmt"
	"log"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/codec"
	"hermes/internal/diskio"
	"hermes/internal/tx"
)

// Journal is the durable form of Reliable's delivery log for a cluster
// process: every message accepted for the local node is appended (and, under
// fsync policy "batch", fsynced) before it is acknowledged, so
// after the process — or the whole host — dies, the journal's stable prefix
// holds every input the node ever acked. A restarted process replays the
// journal through ReliableOpts.Recovered, drops live retransmissions of
// what it already holds through ReliableOpts.Floors (Journal.Floors), and
// deterministically regenerates its state.
//
// On-disk format (v3): a 16-byte header (8-byte magic, 8-byte big-endian
// base — the absolute index of the file's first frame, non-zero after a
// checkpoint rotation), then the very frames the TCP link carries
// (appendFrame in wire.go):
//
//	[4B len][4B CRC32C(payload)][encoded Message]
//
// A journal written by an incompatible build — the magic of another format
// version over frames that pass their CRC and do not decode — is refused at
// open: replaying nothing from it would let an upgraded node silently
// restart from empty state. Otherwise recovery classifies damage by where
// and how it appears:
//
//   - A torn tail — the final frame incomplete, including inside its 8-byte
//     header — is the expected residue of a crash mid-append. It is silently
//     truncated away and counted; the frame was never acked (the ack waits
//     for the fsync), so the peer still holds it and retransmits.
//   - A *complete* frame failing its CRC, an implausible length, or a bad
//     magic is corruption of data we may have acked. That is never silently
//     dropped: the damaged suffix is quarantined to journal.log.corrupt,
//     logged loudly, and counted, and recovery continues with the intact
//     prefix (the reliable layer's retransmission floor re-fetches what the
//     quarantined suffix held, when the peers still have it).
//
// Fsync policies: "none" acks without any durability promise (page-cache
// durability only — survives SIGKILL, not host death); "batch" is group
// commit — frames accepted while a sync is in flight share the next one,
// and their acks are released only after it returns, so every acked frame
// is on disk.
//
// The journal also owns the process incarnation counter (see Message.Inc):
// each Open on the same directory claims a strictly higher incarnation,
// persisted crash-atomically (temp + fsync + rename) so a crash between
// runs can never hand two lives of the process the same incarnation.
type Journal struct {
	fs     diskio.FS
	path   string
	policy SyncPolicy

	mu      sync.Mutex
	f       diskio.File
	base    uint64 // absolute index of the file's first frame
	count   uint64 // absolute frame count (base + frames in file)
	size    int64  // current file length in bytes
	synced  int64  // byte watermark known stable (fsync returned)
	floors  map[tx.NodeID]LinkFloor
	pending []func() // callbacks awaiting the next group commit
	frame   []byte   // the frame being appended; reused across Appends
	closed  bool

	recovered   []Message
	incarnation uint64

	syncKick chan struct{}
	quit     chan struct{}
	wg       sync.WaitGroup

	stFsyncs        atomic.Int64
	stSyncFailures  atomic.Int64
	stBatches       atomic.Int64
	stBatchedAcks   atomic.Int64
	stAppendRetries atomic.Int64
	stTornRecords   atomic.Int64
	stTornBytes     atomic.Int64
	stCorrupt       atomic.Int64
	stCorruptBytes  atomic.Int64
	stRotations     atomic.Int64
}

// SyncPolicy selects when appended frames are fsynced relative to their acks.
type SyncPolicy string

const (
	// SyncNone never fsyncs: acked input survives process death (page
	// cache), not host death. The pre-durability behavior.
	SyncNone SyncPolicy = "none"
	// SyncBatch is group commit: one fsync covers every frame accepted
	// since the last one; acks release only after it returns.
	SyncBatch SyncPolicy = "batch"
)

// ParseSyncPolicy validates a -fsync flag value ("" defaults to none).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "":
		return SyncNone, nil
	case SyncNone, SyncBatch:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("journal: unknown fsync policy %q (want none|batch)", s)
}

// LinkFloor is the highest (incarnation, link) journaled from one sender.
// A restart seeds the reliable layer's per-sender dedup watermarks from
// these so stale retransmits of already-journaled frames are dropped even
// when the frames themselves were rotated out of the journal.
type LinkFloor struct {
	Inc  uint64
	Link uint64
}

// JournalStats reports the journal's durability counters.
type JournalStats struct {
	Fsyncs        int64 // successful fsyncs issued
	SyncFailures  int64 // fsyncs that returned an error (acks withheld, retried)
	Batches       int64 // group commits that released at least one ack
	BatchedAcks   int64 // acks released by group commits (avg batch = BatchedAcks/Batches)
	AppendRetries int64 // torn/short appends repaired by truncate+rewrite
	TornRecords   int64 // torn tails truncated at recovery
	TornBytes     int64 // bytes those torn tails held
	Corrupt       int64 // corruption events quarantined at recovery
	CorruptBytes  int64 // bytes quarantined to journal.log.corrupt
	Rotations     int64 // checkpoint rotations
}

const (
	journalFile     = "journal.log"
	corruptFile     = "journal.log.corrupt"
	incarnationFile = "incarnation"

	// The 8-byte magic is journalMagic followed by the format version
	// digit. v2 framed gob payloads; v3 frames the shared wire encoding;
	// v4 may hold aborting-CounterProc requests, which v3 cannot decode;
	// v5 frames the wire v5 layout (flags byte ahead of the records). v5's
	// digit is '8', not '5': digits 5 to 7 are skipped so that no single
	// rotted bit turns this build's digit into one of journalRefused. v6
	// (digit '9') may hold one-list CounterProc requests, which v5 cannot
	// decode.
	journalMagic   = "HERMJNL"
	journalVersion = '9'
	// journalReadable lists the older formats this build replays as they
	// are: every v5 frame decodes under v6 to the Message v5 wrote, so an
	// upgraded node replays its v5 journal and appends v6 frames behind
	// them. A rotted bit that turns '9' into '8' is harmless for the same
	// reason: the frames are CRC-checked and decode the same under either.
	journalReadable = "8"
	// journalRefused lists the older formats refused by their digit alone:
	// some of their frames decode under this build by accident (a v4 frame
	// with no records, payload or batch parses as a v5 one), so the frames
	// cannot be trusted to tell the file apart. Each digit is at least two
	// bit flips from journalVersion.
	journalRefused = "34"
	journalHdrLen  = 16
	frameHdrLen    = codec.FrameHeaderLen

	appendMaxRetries = 8
	syncRetryDelay   = 2 * time.Millisecond
)

// JournalOpts configures OpenJournalWith beyond the legacy defaults.
type JournalOpts struct {
	// FS is the storage backend (nil = the real filesystem).
	FS diskio.FS
	// Policy is the fsync policy ("" = SyncNone).
	Policy SyncPolicy
	// Floors seeds per-sender link floors from a checkpoint, covering
	// senders whose frames were rotated out of the journal. Recovered
	// frames extend them.
	Floors map[tx.NodeID]LinkFloor
}

// OpenJournal opens the delivery journal in dir with legacy defaults (real
// filesystem, fsync policy none).
func OpenJournal(dir string) (*Journal, error) {
	return OpenJournalWith(dir, JournalOpts{})
}

// OpenJournalWith opens (creating if needed) the delivery journal in dir,
// recovers its intact prefix, truncates any torn tail, quarantines any
// mid-file corruption, and claims the next incarnation.
func OpenJournalWith(dir string, opts JournalOpts) (*Journal, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = diskio.OSFS{}
	}
	policy := opts.Policy
	if policy == "" {
		policy = SyncNone
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("journal: mkdir %s: %w", dir, err)
	}
	inc, err := bumpIncarnation(fsys, filepath.Join(dir, incarnationFile))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, journalFile)
	raw, err := fsys.ReadFile(path)
	if err != nil && !diskio.IsNotExist(err) {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}

	j := &Journal{
		fs:          fsys,
		path:        path,
		policy:      policy,
		floors:      make(map[tx.NodeID]LinkFloor, len(opts.Floors)),
		incarnation: inc,
		syncKick:    make(chan struct{}, 1),
		quit:        make(chan struct{}),
	}
	for n, lf := range opts.Floors {
		j.floors[n] = lf
	}

	rep := replayJournal(raw)
	if rep.foreign != 0 {
		return nil, fmt.Errorf("journal: %s was written by an incompatible build (format v%c, this build reads v%c); "+
			"restore the node with the build that wrote it or move the file away", path, rep.foreign, journalVersion)
	}
	if rep.quarantine >= 0 {
		bad := raw[rep.quarantine:]
		j.stCorrupt.Add(1)
		j.stCorruptBytes.Add(int64(len(bad)))
		if qerr := quarantine(fsys, filepath.Join(dir, corruptFile), bad); qerr != nil {
			return nil, fmt.Errorf("journal: quarantine %d corrupt bytes of %s: %w", len(bad), path, qerr)
		}
		log.Printf("journal: CORRUPTION in %s at byte %d (%s): quarantined %d bytes to %s, recovered %d intact frames",
			path, rep.quarantine, rep.reason, len(bad), corruptFile, len(rep.msgs))
	} else if rep.tornBytes > 0 {
		j.stTornRecords.Add(1)
		j.stTornBytes.Add(int64(rep.tornBytes))
		log.Printf("journal: truncating %d-byte torn tail of %s (unacked; peer retransmits)", rep.tornBytes, path)
	}

	var f diskio.File
	if rep.freshHeader {
		f, err = fsys.Create(path)
		if err == nil {
			_, err = diskio.WriteFull(f, journalHeader(0))
		}
		if err != nil {
			return nil, fmt.Errorf("journal: init %s: %w", path, err)
		}
		j.size = journalHdrLen
	} else {
		f, err = fsys.OpenAppend(path)
		if err != nil {
			return nil, fmt.Errorf("journal: open %s: %w", path, err)
		}
		if err := f.Truncate(int64(rep.good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncate damaged tail of %s: %w", path, err)
		}
		j.size = int64(rep.good)
	}
	j.f = f
	j.base = rep.base
	j.count = rep.base + uint64(len(rep.msgs))
	j.recovered = rep.msgs
	for _, m := range rep.msgs {
		j.noteFloorLocked(m)
	}

	if policy == SyncNone {
		// Nothing is ever fsynced under this policy, so the stable mark is
		// pinned at zero: the orchestrator's page-cache wipe (host-death
		// surrogate) erases the whole journal, exactly as a power cut
		// would. A stale mark from a previous durable run would instead
		// make the wipe keep frames this run never made durable.
		j.writeSidecar(0)
	} else {
		// Establish a stable baseline: what recovery kept is durable
		// before anything new is acked against it.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: baseline fsync %s: %w", path, err)
		}
		j.stFsyncs.Add(1)
		j.synced = j.size
		j.writeSidecar(j.synced)
		if err := fsys.SyncDir(dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: fsync dir %s: %w", dir, err)
		}
	}
	if policy == SyncBatch {
		j.wg.Add(1)
		go j.syncLoop()
	}
	return j, nil
}

type replayResult struct {
	msgs        []Message
	base        uint64
	good        int  // byte offset of the intact prefix end
	freshHeader bool // file is empty/torn-header: rewrite the header
	tornBytes   int  // bytes of torn tail beyond good (no quarantine)
	quarantine  int  // byte offset corruption starts at, -1 if none
	reason      string
	undecodable bool // the quarantined frame passed its CRC but is no Message
	foreign     byte // format digit of the incompatible build that wrote the file, else 0
}

// replayJournal decodes the intact frame prefix of raw and classifies
// whatever follows it as torn (crash residue, truncate) or corrupt
// (quarantine). See the Journal doc comment for the classification rules.
func replayJournal(raw []byte) replayResult {
	if len(raw) < journalHdrLen {
		// Empty file, or a crash inside the initial header write: nothing
		// was ever framed, let alone acked.
		return replayResult{quarantine: -1, freshHeader: true, tornBytes: len(raw)}
	}
	badMagic := replayResult{quarantine: 0, freshHeader: true, reason: "bad magic"}
	v := raw[len(journalMagic)]
	if string(raw[:len(journalMagic)]) != journalMagic || v < '0' || v > '9' {
		return badMagic
	}
	rep := replayFrames(raw)
	if v == journalVersion || strings.IndexByte(journalReadable, v) >= 0 {
		return rep
	}
	// The magic names another format version. Versions 2 to 6 share the
	// frame envelope, so the frames themselves say which it is: a frame
	// that passes its CRC and is not a Message was written by another
	// build's encoder, and replaying nothing from that file would restart
	// an upgraded node from empty state — refuse. Anything else (our own
	// frames, none, or damage) is a header hit by the same rot that flips
	// any other byte, and stays on the quarantine path.
	// The digit alone refuses a v3 or v4 file (journalRefused).
	if strings.IndexByte(journalRefused, v) >= 0 || rep.undecodable && len(rep.msgs) == 0 {
		return replayResult{quarantine: -1, foreign: v}
	}
	return badMagic
}

// replayFrames walks the frames behind a journal header.
func replayFrames(raw []byte) replayResult {
	rep := replayResult{quarantine: -1}
	rep.base = binary.BigEndian.Uint64(raw[8:16])
	off := journalHdrLen
	for {
		rem := len(raw) - off
		if rem == 0 {
			rep.good = off
			return rep
		}
		if rem < frameHdrLen {
			rep.good = off
			rep.tornBytes = rem
			return rep
		}
		hdr := raw[off : off+frameHdrLen]
		n, err := codec.PayloadLen(hdr)
		if err != nil {
			rep.good = off
			rep.quarantine = off
			rep.reason = err.Error()
			return rep
		}
		if rem-frameHdrLen < n {
			rep.good = off
			rep.tornBytes = rem
			return rep
		}
		payload := raw[off+frameHdrLen : off+frameHdrLen+n]
		if err := codec.CheckPayload(hdr, payload); err != nil {
			rep.good = off
			rep.quarantine = off
			rep.reason = err.Error() + " on complete frame"
			return rep
		}
		m, err := decodeMessage(payload)
		if err != nil {
			rep.good = off
			rep.quarantine = off
			rep.reason = fmt.Sprintf("frame does not decode despite valid CRC: %v", err)
			rep.undecodable = true
			return rep
		}
		rep.msgs = append(rep.msgs, m)
		off += frameHdrLen + n
	}
}

func journalHeader(base uint64) []byte {
	h := make([]byte, journalHdrLen)
	h[copy(h, journalMagic)] = journalVersion
	binary.BigEndian.PutUint64(h[8:16], base)
	return h
}

// quarantine appends the damaged bytes to the corrupt sidecar file and
// makes them durable — forensic evidence must not evaporate with the next
// crash.
func quarantine(fsys diskio.FS, path string, bad []byte) error {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return err
	}
	if _, err := diskio.WriteFull(f, bad); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// bumpIncarnation crash-atomically advances the persisted incarnation
// counter and returns the claimed value (first life = 1).
func bumpIncarnation(fsys diskio.FS, path string) (uint64, error) {
	var prev uint64
	if b, err := fsys.ReadFile(path); err == nil {
		prev, _ = strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	}
	next := prev + 1
	if err := diskio.WriteFileAtomic(fsys, path, []byte(strconv.FormatUint(next, 10))); err != nil {
		return 0, fmt.Errorf("journal: commit incarnation: %w", err)
	}
	return next, nil
}

// Recovered returns the journaled history in delivery order.
func (j *Journal) Recovered() []Message { return j.recovered }

// RecoveredSince returns the journaled history from absolute frame index
// abs (a checkpoint's Delivered watermark). It fails loudly when the
// journal cannot produce that suffix — a checkpoint older than the last
// rotation, or durable frames lost to quarantine.
func (j *Journal) RecoveredSince(abs uint64) ([]Message, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if abs < j.base {
		return nil, fmt.Errorf("journal: replay from frame %d but journal was rotated at %d (checkpoint predates rotation)", abs, j.base)
	}
	idx := abs - j.base
	if idx > uint64(len(j.recovered)) {
		return nil, fmt.Errorf("journal: replay from frame %d but journal holds frames [%d,%d) — acked input is missing",
			abs, j.base, j.base+uint64(len(j.recovered)))
	}
	return j.recovered[idx:], nil
}

// Incarnation returns the incarnation claimed by this open (≥ 1, strictly
// increasing per open of the same directory).
func (j *Journal) Incarnation() uint64 { return j.incarnation }

// Base returns the absolute index of the journal file's first frame (the
// watermark of the last rotation).
func (j *Journal) Base() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.base
}

// Count returns the absolute frame count: base + frames in the file.
func (j *Journal) Count() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Floors returns a copy of the per-sender link floors: checkpoint-seeded,
// extended by every journaled frame.
func (j *Journal) Floors() map[tx.NodeID]LinkFloor {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[tx.NodeID]LinkFloor, len(j.floors))
	for n, lf := range j.floors {
		out[n] = lf
	}
	return out
}

// Stats snapshots the durability counters.
func (j *Journal) Stats() JournalStats {
	return JournalStats{
		Fsyncs:        j.stFsyncs.Load(),
		SyncFailures:  j.stSyncFailures.Load(),
		Batches:       j.stBatches.Load(),
		BatchedAcks:   j.stBatchedAcks.Load(),
		AppendRetries: j.stAppendRetries.Load(),
		TornRecords:   j.stTornRecords.Load(),
		TornBytes:     j.stTornBytes.Load(),
		Corrupt:       j.stCorrupt.Load(),
		CorruptBytes:  j.stCorruptBytes.Load(),
		Rotations:     j.stRotations.Load(),
	}
}

func (j *Journal) noteFloorLocked(m Message) {
	if m.Link == 0 {
		return
	}
	lf := j.floors[m.From]
	if m.Inc > lf.Inc || (m.Inc == lf.Inc && m.Link > lf.Link) {
		j.floors[m.From] = LinkFloor{Inc: m.Inc, Link: m.Link}
	}
}

// Append persists one delivered message. It is called from the reliable
// layer's pump goroutine, which is single-threaded per destination. A torn
// or short write is repaired in place — truncate back to the frame start
// and rewrite — because a partial frame would read as a torn tail on
// recovery and silently swallow every frame behind it in this life. Only
// after repairs are exhausted does Append panic: continuing would let the
// pump ack input that is not journaled. An encode error panics too: the
// message was decoded from a frame, or checked at submit, so only a bug can
// make it unencodable.
func (j *Journal) Append(m Message) {
	j.mu.Lock()
	defer j.mu.Unlock()
	frame, err := appendFrame(j.frame[:0], &m)
	if err != nil {
		panic(fmt.Sprintf("journal: encode message: %v", err))
	}
	j.frame = retained(frame)
	start := j.size
	var lastErr error
	for attempt := 0; attempt < appendMaxRetries; attempt++ {
		if attempt > 0 {
			j.stAppendRetries.Add(1)
			if err := j.f.Truncate(start); err != nil {
				panic(fmt.Sprintf("journal: truncate torn append at %d: %v (after %v)", start, err, lastErr))
			}
		}
		if _, err := diskio.WriteFull(j.f, frame); err == nil {
			j.size = start + int64(len(frame))
			j.count++
			j.noteFloorLocked(m)
			return
		} else {
			lastErr = err
		}
	}
	panic(fmt.Sprintf("journal: append failed after %d attempts: %v", appendMaxRetries, lastErr))
}

// AfterDurable runs fn once everything journaled so far is durable under
// the configured policy. The reliable layer routes ack sends through it:
// under "batch" the callback waits for the group commit; under "none"
// durability is not promised, so fn runs immediately.
//
// Callbacks run in FIFO order on the group-commit goroutine; they must not
// block on journal appends.
func (j *Journal) AfterDurable(fn func()) {
	if j.policy != SyncBatch {
		fn()
		return
	}
	j.mu.Lock()
	if j.synced >= j.size {
		j.mu.Unlock()
		fn()
		return
	}
	j.pending = append(j.pending, fn)
	j.mu.Unlock()
	select {
	case j.syncKick <- struct{}{}:
	default:
	}
}

func (j *Journal) syncLoop() {
	defer j.wg.Done()
	for {
		select {
		case <-j.quit:
			return
		case <-j.syncKick:
			j.drainBatch(false)
		}
	}
}

// drainBatch performs group commits until no callbacks are pending: one
// fsync covers every frame appended since the last, then the acks it
// gates are released in order. A failed fsync withholds the acks and
// retries — the peers hold the frames and retransmit, so withholding is
// always safe. With final=true a failed fsync gives up instead (shutdown).
func (j *Journal) drainBatch(final bool) {
	for {
		j.mu.Lock()
		cbs := j.pending
		j.pending = nil
		target := j.size
		f := j.f
		need := j.synced < target
		j.mu.Unlock()
		if len(cbs) == 0 && !need {
			return
		}
		if need {
			if err := f.Sync(); err != nil {
				j.stSyncFailures.Add(1)
				j.mu.Lock()
				j.pending = append(cbs, j.pending...)
				j.mu.Unlock()
				if final {
					return
				}
				select {
				case <-j.quit:
					return
				case <-time.After(syncRetryDelay):
				}
				continue
			}
			j.stFsyncs.Add(1)
			j.mu.Lock()
			if j.f != f {
				// Rotate swapped the journal file while the fsync was in
				// flight: the sync covered the old file, and target would
				// inflate the new (smaller) file's watermark past what is
				// actually durable — AfterDurable would then release acks
				// for frames never fsynced in the new file. Discard the
				// stale result, requeue the callbacks, and loop so the
				// current file gets its own covering fsync (or is found
				// already fully synced by Rotate) before their acks release.
				j.pending = append(cbs, j.pending...)
				j.mu.Unlock()
				continue
			}
			if target > j.synced {
				j.synced = target
			}
			mark := j.synced
			j.mu.Unlock()
			j.writeSidecar(mark)
		}
		if len(cbs) > 0 {
			j.stBatches.Add(1)
			j.stBatchedAcks.Add(int64(len(cbs)))
			for _, fn := range cbs {
				fn()
			}
		}
	}
}

// writeSidecar records the stable watermark next to the journal for the
// orchestrator's page-cache wipe (see diskio.WriteSyncedMark).
func (j *Journal) writeSidecar(off int64) {
	if err := diskio.WriteSyncedMark(j.fs, j.path, off); err != nil {
		log.Printf("journal: write synced mark for %s: %v", j.path, err)
	}
}

// Rotate rewrites the journal to hold only frames with absolute index ≥ w
// (a checkpoint's Delivered watermark; frames below it are covered by the
// checkpoint snapshot). The rewrite is crash-atomic — temp + fsync + rename
// + dir fsync — so a crash mid-rotation leaves either the old or the new
// journal, both replayable against their checkpoints. Callers must persist
// the checkpoint *before* rotating: checkpoint-then-rotate means every
// crash window has frames ≥ some durable checkpoint's watermark.
func (j *Journal) Rotate(w uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if w < j.base {
		return fmt.Errorf("journal: rotate to %d below base %d", w, j.base)
	}
	if w > j.count {
		return fmt.Errorf("journal: rotate to %d beyond %d journaled frames", w, j.count)
	}
	// Everything present must be stable before the re-read, or the new
	// file could durably omit frames the old one held only in cache.
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: pre-rotate fsync: %w", err)
	}
	j.stFsyncs.Add(1)
	j.synced = j.size
	raw, err := j.fs.ReadFile(j.path)
	if err != nil {
		return fmt.Errorf("journal: rotate read: %w", err)
	}
	// Walk to the byte offset of frame w. The file was written by us and
	// fsynced, so a malformed walk is a logic error, not crash damage.
	off := journalHdrLen
	for i := j.base; i < w; i++ {
		if len(raw)-off < frameHdrLen {
			return fmt.Errorf("journal: rotate walk ran past file at frame %d", i)
		}
		n, err := codec.PayloadLen(raw[off:])
		if err != nil {
			return fmt.Errorf("journal: rotate walk at frame %d: %w", i, err)
		}
		off += frameHdrLen + n
	}
	if off > len(raw) {
		return fmt.Errorf("journal: rotate walk overran file (%d > %d)", off, len(raw))
	}
	img := append(journalHeader(w), raw[off:]...)
	if err := diskio.WriteFileAtomic(j.fs, j.path, img); err != nil {
		return fmt.Errorf("journal: rotate write: %w", err)
	}
	nf, err := j.fs.OpenAppend(j.path)
	if err != nil {
		return fmt.Errorf("journal: rotate reopen: %w", err)
	}
	j.f.Close()
	j.f = nf
	if drop := w - j.base; drop <= uint64(len(j.recovered)) {
		j.recovered = j.recovered[drop:]
	} else {
		j.recovered = nil
	}
	j.base = w
	j.size = int64(len(img))
	j.synced = j.size
	if j.policy != SyncNone {
		j.writeSidecar(j.synced)
	}
	j.stRotations.Add(1)
	return nil
}

// Close drains any pending group commit (releasing its acks) and closes
// the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.quit)
	j.wg.Wait()
	if j.policy == SyncBatch {
		j.drainBatch(true)
	}
	j.mu.Lock()
	f := j.f
	j.mu.Unlock()
	return f.Close()
}
