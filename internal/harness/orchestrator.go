package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hermes/internal/chaos"
	"hermes/internal/diskio"
	"hermes/internal/engine"
	"hermes/internal/tx"
)

// ClusterConfig describes a multi-process cluster to boot.
type ClusterConfig struct {
	// Workers is the number of hermesd processes (one engine worker each).
	Workers int
	// Policy is the routing policy name ("hermes" or "calvin").
	Policy string
	// Rows is the uniformly pre-partitioned key space.
	Rows uint64
	// Payload is the seeded/written value size in bytes.
	Payload int
	// BatchSize is the sequencer batch size.
	BatchSize int
	// Alpha and FusionCap tune the Hermes policy; FusionCap 0 defaults to
	// Rows/40, matching hermes.Open.
	Alpha     float64
	FusionCap int
	// Fsync is each worker's journal fsync policy ("none"|"batch"|
	// "always"; empty means none).
	Fsync string
	// TraceRing sizes each process's per-node telemetry rings (events;
	// zero keeps the default). Size it to hold the whole run when the
	// trace will be collected (see CollectTrace).
	TraceRing int
	// TraceOff starts every process with lifecycle tracing disabled.
	TraceOff bool
	// Faults, when set, routes every inter-process data-plane link through
	// the chaos socket plane, which applies the schedule's link shapes and
	// events, and Run kills workers at the schedule's Kills for the
	// supervisor to repair. The control plane stays direct so health
	// probes and the driver survive partitions. StartCluster never writes
	// to the schedule.
	Faults *chaos.Schedule
	// Dir is the scratch directory for journals, seed specs and process
	// logs. Required.
	Dir string
	// BinPath is the hermesd binary to spawn. Empty means build it from
	// the enclosing module (cached per test process).
	BinPath string
}

// proc tracks one spawned hermesd and its reaper.
type proc struct {
	cmd  *exec.Cmd
	done chan error
}

// Cluster is the orchestrator's handle on a running multi-process cluster.
// The parent holds every listener for the cluster's lifetime: the children
// serve on dup'd fds, so a killed worker's ports stay bound (dials to it
// land in the kernel backlog and get repaired by retransmission once the
// worker is back) and a restarted worker reclaims the exact same address.
type Cluster struct {
	cfg       ClusterConfig
	bin       string
	addrs     map[tx.NodeID]string
	views     []map[tx.NodeID]string // per-process peer maps (proxied under Faults)
	dataLns   []*net.TCPListener
	ctrlLns   []*net.TCPListener
	ctrlAddrs []string
	logs      []*os.File
	client    *http.Client
	net       *chaos.Plane
	kills     []chaos.Kill // the run's kills not yet fired, in stream order

	// procMu guards procs: the supervisor reaps/respawns concurrently
	// with tests calling KillWorker/RestartWorker/Close.
	procMu sync.Mutex
	procs  []*proc

	mu     sync.Mutex
	closed bool
	super  *Supervisor
}

var (
	buildMu    sync.Mutex
	buildPaths = map[bool]string{}
	buildErrs  = map[bool]error{}
	buildDone  = map[bool]bool{}
)

// HermesdBinary builds ./cmd/hermesd once per test process and returns the
// binary path. With HERMESD_BUILD_RACE=1 in the environment the children
// are built with -race, so a CI gate can put the race detector inside every
// process of the cluster, not just the orchestrating test.
func HermesdBinary() (string, error) {
	race := os.Getenv("HERMESD_BUILD_RACE") == "1"
	buildMu.Lock()
	defer buildMu.Unlock()
	if buildDone[race] {
		return buildPaths[race], buildErrs[race]
	}
	buildDone[race] = true
	root, err := moduleRoot()
	if err != nil {
		buildErrs[race] = err
		return "", err
	}
	dir, err := os.MkdirTemp("", "hermesd-bin-")
	if err != nil {
		buildErrs[race] = err
		return "", err
	}
	out := filepath.Join(dir, "hermesd")
	args := []string{"build"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-o", out, "./cmd/hermesd")
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		buildErrs[race] = fmt.Errorf("harness: building hermesd: %v\n%s", err, msg)
		return "", buildErrs[race]
	}
	buildPaths[race] = out
	return out, nil
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("harness: no go.mod above the working directory")
		}
		dir = parent
	}
}

// StartCluster binds every cluster port on loopback, spawns one hermesd
// per worker (worker 0's process additionally hosts the sequencer leader),
// and waits for every control plane to answer /healthz.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Workers < 2 {
		return nil, fmt.Errorf("harness: a cluster needs at least 2 workers, got %d", cfg.Workers)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("harness: ClusterConfig.Dir is required")
	}
	if cfg.FusionCap == 0 {
		cfg.FusionCap = int(cfg.Rows / 40)
	}
	var plane *chaos.Plane
	if cfg.Faults != nil {
		var err error
		if plane, err = newFaultPlane(*cfg.Faults, cfg.Workers); err != nil {
			return nil, err
		}
	}
	bin := cfg.BinPath
	if bin == "" {
		var err error
		if bin, err = HermesdBinary(); err != nil {
			return nil, err
		}
	}
	c := &Cluster{
		cfg:       cfg,
		bin:       bin,
		addrs:     make(map[tx.NodeID]string, cfg.Workers+1),
		dataLns:   make([]*net.TCPListener, cfg.Workers),
		ctrlLns:   make([]*net.TCPListener, cfg.Workers),
		ctrlAddrs: make([]string, cfg.Workers),
		logs:      make([]*os.File, cfg.Workers),
		procs:     make([]*proc, cfg.Workers),
		client:    &http.Client{Timeout: 3 * time.Second},
		net:       plane,
	}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		ln, err := listenLoopback()
		if err != nil {
			return fail(err)
		}
		c.dataLns[i] = ln
		c.addrs[tx.NodeID(i)] = ln.Addr().String()
		if c.ctrlLns[i], err = listenLoopback(); err != nil {
			return fail(err)
		}
		c.ctrlAddrs[i] = c.ctrlLns[i].Addr().String()
	}
	// The leader rides worker 0's transport, so it has worker 0's address.
	c.addrs[engine.LeaderNode] = c.addrs[0]

	if c.net != nil {
		c.views = make([]map[tx.NodeID]string, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			view := make(map[tx.NodeID]string, len(c.addrs))
			for j := 0; j < cfg.Workers; j++ {
				id := tx.NodeID(j)
				// A process's own address stays direct: no real network to
				// condition.
				if j == i {
					view[id] = c.addrs[id]
					continue
				}
				proxied, err := c.net.Route(i, j, c.addrs[id])
				if err != nil {
					return fail(err)
				}
				view[id] = proxied
			}
			view[engine.LeaderNode] = view[0]
			c.views[i] = view
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		if err := c.spawn(i, false); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		if err := c.waitHealthy(i, 10*time.Second); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// newFaultPlane builds the socket plane for s on a cluster of the given
// size, first refusing, by field, what real processes cannot apply: leader
// kills and disk faults wait for the sequencer group and its journals to
// run across processes, worker 0's process holds the leader and the driver
// and cannot come back, and the supervisor, not the schedule, decides when
// a killed worker comes back.
func newFaultPlane(s chaos.Schedule, workers int) (*chaos.Plane, error) {
	for i, k := range s.Kills {
		switch {
		case k.Leader:
			return nil, fmt.Errorf("harness: %v: Kills[%d].Leader: the co-hosted leader cannot fail over across processes yet", s, i)
		case k.Node%workers == 0:
			return nil, fmt.Errorf("harness: %v: Kills[%d].Node: %d is worker 0, whose process hosts the leader and the driver", s, i, k.Node)
		case k.Downtime != 0:
			return nil, fmt.Errorf("harness: %v: Kills[%d].Downtime: the supervisor restarts a killed worker", s, i)
		}
	}
	switch {
	case s.Disk != nil:
		return nil, fmt.Errorf("harness: %v: Disk: hermesd journals to the real filesystem", s)
	case s.Fsync != "":
		return nil, fmt.Errorf("harness: %v: Fsync: set ClusterConfig.Fsync", s)
	}
	return chaos.NewPlane(s)
}

func listenLoopback() (*net.TCPListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return ln.(*net.TCPListener), nil
}

// peersFlag renders worker i's id=addr map for its command line. Under a
// fault plane each process gets its own view, with every remote peer
// routed through that process's per-link proxies.
func (c *Cluster) peersFlag(i int) string {
	addrs := c.addrs
	if c.views != nil {
		addrs = c.views[i]
	}
	parts := make([]string, 0, len(addrs))
	for id, addr := range addrs {
		parts = append(parts, fmt.Sprintf("%d=%s", id, addr))
	}
	return strings.Join(parts, ",")
}

// spawn launches worker i's process, inheriting its listeners as fd 3
// (data) and fd 4 (control).
func (c *Cluster) spawn(i int, recover bool) error {
	nodeDir := filepath.Join(c.cfg.Dir, fmt.Sprintf("node%d", i))
	if err := os.MkdirAll(nodeDir, 0o755); err != nil {
		return err
	}
	if c.logs[i] == nil {
		f, err := os.OpenFile(filepath.Join(c.cfg.Dir, fmt.Sprintf("node%d.log", i)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		c.logs[i] = f
	}
	args := []string{
		"-node", fmt.Sprint(i),
		"-workers", fmt.Sprint(c.cfg.Workers),
		"-peers", c.peersFlag(i),
		"-policy", c.cfg.Policy,
		"-rows", fmt.Sprint(c.cfg.Rows),
		"-fusioncap", fmt.Sprint(c.cfg.FusionCap),
		"-alpha", fmt.Sprint(c.cfg.Alpha),
		"-batch", fmt.Sprint(c.cfg.BatchSize),
		"-dir", nodeDir,
	}
	if c.cfg.Fsync != "" {
		args = append(args, "-fsync", c.cfg.Fsync)
	}
	if c.cfg.TraceRing > 0 {
		args = append(args, "-trace-ring", fmt.Sprint(c.cfg.TraceRing))
	}
	if c.cfg.TraceOff {
		args = append(args, "-trace-off")
	}
	if recover {
		args = append(args, "-recover")
	}
	cmd := exec.Command(c.bin, args...)
	cmd.Stdout = c.logs[i]
	cmd.Stderr = c.logs[i]

	var files []*os.File
	dataF, err := c.dataLns[i].File()
	if err != nil {
		return err
	}
	files = append(files, dataF)
	ctrlF, err := c.ctrlLns[i].File()
	if err != nil {
		dataF.Close()
		return err
	}
	files = append(files, ctrlF)
	cmd.ExtraFiles = files
	err = cmd.Start()
	for _, f := range files {
		f.Close() // the child holds its own dups now
	}
	if err != nil {
		return fmt.Errorf("harness: spawning worker %d: %w", i, err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	c.procMu.Lock()
	c.procs[i] = p
	c.procMu.Unlock()
	return nil
}

// getProc reads worker i's proc handle under the lifecycle lock.
func (c *Cluster) getProc(i int) *proc {
	c.procMu.Lock()
	defer c.procMu.Unlock()
	return c.procs[i]
}

// takeProc claims worker i's proc handle for teardown: whoever gets the
// non-nil pointer owns the kill+reap; everyone else sees nil. This is what
// lets a test's KillWorker and the supervisor's reaper race safely.
func (c *Cluster) takeProc(i int) *proc {
	c.procMu.Lock()
	defer c.procMu.Unlock()
	p := c.procs[i]
	c.procs[i] = nil
	return p
}

func (c *Cluster) waitHealthy(i int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var out string
		err := c.get(i, "/healthz", &out)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("harness: worker %d control plane never came up: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Seed streams the deterministic record set into every process; each seeds
// the rows its routing replica places locally, then starts its worker.
func (c *Cluster) Seed() error {
	spec := seedSpec{Rows: c.cfg.Rows, Payload: c.cfg.Payload}
	total := 0
	for i := range c.procs {
		var resp struct {
			Seeded int `json:"seeded"`
		}
		if err := c.post(i, "/seed", spec, &resp); err != nil {
			return fmt.Errorf("harness: seeding worker %d: %w", i, err)
		}
		total += resp.Seeded
	}
	if uint64(total) != c.cfg.Rows {
		return fmt.Errorf("harness: seeded %d rows across the cluster, want %d", total, c.cfg.Rows)
	}
	return nil
}

// Run starts the workload on the driver process (worker 0) and returns
// immediately; poll Status or WaitRun for progress. Under a fault schedule
// it also arms the schedule's events, and WaitRun fires its kills.
func (c *Cluster) Run(spec WorkloadSpec) error {
	if err := c.post(0, "/run", spec, nil); err != nil {
		return err
	}
	if c.net != nil {
		c.net.Start()
		c.kills = append([]chaos.Kill(nil), c.cfg.Faults.Kills...)
		sort.SliceStable(c.kills, func(i, j int) bool { return c.kills[i].AfterFrac < c.kills[j].AfterFrac })
	}
	return nil
}

// fireKills SIGKILLs each scheduled victim whose point in the committed
// stream the run has reached. Bringing it back is the supervisor's job.
func (c *Cluster) fireKills(st RunStatus) error {
	for ; len(c.kills) > 0; c.kills = c.kills[1:] {
		k := c.kills[0]
		if !st.Done && st.Completed < int64(float64(st.Total)*k.AfterFrac) {
			return nil
		}
		if err := c.KillWorker(k.Node % c.cfg.Workers); err != nil {
			return fmt.Errorf("harness: scheduled kill: %w", err)
		}
	}
	return nil
}

// Status fetches the driver's live run progress.
func (c *Cluster) Status() (RunStatus, error) {
	var st RunStatus
	err := c.get(0, "/runstatus", &st)
	return st, err
}

// WaitRun polls until the driver reports the run done, returning its
// result, and fires the fault schedule's kills as the run reaches them.
// Transient status errors (e.g. while the driver host is briefly
// overloaded) are retried until the deadline.
func (c *Cluster) WaitRun(timeout time.Duration) (*RunResult, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status()
		if err == nil {
			if err := c.fireKills(st); err != nil {
				return nil, err
			}
		}
		if err == nil && st.Done {
			if st.Err != "" {
				return st.Result, fmt.Errorf("harness: run failed: %s", st.Err)
			}
			return st.Result, nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return nil, fmt.Errorf("harness: run did not finish within %v (last status error: %v)", timeout, err)
			}
			return nil, fmt.Errorf("harness: run did not finish within %v (%d/%d completed)",
				timeout, st.Completed, st.Total)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// KillWorker SIGKILLs worker i's process and reaps it. The worker's ports
// stay bound in the parent, so peers keep retransmitting into the backlog
// until RestartWorker brings it back.
func (c *Cluster) KillWorker(i int) error {
	p := c.takeProc(i)
	if p == nil {
		return fmt.Errorf("harness: worker %d is not running", i)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("harness: worker %d did not die after SIGKILL", i)
	}
	return nil
}

// ErrRestartLeaderHost is RestartWorker's refusal of worker 0: its process
// hosts the sequencer leader, whose sealed stream is not journaled, and the
// driver, whose clients would be gone; a respawn would start a second
// leader at sequence 0.
var ErrRestartLeaderHost = errors.New("harness: worker 0 hosts the sequencer leader and the driver and cannot be restarted")

// RestartWorker respawns a killed worker in recovery mode: it re-seeds
// from its persisted seed spec, bumps its incarnation, replays its journal
// and rejoins on the same ports. Worker 0 is refused with
// ErrRestartLeaderHost.
func (c *Cluster) RestartWorker(i int) error {
	if i == 0 {
		return ErrRestartLeaderHost
	}
	if c.getProc(i) != nil {
		return fmt.Errorf("harness: worker %d is still running", i)
	}
	if err := c.spawn(i, true); err != nil {
		return err
	}
	return c.waitHealthy(i, 10*time.Second)
}

// NetPlane returns the cluster's fault plane (nil without
// ClusterConfig.Faults), for stats and manual faults; Run arms it.
func (c *Cluster) NetPlane() *chaos.Plane { return c.net }

// Quiesce drives the cluster to a provably settled state: the leader has
// nothing pending, and in a single sweep every worker has scheduled the
// full sealed stream with no queued work, no in-flight transactions, no
// unacked sends and no undelivered backlog.
func (c *Cluster) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := c.quiesceOnce()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("workers never settled")
			}
			return fmt.Errorf("harness: cluster did not quiesce within %v: %w", timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *Cluster) quiesceOnce() (bool, error) {
	var next leaderNext
	if err := c.get(0, "/next", &next); err != nil {
		return false, err
	}
	if next.Pending != 0 {
		return false, fmt.Errorf("leader still holds %d pending", next.Pending)
	}
	for i := range c.procs {
		var q engine.WorkerQuiesceInfo
		if err := c.get(i, "/quiesce", &q); err != nil {
			return false, fmt.Errorf("worker %d: %w", i, err)
		}
		if q.Scheduled != next.Seq || !q.Settled() {
			if q.Refused != "" {
				return false, fmt.Errorf("worker %d: %s (leader seq %d)", i, q.Refused, next.Seq)
			}
			return false, fmt.Errorf("worker %d not settled: %+v (leader seq %d)", i, q, next.Seq)
		}
	}
	return true, nil
}

// CheckpointAll quiesces the cluster, then has every worker capture and
// durably save a checkpoint and rotate its journal behind it. At global
// quiesce no input is in flight, so each worker's capture cannot race new
// frames.
func (c *Cluster) CheckpointAll(timeout time.Duration) error {
	if err := c.Quiesce(timeout); err != nil {
		return err
	}
	for i := range c.procs {
		var resp struct {
			Checkpoint  uint64 `json:"checkpoint"`
			JournalBase uint64 `json:"journal_base"`
		}
		if err := c.post(i, "/checkpoint", struct{}{}, &resp); err != nil {
			return fmt.Errorf("harness: checkpointing worker %d: %w", i, err)
		}
	}
	return nil
}

// WipeWorkerStorage simulates losing worker i's page cache in a host crash:
// every file in its data directory is truncated back to its last-fsynced
// mark and temp files vanish. Only meaningful on a dead worker (between
// KillWorker and RestartWorker); with fsync policy "none" this erases the
// journal entirely, exactly as a real power cut would.
func (c *Cluster) WipeWorkerStorage(i int) error {
	if c.procs[i] != nil {
		return fmt.Errorf("harness: worker %d is still running", i)
	}
	nodeDir := filepath.Join(c.cfg.Dir, fmt.Sprintf("node%d", i))
	_, err := diskio.WipeUnsynced(nodeDir)
	return err
}

// Digests fetches every worker's state digest, in worker order.
func (c *Cluster) Digests() ([]engine.NodeDigest, error) {
	out := make([]engine.NodeDigest, len(c.procs))
	for i := range c.procs {
		if err := c.get(i, "/digest", &out[i]); err != nil {
			return nil, fmt.Errorf("harness: digest of worker %d: %w", i, err)
		}
	}
	return out, nil
}

// Stats fetches every process's counter snapshot, in worker order.
func (c *Cluster) Stats() ([]ProcStats, error) {
	out := make([]ProcStats, len(c.procs))
	for i := range c.procs {
		if err := c.get(i, "/stats", &out[i]); err != nil {
			return nil, fmt.Errorf("harness: stats of worker %d: %w", i, err)
		}
	}
	return out, nil
}

// Metrics scrapes and parses each process's Prometheus /metrics page,
// keyed "name{labels}".
func (c *Cluster) Metrics() ([]map[string]float64, error) {
	out := make([]map[string]float64, len(c.procs))
	for i := range c.procs {
		body, err := c.getRaw(i, "/metrics")
		if err != nil {
			return nil, fmt.Errorf("harness: metrics of worker %d: %w", i, err)
		}
		out[i] = ParseMetrics(body)
	}
	return out, nil
}

// Get fetches an arbitrary control-plane endpoint of worker i into out
// (tests and debugging).
func (c *Cluster) Get(i int, path string, out any) error { return c.get(i, path, out) }

// LogPath returns worker i's process log file path.
func (c *Cluster) LogPath(i int) string {
	return filepath.Join(c.cfg.Dir, fmt.Sprintf("node%d.log", i))
}

// Close shuts every process down (gracefully where possible), then
// releases the parent-held listeners and log files. Idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	super := c.super
	c.super = nil
	c.mu.Unlock()

	// The supervisor must stop before processes start disappearing for
	// good, or it would dutifully resurrect them mid-teardown.
	if super != nil {
		super.Stop()
	}

	var firstErr error
	procs := make([]*proc, len(c.procs))
	for i := range c.procs {
		procs[i] = c.takeProc(i)
	}
	for i, p := range procs {
		if p == nil {
			continue
		}
		_ = c.post(i, "/shutdown", struct{}{}, nil)
	}
	for i, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			select {
			case <-p.done:
			case <-time.After(5 * time.Second):
				if firstErr == nil {
					firstErr = fmt.Errorf("harness: worker %d would not exit", i)
				}
			}
		}
	}
	if c.net != nil {
		c.net.Close()
	}
	for _, ln := range c.dataLns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, ln := range c.ctrlLns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, f := range c.logs {
		if f != nil {
			f.Close()
		}
	}
	return firstErr
}

func (c *Cluster) url(i int, path string) string {
	return "http://" + c.ctrlAddrs[i] + path
}

func (c *Cluster) get(i int, path string, out any) error {
	body, err := c.getRaw(i, path)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if s, ok := out.(*string); ok {
		*s = string(body)
		return nil
	}
	return json.Unmarshal(body, out)
}

func (c *Cluster) getRaw(i int, path string) ([]byte, error) {
	resp, err := c.client.Get(c.url(i, path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func (c *Cluster) post(i int, path string, in, out any) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.client.Post(c.url(i, path), "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}
