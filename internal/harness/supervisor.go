package harness

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// The supervisor's timing. A worker is probed every superInterval, each
// probe bounded by superTimeout (a client separate from the
// orchestrator's, so a wedged worker can't stall cluster RPCs), and
// declared dead after superMisses consecutive failures: one lost probe is
// a blip, two in a row a corpse. A failed restart attempt backs off from
// superBackoffBase, doubling up to superBackoffCap. After superBudget
// restarts of one worker the breaker opens and the supervisor gives up on
// it: a process that keeps dying is a bug, and restarting it forever
// would hide that.
const (
	superInterval    = 50 * time.Millisecond
	superTimeout     = time.Second
	superMisses      = 2
	superBackoffBase = 100 * time.Millisecond
	superBackoffCap  = 2 * time.Second
	superBudget      = 5
)

// WorkerHealth is one worker's view from the supervisor.
type WorkerHealth struct {
	Probes      int64  `json:"probes"`
	Misses      int64  `json:"misses"` // cumulative failed probes
	Restarts    int    `json:"restarts"`
	BreakerOpen bool   `json:"breaker_open"`
	LastError   string `json:"last_error,omitempty"`
}

// SupervisorStats snapshots every worker's health accounting.
type SupervisorStats struct {
	Workers []WorkerHealth `json:"workers"`
}

// TotalRestarts sums supervisor-driven restarts across workers.
func (s SupervisorStats) TotalRestarts() int {
	n := 0
	for _, w := range s.Workers {
		n += w.Restarts
	}
	return n
}

// Supervisor watches every worker's control plane and brings dead ones
// back. Liveness is a /stats probe — the same endpoint operators poll — so
// "alive" means "serving its control plane", not merely "process exists".
// Probes go to the direct control address (never through the fault plane):
// a data-plane partition must not look like a crash.
type Supervisor struct {
	c      *Cluster
	budget int
	client *http.Client

	mu     sync.Mutex
	health []WorkerHealth

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// StartSupervisor begins heartbeat supervision of every worker. The
// returned Supervisor is also stopped automatically by Cluster.Close.
func (c *Cluster) StartSupervisor() *Supervisor {
	return c.startSupervisor(superBudget)
}

// startSupervisor is StartSupervisor with the restart budget given.
func (c *Cluster) startSupervisor(budget int) *Supervisor {
	s := &Supervisor{
		c:      c,
		budget: budget,
		client: &http.Client{Timeout: superTimeout},
		health: make([]WorkerHealth, len(c.procs)),
		quit:   make(chan struct{}),
	}
	c.mu.Lock()
	c.super = s
	c.mu.Unlock()
	for i := range c.procs {
		s.wg.Add(1)
		go s.watch(i)
	}
	return s
}

// Stop halts supervision and joins every watcher. Idempotent.
func (s *Supervisor) Stop() {
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// Stats snapshots per-worker health accounting.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SupervisorStats{Workers: append([]WorkerHealth(nil), s.health...)}
}

func (s *Supervisor) recordProbe(i int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.health[i].Probes++
	if err != nil {
		s.health[i].Misses++
		s.health[i].LastError = err.Error()
	}
}

// watch is one worker's heartbeat loop.
func (s *Supervisor) watch(i int) {
	defer s.wg.Done()
	misses := 0
	for {
		select {
		case <-s.quit:
			return
		case <-time.After(superInterval):
		}
		if err := s.probe(i); err != nil {
			s.recordProbe(i, err)
			misses++
			if misses >= superMisses {
				if !s.revive(i) {
					return // breaker open: this worker is done
				}
				misses = 0
			}
			continue
		}
		s.recordProbe(i, nil)
		misses = 0
	}
}

// probe hits worker i's /stats over the direct control plane.
func (s *Supervisor) probe(i int) error {
	resp, err := s.client.Get(s.c.url(i, "/stats"))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe: %s", resp.Status)
	}
	return nil
}

// revive declares worker i dead, reaps whatever is left of its process,
// and restarts it with capped exponential backoff between failed attempts.
// Returns false once the restart budget is exhausted (breaker open).
func (s *Supervisor) revive(i int) bool {
	backoff := superBackoffBase
	for {
		// Claim and reap whatever is left of the process. Nil means a
		// test (KillWorker) or a previous failed attempt already took it;
		// the restart below is still ours to do. Reaping inside the loop
		// also cleans up a spawn that came up but never turned healthy.
		if p := s.c.takeProc(i); p != nil {
			_ = p.cmd.Process.Kill()
			select {
			case <-p.done:
			case <-time.After(10 * time.Second):
				s.mu.Lock()
				s.health[i].LastError = "process would not die after SIGKILL"
				s.mu.Unlock()
				return false
			}
		}
		s.mu.Lock()
		if s.health[i].Restarts >= s.budget {
			s.health[i].BreakerOpen = true
			s.mu.Unlock()
			return false
		}
		s.health[i].Restarts++
		s.mu.Unlock()
		err := s.c.RestartWorker(i)
		if err == nil {
			return true
		}
		s.mu.Lock()
		s.health[i].LastError = err.Error()
		s.mu.Unlock()
		select {
		case <-s.quit:
			return false
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > superBackoffCap {
			backoff = superBackoffCap
		}
	}
}
