// Package workload implements the three workloads of the paper's
// evaluation: the YCSB-based "Google workload" whose per-machine demand
// follows (synthetic) Google cluster traces and whose global hot spot
// sweeps the key space (§5.2.2), the TPC-C New-Order/Payment mix with
// configurable hot-spot concentration (§5.3.1), and the multi-tenant
// workload with a rotating hot node (§5.3.2). It also provides the
// closed-loop client driver used by all experiments (the paper drives the
// system with thousands of closed-loop clients).
package workload

import (
	"sync"
	"time"

	"hermes/internal/tx"
)

// Generator produces the next transaction to submit, given the elapsed
// experiment time (generators use it for trace windows and hot-spot
// rotation). Every generated transaction is a CounterProc — plain data
// that crosses a process boundary and enters a journal. Generators are
// safe for concurrent use.
type Generator interface {
	// Next returns a procedure and the node whose sequencer front-end the
	// client submits through.
	Next(elapsed time.Duration) (*tx.CounterProc, tx.NodeID)
}

// Submitter abstracts the cluster for the driver (engine.Cluster satisfies
// it via a thin adapter in the public API; tests use fakes).
type Submitter interface {
	Submit(via tx.NodeID, proc tx.Procedure) (<-chan struct{}, error)
}

// Driver runs closed-loop clients against a Submitter: each client
// submits, waits for completion, and immediately submits again — the
// paper's client model (§5.1, §5.3.1).
type Driver struct {
	Gen     Generator
	Clients int

	wg   sync.WaitGroup
	quit chan struct{}
	once sync.Once
}

// Run starts the clients against sub, with elapsed time measured from
// start. It returns immediately; call Stop to end the run.
func (d *Driver) Run(sub Submitter, start time.Time) {
	d.quit = make(chan struct{})
	for i := 0; i < d.Clients; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				select {
				case <-d.quit:
					return
				default:
				}
				proc, via := d.Gen.Next(time.Since(start))
				done, err := sub.Submit(via, proc)
				if err != nil {
					return // cluster stopped
				}
				select {
				case <-done:
				case <-d.quit:
					return
				}
			}
		}()
	}
}

// Stop terminates the clients and waits for them to exit.
func (d *Driver) Stop() {
	d.once.Do(func() { close(d.quit) })
	d.wg.Wait()
}
