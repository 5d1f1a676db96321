package engine

import (
	"fmt"
	"time"

	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

// CrashNode kills a node: its goroutines stop and every piece of volatile
// state — storage, key queues, mailboxes, scheduler queue, routing replica
// — is abandoned (the restart builds a fresh Node; nothing of the killed
// instance is reused). The rest of the cluster keeps sequencing and
// executing; transactions that need the dead node stall deterministically
// on its keys/record pushes until RestartNode replays it back.
//
// Requires the reliable layer (Config.Reliable) — its per-destination
// delivery log is the durable input the restart replays — and a prior
// successful Checkpoint, whose floor is where that log starts.
func (c *Cluster) CrashNode(id tx.NodeID) error {
	if c.seq.IsReplica(id) {
		return fmt.Errorf("engine: crash: node %d is a sequencer replica, not a worker; use CrashLeader", id)
	}
	n := c.node(id)
	if n == nil {
		return fmt.Errorf("engine: crash: unknown node %d", id)
	}
	c.mu.Lock()
	switch {
	case c.stopped:
		c.mu.Unlock()
		return fmt.Errorf("engine: crash: cluster stopped")
	case c.rel == nil:
		c.mu.Unlock()
		return fmt.Errorf("engine: crash requires Config.Reliable")
	case c.lastCP == nil:
		c.mu.Unlock()
		return fmt.Errorf("engine: crash requires a prior checkpoint")
	}
	if _, down := c.crashed[id]; down {
		c.mu.Unlock()
		return fmt.Errorf("engine: node %d already crashed", id)
	}
	c.crashed[id] = time.Now()
	c.mu.Unlock()

	// Stop feeding the node before killing it so the delivery cursor
	// freezes at a consumed-message boundary; the transport keeps acking
	// and logging on the node's behalf while it is down (the log layer is
	// the durable tier, like the paper's logging service).
	c.rel.Pause(id)
	n.stop()
	n.wait()
	c.collector.RecordCrash()
	c.tracer.Emit(id, 0, telemetry.PhaseCrash, 0)
	return nil
}

// RestartNode brings a crashed node back: a fresh Node instance restores
// the last checkpoint's storage and placement snapshot, rewinds its
// delivery log to the checkpoint's watermark, and then re-consumes the
// logged input — batches and record pushes alike — which deterministically
// re-derives everything the crash destroyed and catches up the tail before
// the node rejoins live traffic.
func (c *Cluster) RestartNode(id tx.NodeID) error {
	if c.seq.IsReplica(id) {
		return fmt.Errorf("engine: restart: node %d is a sequencer replica, not a worker; use RestartLeader", id)
	}
	c.mu.Lock()
	downSince, down := c.crashed[id]
	cp := c.lastCP
	c.mu.Unlock()
	if !down {
		return fmt.Errorf("engine: restart: node %d is not crashed", id)
	}
	snap, ok := cp.Stores[id]
	if !ok {
		return fmt.Errorf("engine: restart: checkpoint does not cover node %d", id)
	}
	n := newNode(id, c, c.cfg.Policy(c.cfg.Active))
	n.restore(snap, cp.Routing, cp.Seq)
	c.nodesMu.Lock()
	c.nodes[id] = n
	c.nodesMu.Unlock()
	// Replay: rewind the paused delivery log to the checkpoint watermark,
	// then resume — the reliable layer's pump re-delivers the suffix in
	// original order to the fresh node's recvLoop. Stale messages for
	// transactions other nodes already finished are consumed and discarded
	// harmlessly (their mailboxes are never read); batches re-execute,
	// re-applying exactly the state the checkpoint does not cover.
	if err := c.rel.Rewind(id, cp.Delivered[id]); err != nil {
		return fmt.Errorf("engine: restart node %d: %w", id, err)
	}
	n.start()
	c.rel.Resume(id)
	c.mu.Lock()
	delete(c.crashed, id)
	c.mu.Unlock()
	c.collector.RecordRecovery(time.Since(downSince))
	c.tracer.Emit(id, 0, telemetry.PhaseReplay, int64(cp.Seq))
	return nil
}

// CrashLeader kills the current sequencer leader replica. Before the
// kill, sealing is fenced and every already-sealed batch finishes its
// replication round and delivery — mirroring the protocol invariant that
// a batch is either fully replicated or retried by its front-end, never
// half-owned by a dead leader. After the kill the standbys detect the
// silence via heartbeat timeout and the first live standby promotes
// itself; unacknowledged client submissions are redirected by the
// session front-ends and deduplicated by the new leader.
//
// Requires standby replicas (Config.Seq.Standbys > 0), the reliable
// layer, and a prior Checkpoint (which bounds the restart's replay).
func (c *Cluster) CrashLeader() error {
	c.mu.Lock()
	switch {
	case c.stopped:
		c.mu.Unlock()
		return fmt.Errorf("engine: crash: cluster stopped")
	case c.rel == nil:
		c.mu.Unlock()
		return fmt.Errorf("engine: crash requires Config.Reliable")
	case c.lastCP == nil:
		c.mu.Unlock()
		return fmt.Errorf("engine: crash requires a prior checkpoint")
	case c.seqCrashed != tx.NoNode:
		id := c.seqCrashed
		c.mu.Unlock()
		return fmt.Errorf("engine: sequencer replica %d already crashed", id)
	}
	c.mu.Unlock()

	id, err := c.seq.PrepareCrash(10 * time.Second)
	if err != nil {
		return fmt.Errorf("engine: crash leader: %w", err)
	}
	// As with worker crashes, the delivery feed freezes first so the
	// replica's cursor stops at a consumed-message boundary; the reliable
	// layer keeps logging forwards, replicates and epoch announcements on
	// the dead replica's behalf — that log is what the restart replays.
	c.rel.Pause(id)
	c.seq.Kill(id)
	c.mu.Lock()
	c.seqCrashed = id
	c.crashed[id] = time.Now()
	c.mu.Unlock()
	c.collector.RecordCrash()
	c.tracer.Emit(id, 0, telemetry.PhaseCrash, 0)
	return nil
}

// RestartLeader brings the killed sequencer replica back. The fresh
// replica restores the checkpoint's sequencer state (epoch, leader,
// (seq, nextTxn) position, per-client dedup watermarks), rewinds its
// delivery log to the checkpoint watermark, and replays the logged
// input — replicated batches, epoch announcements, heartbeats — which
// rebuilds its retained log and tells it who leads the current epoch. It
// rejoins as a standby of the promoted leader (leadership does not fail
// back) and is from then on eligible for future promotions.
func (c *Cluster) RestartLeader() error {
	c.mu.Lock()
	id := c.seqCrashed
	cp := c.lastCP
	downSince := c.crashed[id]
	c.mu.Unlock()
	if id == tx.NoNode {
		return fmt.Errorf("engine: restart: no sequencer replica is crashed")
	}
	// Wait for the promotion to complete first: the restarted replica
	// resumes from the checkpoint's counters, and only the replicated
	// stream a new leader re-delivers can catch it up past what the dead
	// leader itself sealed after the checkpoint.
	deadline := time.Now().Add(10 * time.Second)
	for c.seq.LeaderID() == id {
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: restart leader: no standby promoted to replace replica %d", id)
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.seq.Restart(id, sequencer.RestoreState{
		Epoch:   cp.SeqEpoch,
		Leader:  cp.SeqLeader,
		NextSeq: cp.Seq,
		NextTxn: cp.NextTxn,
		Clients: cp.SeqClients,
	}); err != nil {
		return fmt.Errorf("engine: restart leader: %w", err)
	}
	if err := c.rel.Rewind(id, cp.Delivered[id]); err != nil {
		return fmt.Errorf("engine: restart leader: %w", err)
	}
	c.rel.Resume(id)
	// The replica is live again once it has consumed its logged history;
	// new messages keep flowing in behind the backlog, so a zero reading
	// means "caught up with everything logged before this instant".
	for c.rel.Backlog(id) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: restart leader: replica %d replay did not drain (backlog %d)", id, c.rel.Backlog(id))
		}
		time.Sleep(time.Millisecond)
	}
	c.seq.FinishRecovery(id)
	c.mu.Lock()
	c.seqCrashed = tx.NoNode
	delete(c.crashed, id)
	c.mu.Unlock()
	c.collector.RecordRecovery(time.Since(downSince))
	c.tracer.Emit(id, 0, telemetry.PhaseReplay, int64(cp.Seq))
	return nil
}
