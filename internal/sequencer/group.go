package sequencer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/network"
	"hermes/internal/tx"
)

// SeqNode returns the transport node id of sequencer replica rank (the
// leader's own node for rank 0). Replica ids descend from the leader's so
// they can never collide with the dense non-negative engine node ids.
func SeqNode(leader tx.NodeID, rank int) tx.NodeID {
	return leader - tx.NodeID(rank)
}

// GroupNodes returns the transport node ids of a group with the given
// number of standbys, rank order.
func GroupNodes(leader tx.NodeID, standbys int) []tx.NodeID {
	ids := make([]tx.NodeID, standbys+1)
	for r := range ids {
		ids[r] = SeqNode(leader, r)
	}
	return ids
}

// RestoreState seeds a restarted replica with the sequencer state a
// checkpoint recorded, before the reliable layer replays its logged
// input on top.
type RestoreState struct {
	Epoch   uint64
	Leader  tx.NodeID
	NextSeq uint64
	NextTxn tx.TxnID
	Clients map[tx.NodeID]uint64
}

// Group is the replicated total-order service: replica rank 0 starts as
// the leader of epoch 0, ranks 1..Standbys as standbys. The Group tracks
// the engine-facing view (current leader, epoch, which replicas are
// down) and fans engine operations out to the right replica; the
// replication, heartbeat and promotion protocol itself runs between the
// replicas over the transport.
type Group struct {
	base tx.NodeID
	tr   network.Transport
	cfg  Config

	mu        sync.Mutex
	replicas  map[tx.NodeID]*Leader
	ranks     []tx.NodeID
	down      map[tx.NodeID]bool
	leaderID  tx.NodeID
	epoch     uint64
	announced uint64 // highest epoch whose promotion was counted

	// sealed is the group's sealed stream, shared by every replica.
	sealed *sealCount

	failovers  atomic.Int64
	hbMisses   atomic.Int64
	onFailover func(leader tx.NodeID, epoch uint64)
}

// NewGroup builds a sequencer group whose rank-0 replica lives at
// transport node base, delivering the ordered stream to members.
// cfg.Standbys standbys live at descending ids.
func NewGroup(base tx.NodeID, tr network.Transport, members []tx.NodeID, cfg Config) *Group {
	if cfg.Standbys < 0 {
		cfg.Standbys = 0
	}
	g := &Group{
		base:     base,
		tr:       tr,
		cfg:      cfg,
		replicas: make(map[tx.NodeID]*Leader, cfg.Standbys+1),
		down:     make(map[tx.NodeID]bool),
		leaderID: base,
		sealed:   newSealCount(0, firstTxn),
	}
	for _, id := range GroupNodes(base, cfg.Standbys) {
		r := NewLeader(id, tr, members, cfg, g)
		r.leaderID = base
		g.replicas[id] = r
		g.ranks = append(g.ranks, id)
	}
	g.replicas[base].leading = true
	return g
}

// size returns the replica count (static after construction).
func (g *Group) size() int { return len(g.ranks) }

// Nodes returns the transport ids of every replica, rank order.
func (g *Group) Nodes() []tx.NodeID { return append([]tx.NodeID(nil), g.ranks...) }

// IsReplica reports whether id is one of the group's transport nodes.
func (g *Group) IsReplica(id tx.NodeID) bool {
	_, ok := g.replicas[id]
	return ok
}

// Start launches every replica.
func (g *Group) Start() {
	for _, id := range g.ranks {
		g.replica(id).Start()
	}
}

// Stop stops every replica.
func (g *Group) Stop() {
	for _, id := range g.ranks {
		g.replica(id).Stop()
	}
}

func (g *Group) replica(id tx.NodeID) *Leader {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.replicas[id]
}

// leader returns the current leader replica, or nil while it is down.
func (g *Group) leader() *Leader {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down[g.leaderID] {
		return nil
	}
	return g.replicas[g.leaderID]
}

// peers returns the other replicas of self: all of them (a down peer
// still receives replication through its durable delivery log, which is
// how a restart catches up) and the live subset (whose acks gate
// delivery).
func (g *Group) peers(self tx.NodeID) (all, live []tx.NodeID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, id := range g.ranks {
		if id == self {
			continue
		}
		all = append(all, id)
		if !g.down[id] {
			live = append(live, id)
		}
	}
	return all, live
}

// promotePos returns self's position in the promotion order — its index
// among standbys (current leader excluded) in rank order — or -1 if self
// is down or is the leader. Positions are static per leader: a down
// standby keeps its slot (its share of the timeout is simply wasted)
// rather than everyone below shifting up, because a shifting position
// can abruptly halve a standby's silence threshold mid-failover and
// trigger a second, concurrent promotion into the same epoch.
func (g *Group) promotePos(self tx.NodeID) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down[self] || self == g.leaderID {
		return -1
	}
	pos := 0
	for _, id := range g.ranks {
		if id == g.leaderID {
			continue
		}
		if id == self {
			return pos
		}
		pos++
	}
	return -1
}

// announce records a promotion: a replica took over leadership of epoch.
// The failover counter advances once per epoch, however many claimants
// raced into it (the replica-id tie-break leaves exactly one standing),
// and regardless of whether a node's epoch observation beat the
// promoting replica to the view update.
func (g *Group) announce(leader tx.NodeID, epoch uint64) {
	g.ObserveEpoch(leader, epoch)
	g.mu.Lock()
	first := epoch > g.announced
	if first {
		g.announced = epoch
	}
	g.mu.Unlock()
	if first {
		g.failovers.Add(1)
		if g.onFailover != nil {
			g.onFailover(leader, epoch)
		}
	}
}

// ObserveEpoch folds an epoch announcement into the engine-facing view;
// it returns true when the view advanced. Claims are ordered like the
// replicas order them: epoch first, then replica id (higher id = lower
// rank wins a same-epoch tie).
func (g *Group) ObserveEpoch(leader tx.NodeID, epoch uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if epoch < g.epoch || (epoch == g.epoch && leader <= g.leaderID) {
		return false
	}
	g.epoch = epoch
	g.leaderID = leader
	return true
}

// SetOnFailover installs the promotion callback (telemetry). Set before
// Start.
func (g *Group) SetOnFailover(fn func(leader tx.NodeID, epoch uint64)) { g.onFailover = fn }

// noteMiss counts one heartbeat miss observed by a standby.
func (g *Group) noteMiss() { g.hbMisses.Add(1) }

// LeaderID returns the current leader's transport node id.
func (g *Group) LeaderID() tx.NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leaderID
}

// Epoch returns the current leadership epoch (0 until the first
// failover).
func (g *Group) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Failovers returns how many promotions have completed.
func (g *Group) Failovers() int64 { return g.failovers.Load() }

// HeartbeatMisses returns how many heartbeat misses standbys observed.
func (g *Group) HeartbeatMisses() int64 { return g.hbMisses.Load() }

// Downed reports whether replica id is currently crashed.
func (g *Group) Downed(id tx.NodeID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down[id]
}

// Flush forces a seal on the current leader (no-op while it is down).
func (g *Group) Flush() {
	if l := g.leader(); l != nil {
		l.Flush()
	}
}

// Next reports the (seq, nextTxn) the current leader would assign next.
func (g *Group) Next() (uint64, tx.TxnID) {
	if l := g.leader(); l != nil {
		return l.Next()
	}
	return 0, 0
}

// SetNext positions the total order on every replica; recovery of a
// whole cluster calls it, when all logs are empty and every replica must
// agree on where the order resumes.
func (g *Group) SetNext(seq uint64, next tx.TxnID) {
	for _, id := range g.ranks {
		g.replica(id).SetNext(seq, next)
	}
}

// Stats returns the group's batching statistics: the batches and
// transactions sealed under every leader it has had, and the current
// leader's fill and pending requests (none while it is down).
func (g *Group) Stats() LeaderStats {
	if l := g.leader(); l != nil {
		return l.Stats()
	}
	return g.sealed.stats()
}

// KeepFrom sets the checkpoint floor on every live replica: each keeps a
// sealed batch until it is released and below seq. A checkpoint calls it
// with 0 before it reads its cut and with the cut after; until the first
// checkpoint a replica keeps only what it has not yet seen released.
func (g *Group) KeepFrom(seq uint64) {
	for _, id := range g.ranks {
		if !g.Downed(id) {
			g.replica(id).keepFrom(seq)
		}
	}
}

// Since returns the current leader's retained sealed batches with
// sequence ≥ seq (nil while the leader is down). Before the first
// checkpoint the leader retains only its unreleased window.
func (g *Group) Since(seq uint64) []*tx.Batch {
	if l := g.leader(); l != nil {
		return l.since(seq)
	}
	return nil
}

// ClientHigh returns the current leader's per-client sealed watermarks
// (checkpoints record them so a restarted replica resumes dedup).
func (g *Group) ClientHigh() map[tx.NodeID]uint64 {
	if l := g.leader(); l != nil {
		return l.clientHigh()
	}
	return nil
}

// PrepareCrash fences the current leader and waits until every sealed
// batch has finished its replication round and been delivered, so leader
// death can never strand a sealed-but-undelivered batch. It returns the
// fenced replica's id; the caller then pauses its feed and calls Kill.
func (g *Group) PrepareCrash(timeout time.Duration) (tx.NodeID, error) {
	g.mu.Lock()
	if g.size() < 2 {
		g.mu.Unlock()
		return 0, fmt.Errorf("sequencer: leader crash requires at least one standby (Config.Standbys)")
	}
	for id, d := range g.down {
		if d {
			g.mu.Unlock()
			return 0, fmt.Errorf("sequencer: replica %d is already down", id)
		}
	}
	id := g.leaderID
	l := g.replicas[id]
	g.mu.Unlock()
	l.fence()
	if !l.drainUnreleased(timeout) {
		return 0, fmt.Errorf("sequencer: timed out draining sealed batches before leader crash")
	}
	return id, nil
}

// Kill stops replica id and marks it down. The caller must have paused
// its delivery feed first.
func (g *Group) Kill(id tx.NodeID) {
	g.mu.Lock()
	g.down[id] = true
	l := g.replicas[id]
	g.mu.Unlock()
	l.Stop()
}

// Restart replaces a killed replica with a fresh one seeded from a
// checkpoint's sequencer state and starts it in recovery mode: it
// replays its logged input (rewound by the caller) without leading,
// heartbeating, or promoting. Call FinishRecovery once its backlog has
// drained.
func (g *Group) Restart(id tx.NodeID, st RestoreState) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	old, ok := g.replicas[id]
	if !ok {
		return fmt.Errorf("sequencer: unknown replica %d", id)
	}
	if !g.down[id] {
		return fmt.Errorf("sequencer: replica %d is not down", id)
	}
	r := NewLeader(id, g.tr, old.members, g.cfg, g)
	r.recovering = true
	r.epoch = st.Epoch
	r.leaderID = st.Leader
	r.nextSeq = st.NextSeq
	r.nextTxn = st.NextTxn
	r.floor = st.NextSeq
	r.txnBase = st.NextTxn
	for k, v := range st.Clients {
		r.sealedHigh[k] = v
		r.clientBase[k] = v
	}
	g.replicas[id] = r
	r.Start()
	return nil
}

// FinishRecovery marks a restarted replica live again: it resumes
// leading if the replayed input shows it still owns the current epoch,
// and otherwise rejoins as a standby.
func (g *Group) FinishRecovery(id tx.NodeID) {
	g.mu.Lock()
	l := g.replicas[id]
	delete(g.down, id)
	g.mu.Unlock()
	l.finishRecovery()
}
