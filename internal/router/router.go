// Package router defines the transaction-routing abstraction shared by
// Hermes and every baseline the paper evaluates (§5.2.1), plus the
// placement state they route against.
//
// A routing policy runs inside every node's scheduler as an independent
// replica: given the identical totally ordered batch stream, each replica
// must produce the identical plan and evolve identical placement state —
// no replica ever communicates with another. All policies here are pure
// functions of their input stream, which the integration tests verify by
// fingerprint comparison.
package router

import (
	"hermes/internal/fusion"
	"hermes/internal/partition"
	"hermes/internal/tx"
)

// Mode says how a transaction executes.
type Mode uint8

const (
	// SingleMaster routes the transaction to one master node; owners of
	// remote records push them to the master (G-Store+, LEAP, T-Part,
	// Hermes, and migration transactions).
	SingleMaster Mode = iota
	// MultiMaster executes the transaction on every node that owns part
	// of its write-set, with participants broadcasting their local reads
	// (vanilla Calvin).
	MultiMaster
	// Provision marks a membership-change control transaction; it touches
	// no records.
	Provision
)

// Migration is one record ownership move performed alongside a
// transaction (data fusion, fusion-table eviction, or a cold chunk).
type Migration struct {
	Key      tx.Key
	From, To tx.NodeID
}

// Route is the complete execution recipe for one transaction, produced
// identically by every scheduler replica.
type Route struct {
	Txn    *tx.Request
	Mode   Mode
	Master tx.NodeID
	// Writers is the set of executing nodes under MultiMaster (owners of
	// write-set fragments), ascending.
	Writers []tx.NodeID
	// Owners maps every key in the transaction's access set (plus
	// eviction keys) to its owner at this transaction's position in the
	// serial order.
	Owners Owners
	// Migrations are ownership moves executed with this transaction:
	// the record leaves storage at From and enters storage at To.
	Migrations []Migration
	// WriteBack lists written keys whose records must be sent back to
	// Owners[k] after execution because the policy does not migrate
	// ownership (G-Store+, T-Part).
	WriteBack []tx.Key
}

// Participants returns the sorted set of nodes involved in the route:
// the master/writers plus every owner of an accessed key and every
// migration endpoint.
func (r *Route) Participants() []tx.NodeID {
	seen := map[tx.NodeID]bool{}
	add := func(n tx.NodeID) {
		if n != tx.NoNode {
			seen[n] = true
		}
	}
	if r.Mode == SingleMaster {
		add(r.Master)
	}
	for _, w := range r.Writers {
		add(w)
	}
	for _, o := range r.Owners {
		add(o.Node)
	}
	for _, m := range r.Migrations {
		add(m.From)
		add(m.To)
	}
	out := make([]tx.NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	// Sort (small n).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Plan is the routed form of one batch: routes appear in execution order,
// which may be a permutation of the batch (Hermes reorders; the baselines
// do not).
type Plan struct {
	Seq    uint64
	Routes []*Route
}

// Policy is a routing algorithm replica.
type Policy interface {
	// Placement exposes the replica's placement state (active nodes,
	// home/override/fusion layers).
	Placement() *Placement
	// RouteUser routes a segment of ordinary user transactions in order,
	// mutating placement state deterministically. Reordering within the
	// segment is allowed.
	RouteUser(txns []*tx.Request) []*Route
}

// Placement is the layered ownership view every policy routes against:
// fusion table (hot overlay, may be nil) → cold override (re-homed by cold
// migration) → static base partitioner. It also tracks the active node
// set, which provisioning transactions mutate.
type Placement struct {
	Base     partition.Partitioner
	Override map[tx.Key]tx.NodeID
	Fusion   *fusion.Table
	actives  []tx.NodeID
}

// NewPlacement builds a placement over base with the given active nodes
// (copied, kept sorted) and an optional fusion overlay.
func NewPlacement(base partition.Partitioner, active []tx.NodeID, fus *fusion.Table) *Placement {
	p := &Placement{
		Base:     base,
		Override: make(map[tx.Key]tx.NodeID),
		Fusion:   fus,
	}
	p.actives = append(p.actives, active...)
	sortNodes(p.actives)
	return p
}

func sortNodes(ns []tx.NodeID) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// Owner returns the current owner of k (fusion → override → base).
func (p *Placement) Owner(k tx.Key) tx.NodeID {
	if p.Fusion != nil {
		if n, ok := p.Fusion.Get(k); ok {
			return n
		}
	}
	return p.Home(k)
}

// Home returns the cold home of k (override → base) — where an evicted
// record migrates back to.
func (p *Placement) Home(k tx.Key) tx.NodeID {
	if n, ok := p.Override[k]; ok {
		return n
	}
	return p.Base.Home(k)
}

// Active returns the active node list (ascending). Callers must not
// mutate it.
func (p *Placement) Active() []tx.NodeID { return p.actives }

// AddNode marks n active; no-op if already active.
func (p *Placement) AddNode(n tx.NodeID) {
	for _, a := range p.actives {
		if a == n {
			return
		}
	}
	p.actives = append(p.actives, n)
	sortNodes(p.actives)
}

// RemoveNode marks n inactive; no-op if not active.
func (p *Placement) RemoveNode(n tx.NodeID) {
	for i, a := range p.actives {
		if a == n {
			p.actives = append(p.actives[:i], p.actives[i+1:]...)
			return
		}
	}
}

// SetHome re-homes k to n (cold migration result).
func (p *Placement) SetHome(k tx.Key, n tx.NodeID) { p.Override[k] = n }

// PlacementState is a self-contained copy of the mutable placement layers
// (everything except the static base partitioner). Checkpoints carry one
// per cluster: because every scheduler replica evolves identical placement
// state from the identical batch stream, a single snapshot restores all
// replicas.
type PlacementState struct {
	Override map[tx.Key]tx.NodeID
	Active   []tx.NodeID
	// Fusion is nil when the policy routes without a hot overlay.
	Fusion *fusion.Table
}

// Snapshot deep-copies the mutable placement layers.
func (p *Placement) Snapshot() *PlacementState {
	s := &PlacementState{
		Override: make(map[tx.Key]tx.NodeID, len(p.Override)),
		Active:   append([]tx.NodeID(nil), p.actives...),
	}
	for k, n := range p.Override {
		s.Override[k] = n
	}
	if p.Fusion != nil {
		s.Fusion = p.Fusion.Clone()
	}
	return s
}

// Restore overwrites the mutable layers in place from s, deep-copying so
// several replicas can restore from the same snapshot independently. The
// Placement pointer itself is preserved: policies cache it.
func (p *Placement) Restore(s *PlacementState) {
	p.Override = make(map[tx.Key]tx.NodeID, len(s.Override))
	for k, n := range s.Override {
		p.Override[k] = n
	}
	p.actives = append(p.actives[:0], s.Active...)
	if s.Fusion != nil {
		p.Fusion = s.Fusion.Clone()
	}
}
