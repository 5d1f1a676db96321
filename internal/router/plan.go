package router

import (
	"hermes/internal/tx"
)

// BuildPlan routes one totally ordered batch under policy p. Ordinary user
// transactions are grouped into maximal contiguous segments handed to
// p.RouteUser (which may reorder within a segment); the control
// transactions of §3.3 — provisioning changes and cold-migration chunks —
// act as segment barriers and are routed here, so their placement effects
// land at exactly their position in the serial order on every replica.
func BuildPlan(p Policy, b *tx.Batch) *Plan {
	plan := &Plan{Seq: b.Seq}
	var seg []*tx.Request
	flush := func() {
		if len(seg) > 0 {
			plan.Routes = append(plan.Routes, p.RouteUser(seg)...)
			seg = nil
		}
	}
	for _, r := range b.Txns {
		switch proc := r.Proc.(type) {
		case *tx.ProvisionProc:
			flush()
			plan.Routes = append(plan.Routes, routeProvision(p.Placement(), r, proc))
		case *tx.MigrationProc:
			flush()
			plan.Routes = append(plan.Routes, routeColdMigration(p.Placement(), r, proc))
		default:
			seg = append(seg, r)
		}
	}
	flush()
	return plan
}

func routeProvision(pl *Placement, r *tx.Request, proc *tx.ProvisionProc) *Route {
	for _, n := range proc.Add {
		pl.AddNode(n)
	}
	route := &Route{Txn: r, Mode: Provision, Master: tx.NoNode}
	for _, n := range proc.Remove {
		// Re-home fusion entries living on the removed node: their
		// records migrate back to their cold homes alongside this control
		// transaction, so no later transaction routes to a dead node.
		if pl.Fusion != nil {
			for _, k := range pl.Fusion.KeysOn(n) {
				home := pl.Home(k)
				if home == n {
					// Cold home is also leaving; fall back to the first
					// remaining active node deterministically.
					home = firstOther(pl.Active(), n)
					pl.SetHome(k, home)
				}
				route.Owners.Set(k, n)
				route.Migrations = append(route.Migrations, Migration{Key: k, From: n, To: home})
				pl.Fusion.Delete(k)
			}
		}
		pl.RemoveNode(n)
	}
	return route
}

func firstOther(active []tx.NodeID, not tx.NodeID) tx.NodeID {
	for _, a := range active {
		if a != not {
			return a
		}
	}
	return tx.NoNode
}

func routeColdMigration(pl *Placement, r *tx.Request, proc *tx.MigrationProc) *Route {
	route := &Route{
		Txn: r, Mode: SingleMaster, Master: proc.To,
		Owners: make(Owners, 0, len(proc.Keys)),
	}
	for _, k := range tx.NormalizeKeys(append([]tx.Key(nil), proc.Keys...)) {
		// §3.3: cold migration skips records tracked by the fusion table —
		// they are hot and move via data fusion instead, so the chunk
		// transaction cannot conflict with them.
		if pl.Fusion != nil {
			if _, hot := pl.Fusion.Get(k); hot {
				pl.SetHome(k, proc.To) // future evictions land at the new home
				continue
			}
		}
		from := pl.Owner(k)
		pl.SetHome(k, proc.To)
		if from == proc.To {
			continue
		}
		route.Owners.Set(k, from)
		route.Migrations = append(route.Migrations, Migration{Key: k, From: from, To: proc.To})
	}
	return route
}

// ownerHistogram counts, for each active node, how many of keys it
// currently owns (through overlay if the key is present there). It
// returns the per-node counts aligned with active plus the arg-max.
// Ties are broken toward the owner of the earliest key in keys — not the
// lowest node id, which would deterministically funnel every split
// decision onto node 0 and turn it into an artificial hot spot.
func ownerHistogram(pl *Placement, overlay map[tx.Key]tx.NodeID, keys []tx.Key, active []tx.NodeID) (counts []int, best int) {
	counts = make([]int, len(active))
	firstKey := make([]int, len(active)) // position of first owned key
	for i := range firstKey {
		firstKey[i] = len(keys) + 1
	}
	idx := make(map[tx.NodeID]int, len(active))
	for i, n := range active {
		idx[n] = i
	}
	for pos, k := range keys {
		o, ok := overlay[k]
		if !ok {
			o = pl.Owner(k)
		}
		if i, ok := idx[o]; ok {
			counts[i]++
			if pos < firstKey[i] {
				firstKey[i] = pos
			}
		}
	}
	best = 0
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[best] ||
			(counts[i] == counts[best] && firstKey[i] < firstKey[best]) {
			best = i
		}
	}
	return counts, best
}
