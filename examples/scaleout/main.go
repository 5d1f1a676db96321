// Scale-out demo (a miniature Fig. 14): a 3-node cluster with a hot
// tenant activates a standby fourth node mid-run. The provisioning change
// flows through the total order, the prescient router immediately starts
// fusing hot records onto the new node, and a background cold migration
// moves the rest of the tenant — without the throughput crater a blocking
// migration causes.
package main

import (
	"fmt"
	"time"

	"hermes"
	"hermes/internal/workload"
)

const (
	activeNodes = 3
	clients     = 24
	window      = 500 * time.Millisecond
)

func main() {
	cfg := workload.DefaultMultiTenantConfig(activeNodes)
	cfg.RotationPeriod = 0
	cfg.HotNode = 0
	cfg.Concentration = 0.25
	cfg.RowsPerTenant = 1000
	cfg.Seed = 3
	gen := workload.NewMultiTenant(cfg)

	db, err := hermes.Open(hermes.Options{
		Nodes:        activeNodes,
		StandbyNodes: 1,
		Rows:         gen.Rows(),
		Base:         gen.Partitioner(),
		Policy:       hermes.PolicyHermes,
		NetLatency:   200 * time.Microsecond,
		StatsWindow:  window,
		BatchSize:    64,
	})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	db.LoadUniform(64)

	driver := &workload.Driver{Gen: gen, Clients: clients}
	driver.Run(db.Cluster(), time.Now())

	time.Sleep(1500 * time.Millisecond)
	fmt.Println("t=1.5s: activating node 3 (totally ordered provision txn)")
	if err := db.Provision([]hermes.NodeID{3}, nil); err != nil {
		panic(err)
	}

	// Cold-migrate the hot tenant's range to the new node in chunks; the
	// router skips fusion-tracked (hot) keys automatically.
	lo, hi := gen.TenantRange(0)
	var keys []hermes.Key
	for k := lo; k < hi; k++ {
		keys = append(keys, k)
	}
	fmt.Printf("migrating tenant 0 (%d records) to node 3 in background\n", len(keys))
	go db.Migrate(keys, 3, 200)

	time.Sleep(2500 * time.Millisecond)
	driver.Stop()
	db.Drain(10 * time.Second)

	st := db.Stats()
	fmt.Printf("\nper-window throughput: ")
	for _, v := range st.Throughput {
		fmt.Printf("%6d", v)
	}
	fmt.Println()
	n3 := db.Cluster().Node(3).Store().Len()
	fmt.Printf("records now on node 3: %d; total migrations: %d\n", n3, st.Migrations)
	fmt.Println("throughput should rise after t=1.5s instead of dipping:")
	fmt.Println("hot data moves via data fusion, cold chunks skip hot keys.")
}
