// TPC-C hot-spot demo (a miniature Fig. 11): run the New-Order/Payment
// mix with 90% of requests concentrated on the first node's warehouses,
// and compare how Calvin and Hermes cope. Hermes migrates hot warehouse
// records off the overloaded node via data fusion.
package main

import (
	"fmt"
	"time"

	"hermes"
	"hermes/internal/workload"
)

const (
	nodes             = 4
	warehousesPerNode = 4
	clients           = 32
	runFor            = 3 * time.Second
)

func main() {
	for _, conc := range []float64{0, 0.9} {
		fmt.Printf("hot-spot concentration %.0f%%:\n", conc*100)
		for _, policy := range []hermes.Policy{hermes.PolicyCalvin, hermes.PolicyHermes} {
			committed, aborted := run(policy, conc)
			fmt.Printf("  %-8s committed=%6d aborted=%d\n", policy, committed, aborted)
		}
	}
	fmt.Println("\nAt 0% both systems are close (TPC-C is already well partitioned")
	fmt.Println("by warehouse); at 90% Hermes balances the hot warehouses across")
	fmt.Println("nodes while Calvin stays pinned to the static layout.")
}

func run(policy hermes.Policy, conc float64) (int64, int64) {
	cfg := workload.DefaultTPCCConfig(nodes, warehousesPerNode)
	cfg.HotSpotProb = conc
	cfg.Seed = 7
	gen := workload.NewTPCC(cfg)

	db, err := hermes.Open(hermes.Options{
		Nodes:          nodes,
		Rows:           uint64(nodes*warehousesPerNode) * 2048,
		Base:           gen.Partitioner(),
		Policy:         policy,
		NetLatency:     200 * time.Microsecond,
		BatchSize:      64,
		FusionCapacity: 4096,
	})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	gen.ForEachRecord(func(k hermes.Key, v []byte) { db.Load(k, v) })

	driver := &workload.Driver{Gen: gen, Clients: clients}
	driver.Run(db.Cluster(), time.Now())
	time.Sleep(runFor)
	driver.Stop()
	db.Drain(10 * time.Second)
	st := db.Stats()
	return st.Committed, st.Aborted
}
