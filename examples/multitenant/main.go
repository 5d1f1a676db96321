// Multi-tenant rotating hot spot (a miniature Fig. 12): 90% of requests
// concentrate on one node's tenants, and the hot node moves every two
// seconds. Hermes re-partitions on the fly with each batch; Calvin's
// throughput collapses to whatever the hot node can serve.
package main

import (
	"fmt"
	"time"

	"hermes"
	"hermes/internal/workload"
)

const (
	nodes   = 4
	clients = 32
	runFor  = 4 * time.Second
	window  = 500 * time.Millisecond
)

func main() {
	for _, policy := range []hermes.Policy{hermes.PolicyCalvin, hermes.PolicyLEAP, hermes.PolicyHermes} {
		tput := run(policy)
		fmt.Printf("%-8s per-window throughput: ", policy)
		for _, v := range tput {
			fmt.Printf("%6d", v)
		}
		fmt.Println()
	}
	fmt.Printf("\nhot node rotates every 2s; watch Hermes recover within a window\n")
	fmt.Println("while the static systems stay bottlenecked on the hot node.")
}

func run(policy hermes.Policy) []int64 {
	cfg := workload.DefaultMultiTenantConfig(nodes)
	cfg.RotationPeriod = 2 * time.Second
	cfg.RowsPerTenant = 1000
	cfg.Seed = 11
	gen := workload.NewMultiTenant(cfg)

	db, err := hermes.Open(hermes.Options{
		Nodes:       nodes,
		Rows:        gen.Rows(),
		Base:        gen.Partitioner(),
		Policy:      policy,
		NetLatency:  200 * time.Microsecond,
		StatsWindow: window,
		BatchSize:   64,
	})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	db.LoadUniform(64)

	driver := &workload.Driver{Gen: gen, Clients: clients}
	driver.Run(db.Cluster(), time.Now())
	time.Sleep(runFor)
	driver.Stop()
	db.Drain(10 * time.Second)
	return db.Stats().Throughput
}
