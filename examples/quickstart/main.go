// Quickstart: open a 4-node Hermes cluster, load a table, run distributed
// read-modify-write transactions, and watch data fusion pull co-accessed
// records together.
package main

import (
	"fmt"
	"time"

	"hermes"
)

func main() {
	db, err := hermes.Open(hermes.Options{
		Nodes:  4,
		Rows:   10_000,
		Policy: hermes.PolicyHermes,
	})
	if err != nil {
		panic(err)
	}
	defer db.Close()

	db.LoadUniform(64)
	fmt.Println("loaded 10,000 records across 4 nodes (uniform range partitioning)")

	// Two records homed on different nodes: rows 100 (node 0) and 9,900
	// (node 3). The first transaction is distributed; Hermes migrates the
	// written record to the master on the fly.
	a, b := hermes.MakeKey(0, 100), hermes.MakeKey(0, 9_900)
	pl := db.Cluster().Node(0).Policy().Placement()
	fmt.Printf("before: owner(a)=%d owner(b)=%d\n", pl.Owner(a), pl.Owner(b))

	// A CounterProc bumps the little-endian counter leading each written
	// value; it is plain data, so it runs unchanged on a real cluster.
	inc := &hermes.CounterProc{Reads: []hermes.Key{a, b}, Writes: []hermes.Key{a, b}, Payload: 64}
	for i := 0; i < 5; i++ {
		if err := db.ExecWait(0, inc); err != nil {
			panic(err)
		}
	}
	db.Drain(5 * time.Second)

	fmt.Printf("after:  owner(a)=%d owner(b)=%d  (fused onto one master)\n", pl.Owner(a), pl.Owner(b))
	va, _ := db.Read(a)
	vb, _ := db.Read(b)
	fmt.Printf("counters: a=%d b=%d (want 5, 5)\n", va[0], vb[0])

	st := db.Stats()
	fmt.Printf("committed=%d migrations=%d remote-reads=%d net=%dB p50=%v\n",
		st.Committed, st.Migrations, st.RemoteReads, st.NetworkBytes, st.P50)
}
