// Command hermesd runs an interactive single-process Hermes cluster: a
// small REPL over the public API for poking at the system — load records,
// run transactions, trigger scale-out, and watch placement move.
//
// Usage:
//
//	hermesd -nodes 4 -rows 10000 -policy hermes
//	hermesd -nodes 4 -http :8080        # live /metrics, /trace, /debug/pprof
//
// Commands:
//
//	get <row>                read a record
//	set <row> <value>        transactional write
//	inc <row> [<row>...]     transactional multi-row increment
//	owner <row>              current owner and home of a row
//	addnode                  activate a standby node (scale-out)
//	migrate <lo> <hi> <node> cold-migrate rows [lo,hi) to a node
//	checkpoint               quiesce and snapshot (enables crash commands)
//	killleader               crash the sequencer leader (standby promotes)
//	restartleader            restart the killed replica as a standby
//	stats                    throughput/latency/network counters
//	quit
//
// With -node N it instead runs as one worker process of a multi-process
// cluster over TCP, spawned and driven by internal/harness (see
// docs/CLUSTER.md).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hermes"
	"hermes/internal/harness"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 4, "active nodes")
		standby = flag.Int("standby", 2, "standby nodes for scale-out")
		rows    = flag.Uint64("rows", 10000, "table size")
		policy  = flag.String("policy", "hermes", "routing policy (hermes|calvin|g-store|leap|t-part)")
		reli    = flag.Bool("reliable", false, "enable the reliable-delivery layer (acks, retransmission, dedup)")
		seqStby = flag.Int("seq-standbys", 0, "standby sequencer replicas (enables killleader; implies -reliable)")
		addr    = flag.String("http", "", "serve /metrics, /trace and /debug/pprof on this address (implies telemetry)")

		// Cluster node mode (spawned by internal/harness; see runNode).
		node      = flag.Int("node", -1, "cluster worker id; >= 0 switches to node mode")
		workers   = flag.Int("workers", 0, "node mode: total worker count")
		peers     = flag.String("peers", "", "node mode: id=addr,... transport address map incl. the leader (worker 0's address)")
		fusionCap = flag.Int("fusioncap", 0, "node mode: fusion table capacity")
		alpha     = flag.Float64("alpha", 0, "node mode: load-imbalance tolerance")
		batch     = flag.Int("batch", 0, "node mode: sequencer batch size")
		dir       = flag.String("dir", "", "node mode: journal and seed-spec directory")
		fsync     = flag.String("fsync", "", "node mode: journal fsync policy: none (default) or batch (group commit: each ack waits for the fsync covering its frame)")
		recov     = flag.Bool("recover", false, "node mode: recovering restart (restore checkpoint, re-seed, replay the journal)")
		traceRing = flag.Int("trace-ring", 0, "node mode: per-node telemetry ring size in events (0 = default)")
		traceOff  = flag.Bool("trace-off", false, "node mode: disable lifecycle tracing (metrics stay on)")

		statsAddr = flag.String("stats", "", "fetch a cluster node's /stats from this control-plane address, pretty-print it, and exit")
	)
	flag.Parse()
	if *statsAddr != "" {
		runStats(*statsAddr)
		return
	}
	if *node >= 0 {
		runNode(harness.NodeConfig{
			Self: tx.NodeID(*node), Workers: *workers, Policy: *policy,
			Rows: *rows, FusionCap: *fusionCap, Alpha: *alpha, BatchSize: *batch,
			Dir: *dir, Recover: *recov,
			Fsync: *fsync, TraceRing: *traceRing, TraceOff: *traceOff,
		}, *peers)
		return
	}

	db, err := hermes.Open(hermes.Options{
		Nodes:        *nodes,
		StandbyNodes: *standby,
		Rows:         *rows,
		Policy:       hermes.Policy(*policy),
		Reliable:     *reli || *seqStby > 0,
		SeqStandbys:  *seqStby,
		Telemetry:    *addr != "",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Idempotent shutdown shared by "quit", EOF and signals: the REPL can
	// be interrupted at any point without double-closing the database.
	var closeOnce sync.Once
	shutdown := func() { closeOnce.Do(func() { db.Close() }) }
	defer shutdown()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "\nhermesd: interrupt — closing (signal again to force exit)")
		go func() {
			shutdown()
			os.Exit(0)
		}()
		<-sigs
		os.Exit(130)
	}()
	db.LoadUniform(64)
	fmt.Printf("hermesd: %d nodes (+%d standby), %d rows, policy=%s\n", *nodes, *standby, *rows, *policy)
	if *addr != "" {
		go func() {
			if err := http.ListenAndServe(*addr, db.Telemetry().Handler()); err != nil {
				fmt.Fprintln(os.Stderr, "http:", err)
			}
		}()
		fmt.Printf("serving http://%s/metrics, /trace, /debug/pprof/\n", *addr)
	}

	nextStandby := *nodes
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "get":
			if row, ok := parseRow(fields, 1); ok {
				v, found := db.Read(hermes.MakeKey(0, row))
				fmt.Printf("%q (present=%v)\n", v, found)
			}
		case "set":
			if row, ok := parseRow(fields, 1); ok && len(fields) > 2 {
				k := hermes.MakeKey(0, row)
				v := []byte(fields[2])
				err := db.ExecWait(0, &hermes.FuncProc{
					Reads: []hermes.Key{k}, Writes: []hermes.Key{k},
					Fn: func(ctx hermes.ExecCtx) { ctx.Write(k, v) },
				})
				report(err)
			}
		case "inc":
			var keys []hermes.Key
			for _, f := range fields[1:] {
				if row, err := strconv.ParseUint(f, 10, 64); err == nil {
					keys = append(keys, hermes.MakeKey(0, row))
				}
			}
			if len(keys) > 0 {
				err := db.ExecWait(0, &hermes.CounterProc{Reads: keys, Writes: keys, Payload: 8})
				report(err)
			}
		case "owner":
			if row, ok := parseRow(fields, 1); ok {
				k := hermes.MakeKey(0, row)
				pl := db.Cluster().Node(0).Policy().Placement()
				fmt.Printf("owner=%d home=%d\n", pl.Owner(k), pl.Home(k))
			}
		case "addnode":
			if nextStandby >= *nodes+*standby {
				fmt.Println("no standby nodes left")
				break
			}
			err := db.Provision([]hermes.NodeID{hermes.NodeID(nextStandby)}, nil)
			report(err)
			if err == nil {
				fmt.Printf("node %d active\n", nextStandby)
				nextStandby++
			}
		case "migrate":
			if len(fields) == 4 {
				lo, _ := strconv.ParseUint(fields[1], 10, 64)
				hi, _ := strconv.ParseUint(fields[2], 10, 64)
				to, _ := strconv.Atoi(fields[3])
				var keys []hermes.Key
				for r := lo; r < hi; r++ {
					keys = append(keys, hermes.MakeKey(0, r))
				}
				report(db.Migrate(keys, hermes.NodeID(to), 500))
			}
		case "checkpoint":
			if _, err := db.Checkpoint(30 * time.Second); err != nil {
				report(err)
			} else {
				fmt.Println("ok")
			}
		case "killleader":
			report(db.CrashLeader())
		case "restartleader":
			report(db.RestartLeader())
		case "stats":
			db.Drain(2 * time.Second)
			st := db.Stats()
			fmt.Printf("committed=%d aborted=%d migrations=%d (%d bytes, %d in flight) remote-reads=%d\n",
				st.Committed, st.Aborted, st.Migrations, st.MigrationBytes, st.MigrationsInFlight, st.RemoteReads)
			fmt.Printf("net: %d msgs, %d bytes; latency p50=%v p99=%v\n",
				st.NetworkMsgs, st.NetworkBytes, st.P50, st.P99)
			fmt.Printf("routing: %d batches, %v/batch, %v/txn\n",
				st.RoutingBatches, st.RoutingPerBatch, st.RoutingPerTxn)
			fmt.Printf("reliability: %d retransmits, %d dups dropped; crashes=%d recoveries=%d downtime=%v\n",
				st.Retransmits, st.DupsDropped, st.Crashes, st.Recoveries, st.Downtime)
			fmt.Printf("sequencer: leader=%d epoch=%d failovers=%d heartbeat-misses=%d\n",
				st.SeqLeader, st.SeqEpoch, st.SeqFailovers, st.SeqHeartbeatMisses)
			if phases := db.Telemetry().Phases().SummaryMap(); len(phases) > 0 {
				fmt.Println("phase latency (histogram-backed, ms):")
				for c := telemetry.Component(0); c < telemetry.NumComponents; c++ {
					if ps, ok := phases[c.String()]; ok {
						fmt.Printf("  %-12s n=%-7d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
							c, ps.Count, ps.MeanMs, ps.P50Ms, ps.P95Ms, ps.P99Ms, ps.MaxMs)
					}
				}
			}
		default:
			fmt.Println("commands: get set inc owner addnode migrate checkpoint killleader restartleader stats quit")
		}
		fmt.Print("> ")
	}
}

func parseRow(fields []string, idx int) (uint64, bool) {
	if len(fields) <= idx {
		fmt.Println("missing row argument")
		return 0, false
	}
	row, err := strconv.ParseUint(fields[idx], 10, 64)
	if err != nil {
		fmt.Println("bad row:", err)
		return 0, false
	}
	return row, true
}

func report(err error) {
	if err != nil {
		fmt.Println("error:", err)
	} else {
		fmt.Println("ok")
	}
}
