package main

import (
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"hermes/internal/harness"
	"hermes/internal/tx"
)

// nodeFlags carries the cluster-node-mode command line (see runNode).
type nodeFlags struct {
	node      int
	workers   int
	peers     string
	policy    string
	rows      uint64
	fusionCap int
	alpha     float64
	batch     int
	dir       string
	seqHost   bool
	recover   bool
	exec      string
	fsync     string
	traceRing int
	traceOff  bool
	ovDelay   int64
	ovShed    int64
}

// runNode is hermesd's cluster-process mode: spawned by the harness
// orchestrator with its data listener on fd 3, its control listener on
// fd 4, and — on the leader host — the sequencer leader's listener on
// fd 5. It runs one engine worker (plus the optional standalone leader)
// and serves the control plane until /shutdown or SIGTERM, either of
// which drains in-flight work before exiting.
func runNode(nf nodeFlags) {
	addrs, err := parsePeers(nf.peers)
	if err != nil {
		fatalf("hermesd: %v", err)
	}
	dataLn, err := inheritListener(3, "data")
	if err != nil {
		fatalf("hermesd: %v", err)
	}
	ctrlLn, err := inheritListener(4, "control")
	if err != nil {
		fatalf("hermesd: %v", err)
	}
	var leaderLn net.Listener
	if nf.seqHost {
		if leaderLn, err = inheritListener(5, "leader"); err != nil {
			fatalf("hermesd: %v", err)
		}
	}
	s, err := harness.NewNodeServer(harness.NodeConfig{
		Self:          tx.NodeID(nf.node),
		Workers:       nf.workers,
		Addrs:         addrs,
		DataLn:        dataLn,
		ControlLn:     ctrlLn,
		LeaderLn:      leaderLn,
		Policy:        nf.policy,
		Rows:          nf.rows,
		FusionCap:     nf.fusionCap,
		Alpha:         nf.alpha,
		BatchSize:     nf.batch,
		ExecMode:      nf.exec,
		Dir:           nf.dir,
		Fsync:         nf.fsync,
		Recover:       nf.recover,
		TraceRing:     nf.traceRing,
		TraceOff:      nf.traceOff,
		OverloadDelay: nf.ovDelay,
		OverloadShed:  nf.ovShed,
	})
	if err != nil {
		fatalf("hermesd: node %d: %v", nf.node, err)
	}
	// First SIGINT/SIGTERM drains and shuts down gracefully (Close is
	// idempotent, so a racing /shutdown is harmless); a second signal while
	// the drain is still running forces an immediate exit.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "hermesd: node %d: %v — draining (signal again to force exit)\n", nf.node, sig)
		go s.Close()
		sig = <-sigs
		fmt.Fprintf(os.Stderr, "hermesd: node %d: %v — forcing exit\n", nf.node, sig)
		os.Exit(130)
	}()
	fmt.Printf("hermesd: node %d of %d up (policy=%s seq-host=%v recover=%v)\n",
		nf.node, nf.workers, nf.policy, nf.seqHost, nf.recover)
	if err := s.Serve(); err != nil {
		fatalf("hermesd: node %d: control plane: %v", nf.node, err)
	}
}

// parsePeers parses "0=127.0.0.1:4001,1=...,-64=..." into the transport
// address map (negative ids name the sequencer leader).
func parsePeers(s string) (map[tx.NodeID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-peers is required in node mode")
	}
	out := make(map[tx.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -peers entry %q (want id=addr)", part)
		}
		n, err := strconv.ParseInt(id, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad -peers id %q: %v", id, err)
		}
		out[tx.NodeID(n)] = addr
	}
	return out, nil
}

// inheritListener adopts a listening socket passed by the parent at fd.
func inheritListener(fd uintptr, name string) (net.Listener, error) {
	f := os.NewFile(fd, name)
	if f == nil {
		return nil, fmt.Errorf("no inherited %s listener at fd %d", name, fd)
	}
	ln, err := net.FileListener(f)
	f.Close() // FileListener dups the fd
	if err != nil {
		return nil, fmt.Errorf("inherited %s listener at fd %d: %v", name, fd, err)
	}
	return ln, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
