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

// runNode is hermesd's cluster-process mode: spawned by the harness
// orchestrator with its data listener on fd 3 and its control listener on
// fd 4. It runs one engine worker — on worker 0 also the sequencer leader,
// on the same transport — and serves the control plane until /shutdown or
// SIGTERM, either of which drains in-flight work before exiting. cfg
// comes from the command line; runNode adds the peer map and the
// listeners.
func runNode(cfg harness.NodeConfig, peers string) {
	var err error
	if cfg.Addrs, err = parsePeers(peers); err != nil {
		fatalf("hermesd: %v", err)
	}
	if cfg.DataLn, err = inheritListener(3, "data"); err != nil {
		fatalf("hermesd: %v", err)
	}
	if cfg.ControlLn, err = inheritListener(4, "control"); err != nil {
		fatalf("hermesd: %v", err)
	}
	node := cfg.Self
	s, err := harness.NewNodeServer(cfg)
	if err != nil {
		fatalf("hermesd: node %d: %v", node, err)
	}
	// First SIGINT/SIGTERM drains and shuts down gracefully (Close is
	// idempotent, so a racing /shutdown is harmless); a second signal while
	// the drain is still running forces an immediate exit.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "hermesd: node %d: %v — draining (signal again to force exit)\n", node, sig)
		go s.Close()
		sig = <-sigs
		fmt.Fprintf(os.Stderr, "hermesd: node %d: %v — forcing exit\n", node, sig)
		os.Exit(130)
	}()
	fmt.Printf("hermesd: node %d of %d up (policy=%s leader=%v recover=%v)\n",
		node, cfg.Workers, cfg.Policy, node == 0, cfg.Recover)
	if err := s.Serve(); err != nil {
		fatalf("hermesd: node %d: control plane: %v", node, err)
	}
}

// parsePeers parses "0=127.0.0.1:4001,1=...,-64=..." into the transport
// address map (negative ids name the sequencer leader, at worker 0's
// address).
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
