package main

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// streamHash hashes the first n transactions of a generator.
func streamHash(g generator, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		p := g.next()
		fmt.Fprintln(h, p.Reads, p.Writes, p.Payload)
	}
	return h.Sum64()
}

func TestGeneratorsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(w.generator(7), 10_000), streamHash(w.generator(7), 10_000)
		if a != b {
			t.Errorf("%s: equal seeds gave different streams", w.name)
		}
		if c := streamHash(w.generator(8), 10_000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

// The cluster's driver process and RunTwin materialize the stream with
// WorkloadSpec.Procs; the in-process workload streams it from ycsbGen. The
// emulation-to-cluster comparison needs the two to be the same stream.
func TestYCSBStreamMatchesTheHarness(t *testing.T) {
	w := workloadByName("cluster-ycsb")
	const n = 10_000
	spec := w.spec(42, 0, n)
	want, err := spec.Procs()
	if err != nil {
		t.Fatal(err)
	}
	g := w.generator(42)
	for i := 0; i < n; i++ {
		if got := g.next(); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("transaction %d: streamed %+v, harness %+v", i, got, want[i])
		}
	}
	// A later incarnation continues the stream: Skip must line up too.
	spec = w.spec(42, n-100, 100)
	tail, err := spec.Procs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, want[n-100:]) {
		t.Fatal("spec with Skip does not continue the stream")
	}
}

func TestHotKeyShape(t *testing.T) {
	w := workloadByName("inproc-hotkey")
	g := w.generator(3)
	single, cross := 0, 0
	span := w.rows / uint64(w.nodes)
	for i := 0; i < 20_000; i++ {
		p := g.next()
		switch len(p.Writes) {
		case 1:
			single++
		case 2:
			cross++
			if p.Writes[0].Row()/span == p.Writes[1].Row()/span {
				t.Fatalf("two-key transaction %v stays on one node", p.Writes)
			}
		default:
			t.Fatalf("transaction with %d keys", len(p.Writes))
		}
	}
	if share := float64(single) / 20_000; share < 0.97 || share > 0.99 {
		t.Errorf("%.3f of the transactions are single-key hot increments, want about %.2f", share, hotFraction)
	}
}
