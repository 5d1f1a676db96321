// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the emulated cluster: the Google-trace YCSB
// comparisons (Figs. 2, 6, 7, 8, 9, 10), TPC-C with hot spots (Fig. 11),
// the multi-tenant moving hot spot (Fig. 12), initial-partitioning
// robustness (Fig. 13), and the scale-out scenario (Fig. 14). Each
// experiment prints the same rows/series the paper reports; absolute
// numbers differ from the paper's 31-machine cluster, but the relative
// shapes are the reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hermes/internal/chaos"
	"hermes/internal/core"
	"hermes/internal/engine"
	"hermes/internal/fusion"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
	"hermes/internal/workload"
)

// Scale sets the knobs that trade fidelity for wall-clock time. Small()
// keeps every figure's bench under a few seconds per system; Full() is
// for cmd/hermes-bench -full.
type Scale struct {
	Nodes     int
	Rows      uint64
	Clients   int
	Phase     time.Duration // measured duration per system run
	Window    time.Duration // throughput sampling window
	BatchSize int
	// SeqInterval is the sequencer flush interval: larger batches give
	// the prescient router a wider future window at a latency cost
	// (Fig. 10's trade-off).
	SeqInterval time.Duration
	// NetLatency conditions every link as the fault-free
	// chaos.Shape{Latency: NetLatency, BytesPerSec: 1.25e9}, the paper's
	// 10 GbE LAN (0 = off).
	NetLatency   time.Duration
	StorageDelay time.Duration
	// Executors and ExecCost define per-node saturation throughput
	// (Executors slots, each transaction costing ExecCost of CPU).
	Executors  int
	ExecCost   time.Duration
	FusionFrac float64 // fusion capacity as fraction of Rows
	// ClayRange overrides Clay's clump granularity in keys (0 = derived
	// from Rows; "the size of the range depends on workloads", §5.2.1).
	ClayRange uint64
	Seed      int64
}

// Small returns the downscaled defaults used by `go test -bench`.
func Small() Scale {
	return Scale{
		Nodes:        4,
		Rows:         8_000,
		Clients:      64,
		Phase:        1200 * time.Millisecond,
		Window:       200 * time.Millisecond,
		BatchSize:    64,
		SeqInterval:  5 * time.Millisecond,
		NetLatency:   time.Millisecond,
		StorageDelay: 20 * time.Microsecond,
		Executors:    2,
		ExecCost:     200 * time.Microsecond,
		FusionFrac:   0.025,
		Seed:         1,
	}
}

// Full returns the larger configuration used by cmd/hermes-bench -full.
func Full() Scale {
	return Scale{
		Nodes:        8,
		Rows:         100_000,
		Clients:      256,
		Phase:        10 * time.Second,
		Window:       500 * time.Millisecond,
		BatchSize:    256,
		SeqInterval:  10 * time.Millisecond,
		NetLatency:   500 * time.Microsecond,
		StorageDelay: 20 * time.Microsecond,
		Executors:    4,
		ExecCost:     150 * time.Microsecond,
		FusionFrac:   0.025,
		Seed:         1,
	}
}

// Series is one labelled line of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Result is one regenerated figure/table.
type Result struct {
	Name   string // e.g. "fig6a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render formats the result as an aligned text table (series as columns).
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.Name, r.Title)
	if len(r.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%16s", s.Label)
	}
	b.WriteByte('\n')
	rows := 0
	for _, s := range r.Series {
		if len(s.X) > rows {
			rows = len(s.X)
		}
	}
	for i := 0; i < rows; i++ {
		wrote := false
		for si, s := range r.Series {
			if si == 0 {
				if i < len(s.X) {
					fmt.Fprintf(&b, "%-12.2f", s.X[i])
				} else {
					fmt.Fprintf(&b, "%-12s", "")
				}
				wrote = true
			}
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%16.2f", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%16s", "")
			}
		}
		if wrote {
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// AvgY returns the mean of a series' Y values (0 when empty).
func AvgY(s Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Y {
		sum += v
	}
	return sum / float64(len(s.Y))
}

// controller is an external look-back component running alongside a
// cluster (Clay's planner + Squall submission). Hook observes commits
// from the engine; Start launches the control loop; Stop terminates it.
type controller interface {
	Hook(rt *router.Route)
	Start(c *engine.Cluster)
	Stop()
}

// system couples a display name with a policy factory and an optional
// controller constructor.
type system struct {
	name          string
	policy        engine.PolicyFactory
	newController func() controller
}

// standardSystems builds the six §5.2 systems over the given base layout.
func standardSystems(sc Scale, base partition.Partitioner) []system {
	fusionCap := int(float64(sc.Rows) * sc.FusionFrac)
	return []system{
		{name: "Calvin", policy: func(a []tx.NodeID) router.Policy { return router.NewCalvin(base, a) }},
		{
			name:          "Clay",
			policy:        func(a []tx.NodeID) router.Policy { return router.NewCalvin(base, a) },
			newController: func() controller { return newClayController(sc, base) },
		},
		{name: "G-Store", policy: func(a []tx.NodeID) router.Policy { return router.NewGStore(base, a) }},
		{name: "T-Part", policy: func(a []tx.NodeID) router.Policy { return router.NewTPart(base, a, 0.25) }},
		{name: "LEAP", policy: func(a []tx.NodeID) router.Policy { return router.NewLEAP(base, a) }},
		{name: "Hermes", policy: hermesPolicy(base, fusionCap)},
	}
}

func hermesPolicy(base partition.Partitioner, fusionCap int) engine.PolicyFactory {
	cfg := core.Config{Alpha: 0.25, FusionCapacity: fusionCap, FusionPolicy: fusion.LRU}
	return func(a []tx.NodeID) router.Policy { return core.New(base, a, cfg) }
}

// runOutput is everything one measured run yields.
type runOutput struct {
	Throughput []float64 // commits per window
	CPU        []float64 // mean busy fraction per window
	NetPerTxn  []float64 // bytes per committed txn per window
	Breakdown  breakdown
	Committed  int64
	Aborted    int64
	Migrations int64
	// Routing cost (§3.2.4): mean scheduler time spent planning, per
	// batch and per transaction, in microseconds.
	RoutingPerBatchUs float64
	RoutingPerTxnUs   float64
}

type breakdown struct {
	Scheduling, QueueWait, QueuePlan, Storage, RemoteWait, Other float64 // ms
}

// total is the mean end-to-end latency: the components partition it.
func (b breakdown) total() float64 {
	return b.Scheduling + b.QueueWait + b.QueuePlan + b.Storage + b.RemoteWait + b.Other
}

// runLoad runs gen against a fresh cluster with the given system for
// sc.Phase, sampling per window. loader seeds the database; events (may
// be nil) runs alongside (provisioning scripts etc.) and is passed the
// cluster and the run start time.
func runLoad(sc Scale, sys system, gen workload.Generator,
	loader func(c *engine.Cluster), nodes, active []tx.NodeID,
	commitHook func(*router.Route), events func(c *engine.Cluster, start time.Time)) (*runOutput, error) {

	var ctl controller
	if sys.newController != nil {
		ctl = sys.newController()
	}
	hook := commitHook
	if ctl != nil {
		inner := hook
		hook = func(rt *router.Route) {
			ctl.Hook(rt)
			if inner != nil {
				inner(rt)
			}
		}
	}
	seqInt := sc.SeqInterval
	if seqInt <= 0 {
		seqInt = 2 * time.Millisecond
	}
	cfg := engine.Config{
		Nodes:        nodes,
		Active:       active,
		Policy:       sys.policy,
		Seq:          sequencer.Config{BatchSize: sc.BatchSize, Interval: seqInt},
		StorageDelay: sc.StorageDelay,
		Executors:    sc.Executors,
		ExecCost:     sc.ExecCost,
		Window:       sc.Window,
		CommitHook:   hook,
	}
	if sc.NetLatency > 0 {
		// A fault-free schedule passes every check.
		links, _ := chaos.NewModel(chaos.Schedule{Shape: chaos.Shape{Latency: sc.NetLatency, BytesPerSec: 1.25e9}})
		cfg.Links = links.Link
	}
	sink := currentSink()
	var tel *telemetry.Telemetry
	if sink != nil {
		tel = telemetry.New(nodes, 0)
		cfg.Telemetry = tel
	}
	c, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	loader(c)

	if ctl != nil {
		ctl.Start(c)
	}

	driver := &workload.Driver{Gen: gen, Clients: sc.Clients}
	start := time.Now()
	driver.Run(c, start)
	if events != nil {
		events(c, start)
	}

	// Sample per window.
	nWin := int(sc.Phase / sc.Window)
	out := &runOutput{}
	var lastCommits, lastBytes int64
	lastBusy := make(map[tx.NodeID]time.Duration)
	col := c.Collector()
	for w := 0; w < nWin; w++ {
		time.Sleep(sc.Window)
		commits := col.Committed()
		_, bytes := c.NetStats().Totals()
		dC := commits - lastCommits
		dB := bytes - lastBytes
		lastCommits, lastBytes = commits, bytes
		out.Throughput = append(out.Throughput, float64(dC))
		busySum := 0.0
		for _, id := range active {
			b := col.BusyTotal(int(id))
			busySum += (b - lastBusy[id]).Seconds()
			lastBusy[id] = b
		}
		out.CPU = append(out.CPU, busySum/float64(len(active))/sc.Window.Seconds()*100)
		if dC > 0 {
			out.NetPerTxn = append(out.NetPerTxn, float64(dB)/float64(dC))
		} else {
			out.NetPerTxn = append(out.NetPerTxn, 0)
		}
	}
	driver.Stop()
	if ctl != nil {
		ctl.Stop()
	}
	c.Drain(10 * time.Second)

	bd := col.AvgBreakdown()
	out.Breakdown = breakdown{
		Scheduling: ms(bd.Scheduling),
		QueueWait:  ms(bd.QueueWait),
		QueuePlan:  ms(bd.QueuePlan),
		Storage:    ms(bd.Storage),
		RemoteWait: ms(bd.RemoteWait),
		Other:      ms(bd.Other),
	}
	out.Committed = col.Committed()
	out.Aborted = col.Aborted()
	out.Migrations = col.Migrations()
	rs := col.Routing()
	out.RoutingPerBatchUs = us(rs.PerBatch)
	out.RoutingPerTxnUs = us(rs.PerTxn)
	if sink != nil {
		rec := RunRecord{
			System:            sys.name,
			Throughput:        out.Throughput,
			CPU:               out.CPU,
			NetPerTxn:         out.NetPerTxn,
			Breakdown:         out.Breakdown,
			Committed:         out.Committed,
			Aborted:           out.Aborted,
			Migrations:        out.Migrations,
			RoutingPerBatchUs: out.RoutingPerBatchUs,
			RoutingPerTxnUs:   out.RoutingPerTxnUs,
			Gauges:            tel.Registry().SnapshotMap(),
			Phases:            tel.Phases().SummaryMap(),
		}
		if slow := tel.Tail().Slow(); len(slow) > 0 {
			rec.SlowCaptured = tel.Tail().Captured()
			rec.SlowDominant = make(map[string]int64)
			for _, st := range slow {
				rec.SlowDominant[st.Dominant.String()]++
			}
		}
		sink(rec)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func nodeIDs(n int) []tx.NodeID {
	out := make([]tx.NodeID, n)
	for i := range out {
		out[i] = tx.NodeID(i)
	}
	return out
}

func windowsX(n int, window time.Duration) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) * window.Seconds()
	}
	return out
}

// Registry maps experiment names to their runners.
var Registry = map[string]func(Scale) (*Result, error){
	"fig1":            Fig1,
	"fig2":            Fig2,
	"fig6a":           Fig6a,
	"fig6b":           Fig6b,
	"fig7":            Fig7,
	"fig8":            Fig8,
	"fig8b":           Fig8b,
	"fig9":            Fig9,
	"fig10":           Fig10,
	"fig11":           Fig11,
	"fig12":           Fig12,
	"fig13":           Fig13,
	"fig14":           Fig14,
	"ablation":        Ablation,
	"ablation-fusion": AblationFusionCapacity,
	"ablation-alpha":  AblationAlpha,
	"routingcost":     RoutingCost,
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
