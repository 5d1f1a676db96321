package chaos

import (
	"fmt"
	"sort"
	"time"

	"hermes/internal/core"
	"hermes/internal/engine"
	"hermes/internal/partition"
	"hermes/internal/router"
	"hermes/internal/sequencer"
	"hermes/internal/telemetry"
	"hermes/internal/tx"
	"hermes/internal/workload"
)

// Workload names the workload families the harness can drive.
type Workload string

// Supported workloads.
const (
	// WorkloadYCSB is the YCSB-A mix (50/50 read / read-modify-write)
	// over a uniform-range layout.
	WorkloadYCSB Workload = "ycsb"
	// WorkloadTPCC is the New-Order/Payment mix over the by-warehouse
	// layout; New-Order inserts records, so only cross-run conservation
	// applies.
	WorkloadTPCC Workload = "tpcc"
	// WorkloadMultiTenant is the rotating-hot-node tenant workload.
	WorkloadMultiTenant Workload = "multitenant"
)

// Policies lists every routing policy the harness can spin up.
func Policies() []string { return []string{"hermes", "calvin", "gstore", "leap", "tpart"} }

// Spec describes one deterministic harness run: a cluster, a workload
// trace, and a submission shape. The same Spec always generates the same
// totally ordered input, which is what makes cross-schedule equivalence
// meaningful.
type Spec struct {
	// Policy is one of Policies().
	Policy string
	// Workload selects the generator family.
	Workload Workload
	// Nodes is the cluster size.
	Nodes int
	// Txns is the trace length; it is rounded up to a multiple of Batch.
	Txns int
	// Batch is the exact sequencer batch size. The harness submits the
	// whole trace through one front-end (a single FIFO link to the
	// leader) and disables the interval flush, so batches seal purely on
	// the size trigger — batch composition is identical across runs no
	// matter how the fault schedule stretches delivery.
	Batch int
	// Seed drives the workload generator.
	Seed int64
	// SeqStandbys is the number of standby sequencer replicas. Schedules
	// with leader kills require at least one; the harness then runs the
	// group with tight failover timers so a kill resolves in tens of
	// milliseconds. Standbys do not change the sealed batch stream, so a
	// spec is byte-comparable across schedules regardless of this knob.
	SeqStandbys int
	// Timeout bounds one run (default 60s); hitting it is reported as a
	// quiescence failure, which is itself a determinism-tooling finding.
	Timeout time.Duration

	// Telemetry attaches a live telemetry layer (lifecycle tracer +
	// gauge registry) to the run. Telemetry must be a pure observer, so
	// a run with it on must quiesce to byte-identical state as one with
	// it off — TelemetryEquivalence asserts exactly that.
	Telemetry bool

	// storageDelay is the engine's per-record storage cost. A non-zero
	// cost model moves roles off the bucket workers onto the executor pool
	// (engine dispatch); final state must not depend on it, which the
	// package's dispatch-path equivalence tests assert.
	storageDelay time.Duration

	// MutateProcs, if non-nil, transforms the generated trace before
	// submission. Negative tests inject input-order nondeterminism here
	// to prove the checker catches it.
	MutateProcs func([]tx.Procedure) []tx.Procedure
	// WrapPolicy, if non-nil, wraps every node's routing replica.
	// Negative tests inject per-replica nondeterminism (map-iteration
	// routing) here.
	WrapPolicy func(router.Policy) router.Policy
}

func (s Spec) String() string {
	tel := ""
	if s.Telemetry {
		tel = " telemetry=on"
	}
	delay := ""
	if s.storageDelay != 0 {
		delay = " storage-delay=" + s.storageDelay.String()
	}
	return fmt.Sprintf("%s/%s n=%d txns=%d batch=%d seed=%d%s%s",
		s.Policy, s.Workload, s.Nodes, s.Txns, s.Batch, s.Seed, tel, delay)
}

// Result is the externally comparable outcome of one run.
type Result struct {
	Spec     Spec
	Schedule Schedule
	// Nodes are the per-node state digests, in node order.
	Nodes []engine.NodeDigest
	// Records and Bytes are the storage totals at quiescence.
	Records int
	Bytes   int64
	// Committed and Aborted account for every submitted transaction.
	Committed, Aborted int64
	// FaultMsgs and FaultDelay report how much the schedule actually
	// perturbed this run.
	FaultMsgs  int64
	FaultDelay time.Duration
	// Dropped/Dupped count messages the schedule lost or duplicated;
	// Retransmits counts the reliable layer's recoveries. Zero for
	// schedules within the base Transport contract.
	Dropped, Dupped int64
	Retransmits     int64
	// Crashes counts executed node kill/restart cycles.
	Crashes int64
	// Failovers counts sequencer leader promotions (epoch advances).
	Failovers int64
	// Traced and MetricSamples report telemetry activity (zero unless
	// Spec.Telemetry): lifecycle events emitted and registry samples.
	Traced        uint64
	MetricSamples int
	// Disk reports the shadow-journal activity and injected storage
	// faults (zero unless Schedule.Disk).
	Disk DiskStats
}

// normalize applies defaults and rounds the trace to whole batches.
func (s Spec) normalize() Spec {
	if s.Nodes <= 0 {
		s.Nodes = 3
	}
	if s.Batch <= 0 {
		s.Batch = 8
	}
	if s.Txns <= 0 {
		s.Txns = 8 * s.Batch
	}
	if rem := s.Txns % s.Batch; rem != 0 {
		s.Txns += s.Batch - rem
	}
	if s.Timeout <= 0 {
		s.Timeout = 60 * time.Second
	}
	return s
}

// trace is the deterministic input of one run: layout, initial records,
// and the ordered procedure list.
type trace struct {
	base    partition.Partitioner
	records map[tx.Key][]byte
	procs   []tx.Procedure
	// inserts marks workloads that create records, which weakens the
	// loaded-totals conservation check to "never shrinks".
	inserts bool
}

// buildTrace generates the run input from the spec, deterministically.
func buildTrace(spec Spec) (*trace, error) {
	tr := &trace{records: make(map[tx.Key][]byte)}
	const payload = 32
	switch spec.Workload {
	case WorkloadYCSB, "":
		rows := uint64(48 * spec.Nodes)
		tr.base = partition.NewUniformRange(0, rows, spec.Nodes)
		for i := uint64(0); i < rows; i++ {
			tr.records[tx.MakeKey(0, i)] = tx.CounterValue(payload, 0)
		}
		gen := workload.NewYCSB(workload.YCSBConfig{
			Rows: rows, Nodes: spec.Nodes, Mix: workload.YCSBA,
			Theta: 0.8, KeysPerTxn: 3, Payload: payload, Seed: spec.Seed,
		})
		for i := 0; i < spec.Txns; i++ {
			proc, _ := gen.Next(0)
			tr.procs = append(tr.procs, proc)
		}
	case WorkloadTPCC:
		cfg := workload.DefaultTPCCConfig(spec.Nodes, 1)
		cfg.StockPerWarehouse = 60
		cfg.HotSpotProb = 0.5
		cfg.Seed = spec.Seed
		gen := workload.NewTPCC(cfg)
		tr.base = gen.Partitioner()
		tr.inserts = true
		gen.ForEachRecord(func(k tx.Key, v []byte) {
			cp := make([]byte, len(v))
			copy(cp, v)
			tr.records[k] = cp
		})
		for i := 0; i < spec.Txns; i++ {
			proc, _ := gen.Next(time.Duration(i) * time.Millisecond)
			tr.procs = append(tr.procs, proc)
		}
	case WorkloadMultiTenant:
		cfg := workload.DefaultMultiTenantConfig(spec.Nodes)
		cfg.TenantsPerNode = 2
		cfg.RowsPerTenant = 40
		cfg.RotationPeriod = 2 * time.Second
		cfg.Payload = payload
		cfg.Seed = spec.Seed
		gen := workload.NewMultiTenant(cfg)
		tr.base = gen.Partitioner()
		for i := uint64(0); i < gen.Rows(); i++ {
			tr.records[tx.MakeKey(0, i)] = tx.CounterValue(payload, 0)
		}
		for i := 0; i < spec.Txns; i++ {
			// Deterministic pseudo-elapsed time: the hot node rotates at
			// fixed trace positions, identically in every run.
			proc, _ := gen.Next(time.Duration(i) * 50 * time.Millisecond)
			tr.procs = append(tr.procs, proc)
		}
	default:
		return nil, fmt.Errorf("chaos: unknown workload %q", spec.Workload)
	}
	return tr, nil
}

// factory builds the policy factory for spec over base.
func factory(spec Spec, base partition.Partitioner) (engine.PolicyFactory, error) {
	var pf engine.PolicyFactory
	switch spec.Policy {
	case "hermes", "":
		pf = func(a []tx.NodeID) router.Policy { return core.New(base, a, core.DefaultConfig(64)) }
	case "calvin":
		pf = func(a []tx.NodeID) router.Policy { return router.NewCalvin(base, a) }
	case "gstore":
		pf = func(a []tx.NodeID) router.Policy { return router.NewGStore(base, a) }
	case "leap":
		pf = func(a []tx.NodeID) router.Policy { return router.NewLEAP(base, a) }
	case "tpart":
		pf = func(a []tx.NodeID) router.Policy { return router.NewTPart(base, a, 0.5) }
	default:
		return nil, fmt.Errorf("chaos: unknown policy %q", spec.Policy)
	}
	if spec.WrapPolicy != nil {
		inner := pf
		pf = func(a []tx.NodeID) router.Policy { return spec.WrapPolicy(inner(a)) }
	}
	return pf, nil
}

// Run executes spec once under sched and returns the quiesced state. It
// refuses, before starting, any fault Check names.
//
// Determinism protocol: the trace is submitted in order through node 0's
// front-end only, so all forwards share one FIFO link to the leader; the
// sequencer's interval flush is disabled (the harness sets a very long
// interval) and Batch is the exact size trigger, so every run seals the
// identical batch stream. Everything downstream — batch delivery, record
// pushes, write-backs, migration chunks — is fair game for the fault
// schedule, which is precisely the paper's determinism claim.
func Run(spec Spec, sched Schedule) (*Result, error) {
	if err := Check(spec, sched); err != nil {
		return nil, err
	}
	spec = spec.normalize()
	tr, err := buildTrace(spec)
	if err != nil {
		return nil, err
	}
	pf, err := factory(spec, tr.base)
	if err != nil {
		return nil, err
	}

	ids := make([]tx.NodeID, spec.Nodes)
	for i := range ids {
		ids[i] = tx.NodeID(i)
	}
	var tel *telemetry.Telemetry
	if spec.Telemetry {
		tel = telemetry.New(ids, 1<<12)
	}
	// No Interval: batches seal on size only.
	seqCfg := sequencer.Config{BatchSize: spec.Batch, Standbys: spec.SeqStandbys}
	links, _ := NewModel(sched) // Check refused what NewModel would
	cfg := engine.Config{
		Nodes:        ids,
		Policy:       pf,
		Telemetry:    tel,
		StorageDelay: spec.storageDelay,
		Seq:          seqCfg,
		Links:        links.Link,
		// Loss and crash schedules need the reliable layer above the
		// faulty link; schedules within the base contract run without it,
		// exactly as before.
		Reliable: sched.RequiresReliable(),
	}
	// Disk schedules route every node's delivery journaling and ack gating
	// through a shadow journal on fault-injecting storage (disk.go). The
	// shadows close after the engine stops (defers run LIFO), so the final
	// group commit covers every frame the reliable layer appended.
	var shadows *shadowSet
	if sched.Disk != nil {
		shadows, err = newShadowSet(sched, ids)
		if err != nil {
			return nil, err
		}
		defer shadows.Close()
		cfg.Journal = shadows.journal
	}
	c, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	var loadedRecords int
	var loadedBytes int64
	for k, v := range tr.records {
		c.LoadRecord(k, v)
		loadedRecords++
		loadedBytes += int64(len(v))
	}

	// Kill schedules replay from the last checkpoint; take one at the
	// loaded-but-idle cut so the whole trace is coverable.
	if len(sched.Kills) > 0 {
		if _, err := c.Checkpoint(30 * time.Second); err != nil {
			return nil, fmt.Errorf("chaos: %v under %v: initial checkpoint: %w", spec, sched, err)
		}
	}

	procs := tr.procs
	if spec.MutateProcs != nil {
		procs = spec.MutateProcs(append([]tx.Procedure(nil), procs...))
	}

	deadline := time.Now().Add(spec.Timeout)

	// The kill executor kills and restarts victims — worker nodes and the
	// sequencer leader alike — at their scheduled points in the batch
	// stream while the trace is being submitted and executed. It runs
	// concurrently with submission: a trigger can sit in the middle of the
	// stream, and the stalled cluster must keep accepting input past it.
	// Kills execute in stream order so a schedule that combines worker
	// crashes with a leader kill is sequenced the same way in every run.
	kills := append([]Kill(nil), sched.Kills...)
	sort.SliceStable(kills, func(i, j int) bool { return kills[i].AfterFrac < kills[j].AfterFrac })
	killErr := make(chan error, 1)
	go func() {
		killErr <- executeKills(c, kills, spec.Nodes, uint64(len(procs)/spec.Batch), shadows, deadline)
	}()
	failed := func(err error) (*Result, error) {
		return nil, fmt.Errorf("chaos: %v under %v: %w (reproduce with seed=%d)", spec, sched, err, sched.Seed)
	}

	dones := make([]<-chan struct{}, 0, len(procs))
	for _, p := range procs {
		done, err := c.Submit(0, p)
		if err != nil {
			return nil, fmt.Errorf("chaos: submit under %v: %w", sched, err)
		}
		dones = append(dones, done)
	}
	for i, done := range dones {
		select {
		case <-done:
		case err := <-killErr:
			if err != nil {
				return failed(err)
			}
			killErr = nil // every kill ran; a nil channel never fires again
		case <-time.After(time.Until(deadline)):
			return failed(fmt.Errorf("txn %d/%d did not complete within %v", i+1, len(dones), spec.Timeout))
		}
	}
	if killErr != nil {
		select {
		case err := <-killErr:
			if err != nil {
				return failed(err)
			}
		case <-time.After(time.Until(deadline)):
			return failed(fmt.Errorf("kill executor did not finish"))
		}
	}
	if !c.Drain(time.Until(deadline)) {
		return failed(fmt.Errorf("cluster did not quiesce within %v", spec.Timeout))
	}

	// Every role that carried migrations finished or was handed back by
	// its node's crash: a quiesced cluster has none in flight.
	if g := c.Collector().MigrationsInFlight(); g != 0 {
		return failed(fmt.Errorf("%d migrations still in flight after quiesce", g))
	}

	res := &Result{
		Spec:      spec,
		Schedule:  sched,
		Nodes:     c.NodeDigests(),
		Records:   c.TotalRecords(),
		Bytes:     c.TotalBytes(),
		Committed: c.Collector().Committed(),
		Aborted:   c.Collector().Aborted(),
	}
	res.FaultMsgs, res.FaultDelay = links.Faults()
	res.Dropped, res.Dupped = links.Loss()
	res.Retransmits = c.ReliableStats().Retransmits
	res.Crashes = c.Collector().Crashes()
	res.Failovers = c.SeqFailovers()
	if shadows != nil {
		// End-of-run crash check for every node, twice with distinct
		// seeds (distinct tear points and bit-flip patterns).
		if err := shadows.verifyAll(2); err != nil {
			return nil, fmt.Errorf("chaos: %v under %v: %w", spec, sched, err)
		}
		res.Disk = shadows.stats()
	}
	if tel != nil {
		res.Traced = tel.Tracer().Written()
		res.MetricSamples = len(tel.Registry().Snapshot())
	}

	// Conservation: transactions and migrations must never lose records
	// or bytes; workloads without inserts must preserve the loaded totals
	// exactly.
	if res.Records < loadedRecords {
		return nil, fmt.Errorf("chaos: %v under %v: records shrank %d -> %d", spec, sched, loadedRecords, res.Records)
	}
	if got := res.Committed + res.Aborted; got != int64(len(procs)) {
		return nil, fmt.Errorf("chaos: %v under %v: committed+aborted = %d, want %d", spec, sched, got, len(procs))
	}
	if !tr.inserts {
		if res.Records != loadedRecords || res.Bytes != loadedBytes {
			return nil, fmt.Errorf("chaos: %v under %v: conservation violated: %d records / %d bytes, loaded %d / %d",
				spec, sched, res.Records, res.Bytes, loadedRecords, loadedBytes)
		}
	}
	return res, nil
}

// executeKills kills and restarts each victim once the batch stream
// reaches its trigger, failing if the trigger is not reached by deadline.
func executeKills(c *engine.Cluster, kills []Kill, nodes int, batches uint64, shadows *shadowSet, deadline time.Time) error {
	for _, k := range kills {
		// Leader kills key their trigger off node 0's scheduler (the
		// leader has no scheduler of its own); worker crashes off the
		// victim's.
		watch := tx.NodeID(0)
		if !k.Leader {
			watch = tx.NodeID(k.Node % nodes)
		}
		trigger := min(max(uint64(float64(batches)*k.AfterFrac), 1), batches)
		for c.Node(watch).Scheduled() < trigger {
			if time.Now().After(deadline) {
				return fmt.Errorf("node %d never reached trigger batch %d for %+v", watch, trigger, k)
			}
			time.Sleep(200 * time.Microsecond)
		}
		if k.Leader {
			if err := c.CrashLeader(); err != nil {
				return fmt.Errorf("crash leader: %w", err)
			}
			time.Sleep(k.Downtime)
			if err := c.RestartLeader(); err != nil {
				return fmt.Errorf("restart leader: %w", err)
			}
			continue
		}
		if err := c.CrashNode(watch); err != nil {
			return fmt.Errorf("crash node %d: %w", watch, err)
		}
		// With the victim down, its shadow journal is exactly what a real
		// crash would leave on disk: verify recovery at the kill point, not
		// just at quiescence.
		if shadows != nil {
			if err := shadows.verify(watch, 1); err != nil {
				return err
			}
		}
		time.Sleep(k.Downtime)
		if err := c.RestartNode(watch); err != nil {
			return fmt.Errorf("restart node %d: %w", watch, err)
		}
	}
	return nil
}

// Equivalence runs spec once per schedule and checks that every run
// reached the identical final state: every node's store digest, fusion
// fingerprint and usage, and the storage totals. It returns all results
// plus the first divergence (or run failure) found.
func Equivalence(spec Spec, scheds []Schedule) ([]*Result, error) {
	if len(scheds) == 0 {
		return nil, fmt.Errorf("chaos: no schedules")
	}
	results := make([]*Result, 0, len(scheds))
	var ref *Result
	for _, sched := range scheds {
		res, err := Run(spec, sched)
		if err != nil {
			return results, err
		}
		results = append(results, res)
		if ref == nil {
			ref = res
			continue
		}
		if err := equivalent(ref, res); err != nil {
			return results, err
		}
	}
	return results, nil
}

// TelemetryEquivalence runs spec under sched twice — telemetry fully off,
// then fully on — and checks the runs quiesced to byte-identical state:
// same node digests, storage totals, and commit/abort counts. Any
// difference means telemetry perturbed the deterministic state machine. It
// also sanity-checks that the enabled run actually observed the workload
// (traced events and a non-empty metric snapshot), so a silently
// disconnected tracer cannot pass.
func TelemetryEquivalence(spec Spec, sched Schedule) ([]*Result, error) {
	off := spec
	off.Telemetry = false
	on := spec
	on.Telemetry = true

	resOff, err := Run(off, sched)
	if err != nil {
		return nil, err
	}
	resOn, err := Run(on, sched)
	if err != nil {
		return []*Result{resOff}, err
	}
	results := []*Result{resOff, resOn}
	if err := equivalent(resOff, resOn); err != nil {
		return results, fmt.Errorf("telemetry on/off: %w", err)
	}
	if resOn.Traced == 0 {
		return results, fmt.Errorf("chaos: %v under %v: telemetry run traced no events", on, sched)
	}
	if resOn.MetricSamples == 0 {
		return results, fmt.Errorf("chaos: %v under %v: telemetry run registered no metrics", on, sched)
	}
	return results, nil
}

// equivalent compares two quiesced runs of the same spec.
func equivalent(a, b *Result) error {
	mismatch := func(what string, av, bv interface{}) error {
		return fmt.Errorf("chaos: DIVERGENCE %v: %s differs under %v vs %v: %v vs %v (reproduce with seeds %d, %d)",
			a.Spec, what, a.Schedule, b.Schedule, av, bv, a.Schedule.Seed, b.Schedule.Seed)
	}
	if len(a.Nodes) != len(b.Nodes) {
		return mismatch("node count", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		an, bn := a.Nodes[i], b.Nodes[i]
		if an.Store != bn.Store {
			return mismatch(fmt.Sprintf("node %d store digest", an.Node),
				fmt.Sprintf("%x", an.Store), fmt.Sprintf("%x", bn.Store))
		}
		if an.Fusion != bn.Fusion {
			return mismatch(fmt.Sprintf("node %d fusion table", an.Node),
				fmt.Sprintf("%x", an.Fusion), fmt.Sprintf("%x", bn.Fusion))
		}
		if an.Records != bn.Records || an.Bytes != bn.Bytes {
			return mismatch(fmt.Sprintf("node %d usage", an.Node),
				fmt.Sprintf("%d rec/%d B", an.Records, an.Bytes),
				fmt.Sprintf("%d rec/%d B", bn.Records, bn.Bytes))
		}
	}
	if a.Records != b.Records || a.Bytes != b.Bytes {
		return mismatch("storage totals",
			fmt.Sprintf("%d rec/%d B", a.Records, a.Bytes),
			fmt.Sprintf("%d rec/%d B", b.Records, b.Bytes))
	}
	if a.Committed != b.Committed || a.Aborted != b.Aborted {
		return mismatch("commit/abort counts",
			fmt.Sprintf("%d/%d", a.Committed, a.Aborted),
			fmt.Sprintf("%d/%d", b.Committed, b.Aborted))
	}
	return nil
}
