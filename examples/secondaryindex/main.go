// Secondary-index lookups with OLLP: deterministic databases need a
// transaction's read/write-sets *before* it runs, but an index lookup
// only learns its target row from data. Calvin's answer — adopted by
// Hermes (§2.1) — is Optimistic Lock Location Prediction: a cheap
// reconnaissance read predicts the access set, the real transaction
// revalidates the prediction deterministically, and the client retries
// when the index moved underneath it. This example maintains a tiny
// username → user-row index and updates users "by name" while another
// goroutine keeps rehoming one of them.
package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"hermes"
)

const (
	users    = 100
	idxBase  = 10_000 // index entries live at rows 10000+hash(name)
	userBase = 0
)

func idxKey(name int) hermes.Key    { return hermes.MakeKey(0, idxBase+uint64(name)) }
func userKey(row uint64) hermes.Key { return hermes.MakeKey(0, userBase+row) }

// pointTo sets name's index entry to a user row. Writing a constant is no
// counter bump, so it is a FuncProc, which only an in-process cluster runs.
func pointTo(name int, row uint64) hermes.Procedure {
	ptr := make([]byte, 16)
	binary.LittleEndian.PutUint64(ptr, row)
	return &hermes.FuncProc{
		Reads:  []hermes.Key{idxKey(name)},
		Writes: []hermes.Key{idxKey(name)},
		Fn:     func(ctx hermes.ExecCtx) { ctx.Write(idxKey(name), ptr) },
	}
}

func main() {
	db, err := hermes.Open(hermes.Options{Nodes: 3, Rows: 20_000, Policy: hermes.PolicyHermes})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	db.LoadUniform(16)

	// Build the index: name i -> user row i.
	for i := 0; i < users; i++ {
		if err := db.ExecWait(0, pointTo(i, uint64(i))); err != nil {
			panic(err)
		}
	}
	db.Drain(5 * time.Second)

	// A mover keeps relocating user 7 to fresh rows, invalidating
	// in-flight reconnaissance.
	var moves, retriesObserved atomic.Int64
	stop := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.ExecWait(1, pointTo(7, uint64(200+rng.Intn(5000))))
			moves.Add(1)
			// Pace the mover above the OLLP round-trip time; a mover
			// faster than reconnaissance+execution livelocks the hot
			// name — the known OLLP hazard (§2.1).
			time.Sleep(8 * time.Millisecond)
		}
	}()

	// Clients update users by name through OLLP.
	updates := 0
	for i := 0; i < 300; i++ {
		name := i % users
		attempt := 0
		planner := func(read func(hermes.Key) []byte) (hermes.Procedure, func(hermes.ExecCtx) bool, error) {
			attempt++
			if attempt > 1 {
				retriesObserved.Add(1)
			}
			row := binary.LittleEndian.Uint64(read(idxKey(name)))
			target := userKey(row)
			proc := &hermes.CounterProc{
				Reads:   []hermes.Key{idxKey(name), target},
				Writes:  []hermes.Key{target},
				Payload: 16,
			}
			validate := func(ctx hermes.ExecCtx) bool {
				return binary.LittleEndian.Uint64(ctx.Read(idxKey(name))) == row
			}
			return proc, validate, nil
		}
		if err := db.ExecOLLP(hermes.NodeID(i%3), planner, 10); err != nil {
			fmt.Printf("update for name %d gave up: %v (attempts=%d)\n", name, err, attempt)
			continue
		}
		updates++
	}
	close(stop)
	db.Drain(10 * time.Second)

	fmt.Printf("applied %d by-name updates while the index moved %d times\n", updates, moves.Load())
	fmt.Printf("OLLP reconnaissance retries observed: %d\n", retriesObserved.Load())
	st := db.Stats()
	fmt.Printf("committed=%d aborted=%d (aborts = deterministic stale-prediction rollbacks)\n",
		st.Committed, st.Aborted)
}
