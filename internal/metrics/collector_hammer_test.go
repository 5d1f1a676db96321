package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestCollectorBusyConcurrentGrow hammers the lock-free busy-counter path
// while forcing the slice-grow path to run mid-flight: node IDs span well
// past the pre-sized 64 entries, and negative IDs exercise the sync.Map
// fallback. Run under -race this proves AddBusy/BusyTotal/BusyFraction
// need no lock and that grown slices never lose counts (grow copies the
// counter pointers, so writers holding a stale slice still hit the same
// counters).
func TestCollectorBusyConcurrentGrow(t *testing.T) {
	c := NewCollector(time.Unix(0, 0), time.Second)
	const (
		goroutines = 16
		iterations = 2000
	)
	// Mix of dense in-range IDs, IDs past the pre-sized 64, and negatives.
	ids := []int{0, 3, 63, 64, 65, 127, 200, 517, -1, -9}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				id := ids[(g+i)%len(ids)]
				c.AddBusy(id, time.Microsecond)
				// Concurrent reads on the same hot path.
				_ = c.BusyTotal(id)
				_ = c.BusyFraction(id, time.Second)
			}
		}(g)
	}
	wg.Wait()

	var total time.Duration
	for _, id := range ids {
		total += c.BusyTotal(id)
	}
	want := time.Duration(goroutines*iterations) * time.Microsecond
	if total != want {
		t.Fatalf("busy total across all ids = %v, want %v (lost updates during grow?)", total, want)
	}
}

// TestCollectorMigrationGaugesConcurrent hammers the migration gauges the
// executor updates on its hot path: the in-flight gauge must return to
// zero after balanced +1/-1 pairs and the byte counter must not drop
// updates.
func TestCollectorMigrationGaugesConcurrent(t *testing.T) {
	c := NewCollector(time.Unix(0, 0), time.Second)
	const (
		goroutines = 8
		iterations = 5000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				c.AddMigrationsInFlight(1)
				c.RecordMigrationBytes(64)
				c.RecordMigration(1)
				c.AddMigrationsInFlight(-1)
			}
		}()
	}
	wg.Wait()
	if got := c.MigrationsInFlight(); got != 0 {
		t.Errorf("MigrationsInFlight = %d after balanced updates, want 0", got)
	}
	if got := c.MigrationBytes(); got != goroutines*iterations*64 {
		t.Errorf("MigrationBytes = %d, want %d", got, goroutines*iterations*64)
	}
	if got := c.Migrations(); got != goroutines*iterations {
		t.Errorf("Migrations = %d, want %d", got, goroutines*iterations)
	}
}
