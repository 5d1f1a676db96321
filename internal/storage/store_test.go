package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"hermes/internal/tx"
)

func TestReadWriteDelete(t *testing.T) {
	s := NewStore()
	if _, ok := s.Read(1); ok {
		t.Fatal("read of missing key reported present")
	}
	s.Write(1, []byte("a"))
	if v, ok := s.Read(1); !ok || string(v) != "a" {
		t.Fatalf("Read(1) = %q,%v", v, ok)
	}
	s.Write(1, []byte("b"))
	if v, _ := s.Read(1); string(v) != "b" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if v, ok := s.Delete(1); !ok || string(v) != "b" {
		t.Fatalf("Delete = %q,%v", v, ok)
	}
	if _, ok := s.Read(1); ok {
		t.Fatal("key present after delete")
	}
	if _, ok := s.Delete(1); ok {
		t.Fatal("double delete reported present")
	}
}

func TestLenAndKeys(t *testing.T) {
	s := NewStore()
	for i := 10; i > 0; i-- {
		s.Write(tx.Key(i), []byte{byte(i)})
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	keys := s.Keys()
	for i, k := range keys {
		if k != tx.Key(i+1) {
			t.Fatalf("Keys()[%d] = %v, want %d (sorted)", i, k, i+1)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := tx.Key(g*1000 + i)
				s.Write(k, []byte{byte(i)})
				if v, ok := s.Read(k); !ok || v[0] != byte(i) {
					t.Errorf("goroutine %d: lost write at %v", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", s.Len())
	}
}

// TestDigestIgnoresInsertionOrder: the same records written in any order
// digest identically.
func TestDigestIgnoresInsertionOrder(t *testing.T) {
	f := func(keys []uint16, vals []byte) bool {
		a, b := NewStore(), NewStore()
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a.Write(tx.Key(keys[i]), []byte{vals[i]})
		}
		for i := n - 1; i >= 0; i-- {
			// Re-apply in reverse; later writes win in a, earlier in b, so
			// only compare when keys are unique.
			b.Write(tx.Key(keys[i]), []byte{vals[i]})
		}
		uniq := map[uint16]bool{}
		for _, k := range keys[:n] {
			if uniq[k] {
				return true // duplicate keys: order matters, skip
			}
			uniq[k] = true
		}
		return a.Digest() == b.Digest()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDigestAndUsage(t *testing.T) {
	a, b := NewStore(), NewStore()
	if a.Digest() != b.Digest() {
		t.Fatal("empty stores digest differently")
	}
	for i := 0; i < 64; i++ {
		a.Write(tx.Key(i), []byte{byte(i), byte(i >> 1)})
	}
	for i := 63; i >= 0; i-- {
		b.Write(tx.Key(i), []byte{byte(i), byte(i >> 1)})
	}
	// Insertion order must not matter.
	if a.Digest() != b.Digest() {
		t.Fatal("identical contents produced different digests")
	}
	recs, bytes := a.Usage()
	if recs != 64 || bytes != 128 {
		t.Fatalf("Usage = %d recs %d bytes, want 64/128", recs, bytes)
	}
	// Unlike a plain XOR fold, the digest must see a value moved between
	// keys (swap two values: same multiset of records' bytes, different
	// mapping).
	b.Write(1, []byte{2, 1})
	b.Write(2, []byte{1, 0})
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to swapped values")
	}
	// And it must see a record count change even when the XOR of hashes
	// could cancel.
	b.Restore(a.Checkpoint())
	if a.Digest() != b.Digest() {
		t.Fatal("restore did not reproduce the digest")
	}
	b.Delete(5)
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to a deleted record")
	}
}

func TestDigestProperty(t *testing.T) {
	// Any single-record difference must change the digest.
	f := func(keys []uint8, flipKey uint8, flipByte uint8) bool {
		a, b := NewStore(), NewStore()
		uniq := map[uint8]bool{}
		for _, k := range keys {
			uniq[k] = true
			a.Write(tx.Key(k), []byte{k})
			b.Write(tx.Key(k), []byte{k})
		}
		if a.Digest() != b.Digest() {
			return false
		}
		b.Write(tx.Key(flipKey), []byte{flipKey ^ (flipByte | 1)})
		return a.Digest() != b.Digest()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckpointRestore(t *testing.T) {
	s := NewStore()
	for i := 0; i < 50; i++ {
		s.Write(tx.Key(i), []byte(fmt.Sprintf("v%d", i)))
	}
	cp := s.Checkpoint()
	fp := s.Digest()
	// Mutate heavily.
	for i := 0; i < 50; i++ {
		s.Write(tx.Key(i), []byte("dirty"))
	}
	s.Delete(3)
	s.Write(999, []byte("extra"))
	s.Restore(cp)
	if s.Digest() != fp {
		t.Fatal("restore did not reproduce checkpointed state")
	}
	if s.Len() != 50 {
		t.Fatalf("Len after restore = %d, want 50", s.Len())
	}
}

func TestCheckpointIsDeepCopy(t *testing.T) {
	s := NewStore()
	s.Write(1, []byte{1, 2, 3})
	cp := s.Checkpoint()
	cp[1][0] = 99
	if v, _ := s.Read(1); v[0] != 1 {
		t.Fatal("mutating checkpoint leaked into store")
	}
}

func TestUndoRollbackIsIdentity(t *testing.T) {
	s := NewStore()
	for i := 0; i < 20; i++ {
		s.Write(tx.Key(i), []byte{byte(i)})
	}
	fp := s.Digest()
	var u UndoLog
	u.Reset(s, 0)
	u.Write(5, []byte("x"))
	u.Write(5, []byte("y")) // double write: first before-image wins
	u.Write(100, []byte("new"))
	u.Delete(7)
	u.Rollback()
	if s.Digest() != fp {
		t.Fatal("rollback did not restore original state")
	}
	if u.Len() != 0 {
		t.Fatalf("undo log not cleared after rollback: %d", u.Len())
	}
}

func TestUndoDiscardKeepsWrites(t *testing.T) {
	s := NewStore()
	var u UndoLog
	u.Reset(s, 0)
	u.Write(1, []byte("a"))
	u.Discard()
	if v, ok := s.Read(1); !ok || string(v) != "a" {
		t.Fatal("discard dropped committed write")
	}
	if u.Len() != 0 {
		t.Fatal("undo log not cleared after discard")
	}
}

func TestUndoRollbackProperty(t *testing.T) {
	f := func(initKeys []uint8, ops []uint16) bool {
		s := NewStore()
		for _, k := range initKeys {
			s.Write(tx.Key(k), []byte{k})
		}
		fp := s.Digest()
		var u UndoLog
		u.Reset(s, 0)
		for _, op := range ops {
			k := tx.Key(op & 0xff)
			if op&0x100 != 0 {
				u.Delete(k)
			} else {
				u.Write(k, []byte{byte(op >> 9)})
			}
		}
		u.Rollback()
		return s.Digest() == fp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkStoreRead(b *testing.B) {
	s := NewStore()
	for i := 0; i < 1<<16; i++ {
		s.Write(tx.Key(i), []byte{1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(tx.Key(i & (1<<16 - 1)))
	}
}

func BenchmarkStoreWrite(b *testing.B) {
	s := NewStore()
	v := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(tx.Key(i&(1<<16-1)), v)
	}
}
