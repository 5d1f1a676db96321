package storage

import "hermes/internal/tx"

// UndoLog records the before-images of a single transaction's writes so a
// logic abort can roll them back (paper §4.2). It is not safe for
// concurrent use; each executing transaction owns one.
type UndoLog struct {
	store   *Store
	entries []undoEntry
}

type undoEntry struct {
	key     tx.Key
	prev    []byte
	existed bool
}

// Reset empties u and binds it to store, with room for n before-images,
// so an UndoLog held by value needs no constructor.
func (u *UndoLog) Reset(store *Store, n int) {
	u.store = store
	if cap(u.entries) < n {
		u.entries = make([]undoEntry, 0, n)
	}
	u.entries = u.entries[:0]
}

// Write performs a store write, first capturing the before-image. Every
// call captures one, with no search of the log: Rollback restores newest
// first, so a key written twice ends at its oldest before-image. A caller
// that knows a key's image is already captured (the engine's view slot
// does) writes the store directly instead.
func (u *UndoLog) Write(k tx.Key, v []byte) {
	prev, existed := u.store.Read(k)
	u.entries = append(u.entries, undoEntry{key: k, prev: prev, existed: existed})
	u.store.Write(k, v)
}

// Rollback restores every written key to its before-image, newest first.
func (u *UndoLog) Rollback() {
	for i := len(u.entries) - 1; i >= 0; i-- {
		e := u.entries[i]
		if e.existed {
			u.store.Write(e.key, e.prev)
		} else {
			u.store.Delete(e.key)
		}
	}
	u.entries = u.entries[:0]
}

// Discard forgets the captured before-images (commit path).
func (u *UndoLog) Discard() { u.entries = u.entries[:0] }
