package core

import (
	"maps"
	"sync"
	"sync/atomic"

	"mspr/internal/wal"
)

// The session table is lock-striped (§5.5 scalability): requests for
// different sessions proceed through disjoint shard locks instead of
// funneling through one server-wide mutex, so the request hot path
// scales with cores. Shard selection hashes the session ID with FNV-1a.
//
// The striping changes the fuzzy checkpointer's visibility contract.
// With a single table lock, a session was either fully created (start
// record appended, start LSN published) or invisible; with shards, the
// SessionStart append happens OUTSIDE the shard lock, so the
// checkpointer can observe a session that exists but has no start LSN
// yet ("starting"). Two mechanisms keep the log head from advancing
// past such a session's records (see writeMSPCheckpoint):
//
//   - every starting session carries startPin, the log's append
//     position captured before the session became visible; its future
//     SessionStart LSN is ≥ startPin, so the head is clamped at the pin;
//   - the checkpointer additionally clamps the head at the log position
//     captured before its table scan (the barrier), which covers
//     sessions inserted after their shard was scanned.

// numShards is the stripe count. Power of two so shard selection is a
// mask; 64 stripes keep contention negligible for the default 32-worker
// pool without bloating the per-server footprint.
const numShards = 64

// sessionShard is one stripe: a mutex and the sessions hashed to it.
// Padding keeps adjacent shards' locks off the same cache line. The
// stripe lock sits between stateMu (10) and Session.mu (30) in the
// lattice and is noblock: the hot path must never flush, send, or
// otherwise stall while holding a stripe.
//
// ended holds the tombstones of the stripe's ended sessions: id → LSN of
// the SessionEnd record. A late duplicate of an ended session's first
// request must not re-create the session and run the request again
// (lookupOrCreateSession refuses it). A tombstone lives as long as the
// log still holds the End — writeMSPCheckpoint drops those below the new
// head, and the analysis scan re-creates the rest — and as long as a
// first request (NewSession) admitted to the stripe is still on its way
// to the table: arriving counts those from admission until served, and
// the late duplicate may be one of them, taken off the queue before the
// session even ended. Only a logging server with stateful sessions keeps
// tombstones (Server.endSession).
type sessionShard struct {
	mu       sync.RWMutex        //mspr:lock-level 20 noblock
	m        map[string]*Session //mspr:guarded-by mu
	ended    map[string]wal.LSN  //mspr:guarded-by mu
	arriving atomic.Int64
	_        [16]byte
}

// sessionTable is the lock-striped session table.
type sessionTable struct {
	shards [numShards]sessionShard
}

// init allocates the shard maps; it runs once, before the table is
// published to any other goroutine.
//
//mspr:guardedby mount-time initialization, single-threaded
func (t *sessionTable) init() {
	for i := range t.shards {
		t.shards[i].m = make(map[string]*Session)
		t.shards[i].ended = make(map[string]wal.LSN)
	}
}

// fnv1a is the 32-bit FNV-1a hash of s.
func fnv1a[T string | []byte](s T) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// stripeOf returns the index of the stripe responsible for a session ID.
func stripeOf[T string | []byte](id T) int { return int(fnv1a(id) & (numShards - 1)) }

// shard returns the stripe responsible for the given session ID.
func (t *sessionTable) shard(id string) *sessionShard {
	return &t.shards[stripeOf(id)]
}

// get returns the session with the given ID, or nil.
func (t *sessionTable) get(id string) *Session {
	sh := t.shard(id)
	sh.mu.RLock()
	sess := sh.m[id]
	sh.mu.RUnlock()
	return sess
}

// publish fills the table, empty until recovery ends, with the analysis
// scan's sessions, which the scan routed to their stripes' maps: it swaps
// each map in whole and returns the sessions.
func (t *sessionTable) publish(stripes *[numShards]map[string]*Session) []*Session {
	n := 0
	for _, m := range stripes {
		n += len(m)
	}
	out := make([]*Session, 0, n)
	for i, m := range stripes {
		for _, sess := range m {
			out = append(out, sess)
		}
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.m = m
		sh.mu.Unlock()
	}
	return out
}

// insert adds a session (overwriting any previous entry with the ID).
func (t *sessionTable) insert(sess *Session) {
	sh := t.shard(sess.id)
	sh.mu.Lock()
	sh.m[sess.id] = sess
	sh.mu.Unlock()
}

// delete removes the session with the given ID.
func (t *sessionTable) delete(id string) {
	sh := t.shard(id)
	sh.mu.Lock()
	delete(sh.m, id)
	sh.mu.Unlock()
}

// dropTombstones forgets the sessions whose SessionEnd lies below head
// (the log no longer holds it, so a restart would not know them either),
// in the stripes no first request is arriving at.
func (t *sessionTable) dropTombstones(head wal.LSN) {
	for i := range t.shards {
		sh := &t.shards[i]
		if sh.arriving.Load() > 0 {
			continue
		}
		sh.mu.Lock()
		maps.DeleteFunc(sh.ended, func(_ string, lsn wal.LSN) bool { return lsn < head })
		sh.mu.Unlock()
	}
}

// forEach calls fn for every session, holding one shard's read lock at
// a time. Sessions inserted or deleted concurrently may or may not be
// visited; fn must not call back into the table.
func (t *sessionTable) forEach(fn func(*Session)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, sess := range sh.m {
			fn(sess)
		}
		sh.mu.RUnlock()
	}
}
