//! The ordered read-write lock FIFO — the heart of the ORWL model.
//!
//! Every location owns one [`LockFifo`].  Threads *post* requests (read or
//! write) into the FIFO ahead of time; the FIFO then grants accesses in
//! strict insertion order:
//!
//! * a **write** request is granted once every earlier request has been
//!   released (exclusive access);
//! * a **read** request is granted once every earlier request is either
//!   released or is itself a read — consecutive readers share the resource.
//!
//! Because the order is fixed at insertion time, iterative computations that
//! re-post their requests on release obtain a periodic, deadlock-free
//! schedule (Clauss & Gustedt, JPDC 2010).

use crate::request::{AccessMode, RequestState, RequestToken};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

#[derive(Debug)]
struct Entry {
    seq: u64,
    mode: AccessMode,
    state: RequestState,
    /// Debug builds remember which thread posted the request, so the cycle
    /// detector can build the wait-for graph (see the `deadlock` module).
    #[cfg(debug_assertions)]
    owner: std::thread::ThreadId,
}

impl Entry {
    fn new(seq: u64, mode: AccessMode) -> Self {
        Entry {
            seq,
            mode,
            state: RequestState::Requested,
            #[cfg(debug_assertions)]
            owner: std::thread::current().id(),
        }
    }
}

/// Debug-mode circular-wait detection.
///
/// A schedule deadlock in ORWL is a cycle across *several* FIFOs: thread A
/// parks behind an entry B posted, while B parks (in another location's
/// FIFO) behind an entry A posted.  The classic way to create one is the
/// lazily-posted iterative-handle pattern — posting requests mid-run
/// instead of during a fenced initialisation phase, so a reader lands one
/// write behind its partner on every edge of a partner cycle.
///
/// In debug builds every blocking [`LockFifo::acquire`] registers the
/// waiting thread and the owners of the entries blocking it in a global
/// wait-for graph before parking; if that registration closes a cycle, the
/// acquiring thread panics with the cycle instead of deadlocking.  An
/// entry queued by a parked thread can only be released by that thread, so
/// a cycle in this graph is a genuine deadlock, never a false positive.
/// Release builds compile all of this out.
#[cfg(debug_assertions)]
mod deadlock {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::thread::ThreadId;

    struct Waiter {
        name: String,
        blockers: Vec<ThreadId>,
    }

    fn graph() -> &'static Mutex<HashMap<ThreadId, Waiter>> {
        static GRAPH: OnceLock<Mutex<HashMap<ThreadId, Waiter>>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Registers the current thread as blocked on `blockers` and panics
    /// with the cycle when this closes one.
    pub(super) fn register_waiting(blockers: Vec<ThreadId>) {
        let me = std::thread::current().id();
        let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
        g.insert(me, Waiter { name: thread_label(), blockers });
        let mut path = Vec::new();
        if dfs(&g, me, me, &mut path) {
            let names: Vec<String> = path
                .iter()
                .map(|id| g.get(id).map_or_else(|| format!("{id:?}"), |w| w.name.clone()))
                .collect();
            g.remove(&me);
            drop(g);
            panic!(
                "ORWL deadlock detected: circular wait among parked handles [{}] — \
                 post iterative requests in a fenced initialisation phase instead of lazily mid-run",
                names.join(" -> ")
            );
        }
    }

    /// Depth-first search along blocker edges; on success `path` holds the
    /// cycle starting at `start`.
    fn dfs(
        g: &HashMap<ThreadId, Waiter>,
        start: ThreadId,
        current: ThreadId,
        path: &mut Vec<ThreadId>,
    ) -> bool {
        let Some(waiter) = g.get(&current) else { return false };
        path.push(current);
        for &next in &waiter.blockers {
            if next == start {
                return true;
            }
            if !path.contains(&next) && dfs(g, start, next, path) {
                return true;
            }
        }
        path.pop();
        false
    }

    /// Removes the current thread from the wait-for graph (on grant or on
    /// leaving `acquire` for any reason).
    pub(super) fn unregister_waiting() {
        unregister_thread(std::thread::current().id());
    }

    /// Removes a specific thread's registration — called by a releasing
    /// thread for every thread parked on the released FIFO, whose wait-for
    /// evidence just went stale.
    pub(super) fn unregister_thread(id: ThreadId) {
        graph().lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
    }

    fn thread_label() -> String {
        let t = std::thread::current();
        t.name().map_or_else(|| format!("{:?}", t.id()), str::to_string)
    }
}

#[derive(Debug, Default)]
struct FifoInner {
    queue: VecDeque<Entry>,
    next_seq: u64,
    /// Threads currently parked in [`LockFifo::acquire`] (debug builds):
    /// a release invalidates their wait-for registrations, because what
    /// they are blocked on just changed (they re-register on wake if still
    /// blocked).  Without this, a notified-but-not-yet-scheduled thread's
    /// stale registration could close a cycle that no longer exists.
    #[cfg(debug_assertions)]
    parked: Vec<std::thread::ThreadId>,
}

impl FifoInner {
    fn position(&self, seq: u64) -> Option<usize> {
        self.queue.iter().position(|e| e.seq == seq)
    }

    /// A request is grantable when every entry ahead of it is released, or —
    /// for read requests — when everything ahead is released or is a read.
    fn grantable(&self, idx: usize) -> bool {
        let mode = self.queue[idx].mode;
        self.queue.iter().take(idx).all(|e| match mode {
            AccessMode::Write => e.state == RequestState::Released,
            AccessMode::Read => e.state == RequestState::Released || e.mode == AccessMode::Read,
        })
    }

    fn pop_released_prefix(&mut self) {
        while self.queue.front().map(|e| e.state) == Some(RequestState::Released) {
            self.queue.pop_front();
        }
    }
}

/// A FIFO of ordered read-write lock requests (one per location).
#[derive(Debug, Default)]
pub(crate) struct LockFifo {
    inner: Mutex<FifoInner>,
    cond: Condvar,
}

impl LockFifo {
    /// Creates an empty FIFO.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Posts a new request at the tail of the FIFO and returns its token.
    /// The request starts in the [`RequestState::Requested`] state.
    pub(crate) fn insert(&self, mode: AccessMode) -> RequestToken {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push_back(Entry::new(seq, mode));
        RequestToken::new(seq, mode)
    }

    /// Non-blocking acquisition attempt: returns `true` (and marks the
    /// request allocated) when the request is grantable now.
    /// Idempotent for already-allocated requests.  The probe the grant-order
    /// tests look at the queue with; the runtime only ever blocks.
    #[cfg(test)]
    pub(crate) fn try_acquire(&self, token: &RequestToken) -> bool {
        let mut inner = self.inner.lock();
        let Some(idx) = inner.position(token.seq()) else { return false };
        match inner.queue[idx].state {
            RequestState::Allocated => true,
            RequestState::Released => false,
            RequestState::Requested => {
                if inner.grantable(idx) {
                    inner.queue[idx].state = RequestState::Allocated;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Blocks the calling thread until the request is granted.
    ///
    /// In debug builds, a blocking acquire that would close a circular wait
    /// among parked handles panics with the cycle instead of deadlocking
    /// (see the `deadlock` module).
    pub(crate) fn acquire(&self, token: &RequestToken) {
        let mut inner = self.inner.lock();
        #[cfg(debug_assertions)]
        let mut registered = false;
        #[cfg(debug_assertions)]
        macro_rules! leave {
            ($inner:expr) => {
                if registered {
                    let me = std::thread::current().id();
                    $inner.parked.retain(|&t| t != me);
                    deadlock::unregister_waiting();
                }
            };
        }
        #[cfg(not(debug_assertions))]
        macro_rules! leave {
            ($inner:expr) => {};
        }
        loop {
            let Some(idx) = inner.position(token.seq()) else {
                // Unknown/expired token: treat as granted so callers do not
                // deadlock on a programming error; release will be a no-op.
                leave!(inner);
                return;
            };
            if inner.queue[idx].state == RequestState::Allocated {
                leave!(inner);
                return;
            }
            if inner.queue[idx].state == RequestState::Requested && inner.grantable(idx) {
                inner.queue[idx].state = RequestState::Allocated;
                leave!(inner);
                return;
            }
            // About to park: publish who we are waiting on, and panic with
            // the cycle if that closes a circular wait (debug builds only).
            #[cfg(debug_assertions)]
            {
                let mode = inner.queue[idx].mode;
                let blockers: Vec<_> = inner
                    .queue
                    .iter()
                    .take(idx)
                    .filter(|e| match mode {
                        AccessMode::Write => e.state != RequestState::Released,
                        AccessMode::Read => e.state != RequestState::Released && e.mode != AccessMode::Read,
                    })
                    .map(|e| e.owner)
                    .collect();
                if !registered {
                    inner.parked.push(std::thread::current().id());
                    registered = true;
                }
                deadlock::register_waiting(blockers);
            }
            self.cond.wait(&mut inner);
        }
    }

    /// Releases a request (whether it was acquired or still pending), wakes
    /// every waiter, and garbage-collects the released prefix of the queue.
    pub(crate) fn release(&self, token: &RequestToken) {
        let mut inner = self.inner.lock();
        if let Some(idx) = inner.position(token.seq()) {
            inner.queue[idx].state = RequestState::Released;
            inner.pop_released_prefix();
            // What this FIFO's parked threads are blocked on just changed:
            // their wait-for registrations are stale until they wake and
            // re-evaluate (debug-mode cycle detector).
            #[cfg(debug_assertions)]
            for &t in &inner.parked {
                deadlock::unregister_thread(t);
            }
        }
        drop(inner);
        self.cond.notify_all();
    }

    /// Atomically releases `token` and posts a fresh request of the same
    /// mode at the tail of the FIFO, returning the new token.
    ///
    /// Iterative (ORWL `handle2`) accesses must use this instead of a
    /// separate `release` + `insert`: if the two steps were distinct, another
    /// handle could slip its own re-posted request in between and invert the
    /// periodic schedule (e.g. a reader overtaking the writer it alternates
    /// with), breaking the deterministic ordering the model guarantees.
    pub(crate) fn release_and_reinsert(&self, token: &RequestToken) -> RequestToken {
        let mut inner = self.inner.lock();
        if let Some(idx) = inner.position(token.seq()) {
            inner.queue[idx].state = RequestState::Released;
            inner.pop_released_prefix();
            // See `release`: invalidate stale wait-for registrations.
            #[cfg(debug_assertions)]
            for &t in &inner.parked {
                deadlock::unregister_thread(t);
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push_back(Entry::new(seq, token.mode()));
        drop(inner);
        self.cond.notify_all();
        RequestToken::new(seq, token.mode())
    }

    /// Current state of a request, `None` when the token has already left
    /// the queue.
    #[cfg(test)]
    pub(crate) fn state_of(&self, token: &RequestToken) -> Option<RequestState> {
        let inner = self.inner.lock();
        inner.position(token.seq()).map(|i| inner.queue[i].state)
    }

    /// Number of requests currently in the queue (any state).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True when no request is queued.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_writer_is_granted_immediately() {
        let fifo = LockFifo::new();
        let t = fifo.insert(AccessMode::Write);
        assert_eq!(fifo.state_of(&t), Some(RequestState::Requested));
        assert!(fifo.try_acquire(&t));
        assert_eq!(fifo.state_of(&t), Some(RequestState::Allocated));
        // try_acquire is idempotent once granted.
        assert!(fifo.try_acquire(&t));
        fifo.release(&t);
        assert!(fifo.is_empty());
    }

    #[test]
    fn writers_are_granted_in_fifo_order() {
        let fifo = LockFifo::new();
        let w1 = fifo.insert(AccessMode::Write);
        let w2 = fifo.insert(AccessMode::Write);
        assert!(fifo.try_acquire(&w1));
        assert!(!fifo.try_acquire(&w2), "second writer must wait for the first");
        fifo.release(&w1);
        assert!(fifo.try_acquire(&w2));
        fifo.release(&w2);
        assert_eq!(fifo.len(), 0);
    }

    #[test]
    fn consecutive_readers_share_access() {
        let fifo = LockFifo::new();
        let r1 = fifo.insert(AccessMode::Read);
        let r2 = fifo.insert(AccessMode::Read);
        let w = fifo.insert(AccessMode::Write);
        assert!(fifo.try_acquire(&r1));
        assert!(fifo.try_acquire(&r2), "adjacent readers are granted together");
        assert!(!fifo.try_acquire(&w), "writer waits for all readers");
        fifo.release(&r1);
        assert!(!fifo.try_acquire(&w));
        fifo.release(&r2);
        assert!(fifo.try_acquire(&w));
        fifo.release(&w);
    }

    #[test]
    fn reader_after_writer_waits() {
        let fifo = LockFifo::new();
        let w = fifo.insert(AccessMode::Write);
        let r = fifo.insert(AccessMode::Read);
        assert!(fifo.try_acquire(&w));
        assert!(!fifo.try_acquire(&r), "reader must wait for the earlier writer");
        fifo.release(&w);
        assert!(fifo.try_acquire(&r));
        fifo.release(&r);
    }

    #[test]
    fn later_reader_can_be_granted_before_earlier_reader_acquires() {
        // FIFO order fixes *priority*, but adjacent readers may be granted in
        // any order among themselves.
        let fifo = LockFifo::new();
        let _r1 = fifo.insert(AccessMode::Read);
        let r2 = fifo.insert(AccessMode::Read);
        assert!(fifo.try_acquire(&r2));
    }

    #[test]
    fn release_of_pending_request_cancels_it() {
        let fifo = LockFifo::new();
        let w1 = fifo.insert(AccessMode::Write);
        let w2 = fifo.insert(AccessMode::Write);
        // Cancel w1 before it was ever acquired: w2 becomes grantable.
        fifo.release(&w1);
        assert!(fifo.try_acquire(&w2));
        fifo.release(&w2);
        assert!(fifo.is_empty());
    }

    #[test]
    fn blocking_acquire_wakes_up_across_threads() {
        let fifo = Arc::new(LockFifo::new());
        let w1 = fifo.insert(AccessMode::Write);
        let w2 = fifo.insert(AccessMode::Write);
        assert!(fifo.try_acquire(&w1));
        let f2 = Arc::clone(&fifo);
        let handle = std::thread::spawn(move || {
            f2.acquire(&w2); // blocks until w1 released
            f2.release(&w2);
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        fifo.release(&w1);
        assert!(handle.join().unwrap());
        assert!(fifo.is_empty());
    }

    #[test]
    fn fifo_order_is_respected_under_contention() {
        // N threads each post a write request in a known order; the order in
        // which they enter the critical section must match.
        let fifo = Arc::new(LockFifo::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        let tokens: Vec<RequestToken> = (0..8).map(|_| fifo.insert(AccessMode::Write)).collect();
        let mut joins = Vec::new();
        for (i, tok) in tokens.into_iter().enumerate() {
            let fifo = Arc::clone(&fifo);
            let order = Arc::clone(&order);
            joins.push(std::thread::spawn(move || {
                fifo.acquire(&tok);
                order.lock().push(i);
                fifo.release(&tok);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_token_is_harmless() {
        let fifo = LockFifo::new();
        let t = fifo.insert(AccessMode::Write);
        fifo.release(&t);
        // The token has left the queue: state is None, re-release is a no-op,
        // blocking acquire returns immediately, try_acquire refuses.
        assert_eq!(fifo.state_of(&t), None);
        fifo.release(&t);
        fifo.acquire(&t);
        assert!(!fifo.try_acquire(&t));
    }
}
