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
//!
//! Two layers.  [`FifoCore`] is the queue as plain data and makes every
//! grant decision; a release returns its *wake set*, the parked requests the
//! release made grantable, already granted.  [`LockFifo`] keeps the core
//! under one mutex, parks a blocked thread on its own entry, and unparks
//! exactly the wake set after dropping the mutex.  The `explore` tests check
//! the core over every schedule of small scripted programs; the exclusivity
//! they check is what lets a location hand out its payload under the grant
//! with no lock of its own (`location.rs`).
//!
//! A parked entry also records its thread's *home*, the one PU the runtime
//! bound the thread to ([`read_home`]).  Every grant is decided before any
//! unpark, so the home changes nothing but the order of the `unpark` calls
//! ([`wake_order`]): a releaser wakes the waiters on other PUs first and
//! the ones on its own PU last, so a same-PU wakee cannot preempt the
//! releaser before the other PU has its work.  Once a packed run (`pack`)
//! has moved its task threads, they share one home, so its releases
//! unpark in plain queue order; the two passes serve every spread plan.

use crate::request::{AccessMode, RequestState, RequestToken};
use orwl_topo::binding::Binder;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

#[cfg(test)]
mod explore;

#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
struct Entry<W> {
    seq: u64,
    mode: AccessMode,
    state: RequestState,
    /// Who is parked on this request, until a release grants it.
    waiter: Option<W>,
    /// Debug builds remember which thread posted the request, so the cycle
    /// detector can build the wait-for graph (see the `deadlock` module).
    #[cfg(debug_assertions)]
    owner: std::thread::ThreadId,
}

impl<W> Entry<W> {
    fn new(seq: u64, mode: AccessMode) -> Self {
        Entry {
            seq,
            mode,
            state: RequestState::Requested,
            waiter: None,
            #[cfg(debug_assertions)]
            owner: std::thread::current().id(),
        }
    }
}

/// The request queue of one location, as plain data.
///
/// `W` names a parked waiter: its thread in a [`LockFifo`], a task index
/// in the schedule explorer.  Between two transitions no parked request is
/// grantable: the transition that makes one grantable grants it and hands
/// its waiter back.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
struct FifoCore<W> {
    queue: VecDeque<Entry<W>>,
    next_seq: u64,
}

impl<W> FifoCore<W> {
    fn new() -> Self {
        FifoCore { queue: VecDeque::new(), next_seq: 0 }
    }

    /// Posts a request at the tail.  Nothing ahead of it changes, so an
    /// insert never makes a parked request grantable.
    fn insert(&mut self, mode: AccessMode) -> RequestToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(Entry::new(seq, mode));
        RequestToken::new(seq, mode)
    }

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

    /// Grants `seq` if it is grantable now.  `None` for a token that has
    /// left the queue, otherwise whether the request holds the grant.
    fn try_grant(&mut self, seq: u64) -> Option<bool> {
        let idx = self.position(seq)?;
        let entry = &self.queue[idx];
        if entry.state == RequestState::Requested && self.grantable(idx) {
            self.queue[idx].state = RequestState::Allocated;
        }
        Some(self.queue[idx].state == RequestState::Allocated)
    }

    /// Parks `waiter` on `seq`, a request [`FifoCore::try_grant`] refused.
    fn park(&mut self, seq: u64, waiter: W) {
        if let Some(idx) = self.position(seq) {
            self.queue[idx].waiter = Some(waiter);
        }
    }

    /// True while `seq` is queued and not yet granted.
    fn is_waiting(&self, seq: u64) -> bool {
        self.position(seq).is_some_and(|idx| self.queue[idx].state == RequestState::Requested)
    }

    /// True while a write request holds the grant.
    fn write_granted(&self) -> bool {
        self.queue.iter().any(|e| e.mode == AccessMode::Write && e.state == RequestState::Allocated)
    }

    /// Releases `seq` (acquired or still pending), garbage-collects the
    /// released prefix, and returns the wake set.
    fn release(&mut self, seq: u64) -> Vec<W> {
        let Some(idx) = self.position(seq) else { return Vec::new() };
        self.queue[idx].state = RequestState::Released;
        while self.queue.front().is_some_and(|e| e.state == RequestState::Released) {
            self.queue.pop_front();
        }
        self.grant_parked()
    }

    /// Releases `token` and posts a fresh request of the same mode at the
    /// tail in one step; returns the new token and the release's wake set.
    fn release_and_reinsert(&mut self, token: &RequestToken) -> (RequestToken, Vec<W>) {
        let wake = self.release(token.seq());
        (self.insert(token.mode()), wake)
    }

    /// Grants every parked request the queue allows and returns their
    /// waiters in queue order: a writer release wakes the leading reader
    /// group, a reader release wakes nobody until the last reader's wakes
    /// the writer behind it.
    fn grant_parked(&mut self) -> Vec<W> {
        let mut wake = Vec::new();
        for idx in 0..self.queue.len() {
            // A grant ahead leaves this entry's grantability as it was:
            // only the modes and the released entries ahead count.
            if self.queue[idx].waiter.is_some() && self.grantable(idx) {
                let entry = &mut self.queue[idx];
                entry.state = RequestState::Allocated;
                wake.extend(entry.waiter.take());
            }
        }
        wake
    }

    /// Owners of the entries that keep the request `seq` waiting.
    #[cfg(debug_assertions)]
    fn blockers(&self, seq: u64) -> Vec<std::thread::ThreadId> {
        let Some(idx) = self.position(seq) else { return Vec::new() };
        let mode = self.queue[idx].mode;
        self.queue
            .iter()
            .take(idx)
            .filter(|e| {
                e.state != RequestState::Released
                    && (mode == AccessMode::Write || e.mode == AccessMode::Write)
            })
            .map(|e| e.owner)
            .collect()
    }
}

#[cfg(debug_assertions)]
impl FifoCore<Parked> {
    /// Every parked thread with the owners now blocking it.
    fn parked_blockers(&self) -> Vec<(std::thread::ThreadId, Vec<std::thread::ThreadId>)> {
        self.queue
            .iter()
            .filter_map(|e| Some((e.waiter.as_ref()?.thread.id(), self.blockers(e.seq))))
            .collect()
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
/// acquiring thread panics with the cycle instead of deadlocking.  Every
/// transition of a FIFO then keeps the graph exact for the threads parked
/// on it: the threads it woke leave the graph, and the others' blocker
/// sets are *replaced* by recomputed ones — a thread that no release wakes
/// must stay in the graph, or a cycle through it would hang instead of
/// panicking.  An entry queued by a parked thread can only be released by
/// that thread, so a cycle in this graph is a genuine deadlock, never a
/// false positive.  Release builds compile all of this out.
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

    /// After a transition of one FIFO: `woken` leave the graph, and every
    /// thread still `parked` on it gets its recomputed blocker set.  A
    /// release only shrinks blocker sets, so no replacement closes a cycle.
    pub(super) fn refresh(woken: Vec<ThreadId>, parked: Vec<(ThreadId, Vec<ThreadId>)>) {
        if woken.is_empty() && parked.is_empty() {
            return;
        }
        let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
        for id in woken {
            g.remove(&id);
        }
        for (id, blockers) in parked {
            if let Some(waiter) = g.get_mut(&id) {
                waiter.blockers = blockers;
            }
        }
    }

    thread_local! {
        /// The task the calling thread runs, as [`TaskLabel`] set it.
        pub(super) static TASK: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
    }

    /// The calling thread's task label, else its name, else its id.
    fn thread_label() -> String {
        TASK.with_borrow(Clone::clone).unwrap_or_else(|| {
            let t = std::thread::current();
            t.name().map_or_else(|| format!("{:?}", t.id()), str::to_string)
        })
    }
}

/// Names the calling thread's task in a debug cycle report while it lives:
/// a pooled thread's own name says nothing of the task it runs.
pub(crate) struct TaskLabel {
    _priv: (),
}

impl TaskLabel {
    /// Labels the calling thread `orwl-task-{task}` (debug builds only).
    pub(crate) fn enter(task: &str) -> TaskLabel {
        #[cfg(debug_assertions)]
        deadlock::TASK.set(Some(format!("orwl-task-{task}")));
        #[cfg(not(debug_assertions))]
        let _ = task;
        TaskLabel { _priv: () }
    }
}

impl Drop for TaskLabel {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        deadlock::TASK.set(None);
    }
}

thread_local! {
    /// The one PU the calling thread is bound to, as [`read_home`] last
    /// read it; `None` on a thread the runtime did not bind to one PU.
    static HOME: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Reads the calling thread's home back from `binder`, right after the
/// runtime bound the thread: the one PU of its affinity, or `None` when
/// the binder reports no affinity (`RecordingBinder`, `NoopBinder`) or one
/// of more than one PU.
pub(crate) fn read_home(binder: &dyn Binder) {
    HOME.set(binder.current_affinity().filter(|pus| pus.weight() == 1).and_then(|pus| pus.first()));
}

/// The calling thread's home (see [`read_home`]).
pub(crate) fn home() -> Option<usize> {
    HOME.get()
}

/// Clears the calling thread's home, as a pooled thread's job ends.
pub(crate) fn leave_home() {
    HOME.set(None);
}

/// The order a release unparks its wake set in, as indices into the
/// waiters' `homes` (queue order): first every waiter not known to share
/// the releaser's home, then the waiters on the releaser's PU, each pass in
/// queue order.  A releaser with no home keeps queue order.
fn wake_order(
    releaser: Option<usize>,
    homes: impl Iterator<Item = Option<usize>> + Clone,
) -> impl Iterator<Item = usize> {
    let pass = move |on_releasers_pu: bool| {
        homes
            .clone()
            .enumerate()
            .filter(move |&(_, home)| (releaser.is_some() && home == releaser) == on_releasers_pu)
            .map(|(i, _)| i)
    };
    pass(false).chain(pass(true))
}

/// A binder for tests that records each thread's binding and reports it
/// back as the thread's affinity, without calling the OS: homes get set on
/// any host.  A thread it never bound reports [`UNBOUND`](reporting::UNBOUND)
/// PUs, as an unbound OS thread reports every PU of its host.
#[cfg(test)]
pub(crate) mod reporting {
    use orwl_topo::binding::{BindError, Binder};
    use orwl_topo::bitmap::CpuSet;
    use std::cell::RefCell;

    /// The PUs a thread the binder never bound reports.
    pub(crate) const UNBOUND: std::ops::Range<usize> = 0..64;

    thread_local! {
        static BOUND: RefCell<Option<CpuSet>> = const { RefCell::new(None) };
    }

    pub(crate) struct ReportingBinder;

    impl Binder for ReportingBinder {
        fn bind_current_thread(&self, cpuset: &CpuSet) -> Result<(), BindError> {
            BOUND.set(Some(cpuset.clone()));
            Ok(())
        }

        fn current_affinity(&self) -> Option<CpuSet> {
            Some(BOUND.with_borrow(Clone::clone).unwrap_or_else(|| CpuSet::from_indices(UNBOUND)))
        }

        fn name(&self) -> &'static str {
            "reporting"
        }
    }
}

/// A thread parked on a request, with its home when it parked.
struct Parked {
    thread: Thread,
    home: Option<usize>,
}

/// What the mutex of a [`LockFifo`] guards.
struct Shared {
    core: FifoCore<Parked>,
    /// Threads at the side door ([`LockFifo::outside_order`]), waiting for
    /// a write grant to end.
    side: Vec<Thread>,
}

/// A FIFO of ordered read-write lock requests (one per location).
pub(crate) struct LockFifo {
    shared: Mutex<Shared>,
}

impl LockFifo {
    /// Creates an empty FIFO.
    pub(crate) fn new() -> Self {
        LockFifo { shared: Mutex::new(Shared { core: FifoCore::new(), side: Vec::new() }) }
    }

    /// The FIFO's state.  What may panic under the mutex — the detector's
    /// report, a payload's `Clone` at the side door — runs before or
    /// without any change to the core, so a poisoned lock is taken over.
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts a new request at the tail of the FIFO and returns its token.
    /// The request starts in the [`RequestState::Requested`] state.
    pub(crate) fn insert(&self, mode: AccessMode) -> RequestToken {
        self.lock().core.insert(mode)
    }

    /// Non-blocking acquisition attempt: returns `true` (and marks the
    /// request allocated) when the request is grantable now.
    /// Idempotent for already-allocated requests.  The probe the grant-order
    /// tests look at the queue with; the runtime only ever blocks.
    #[cfg(test)]
    pub(crate) fn try_acquire(&self, token: &RequestToken) -> bool {
        self.lock().core.try_grant(token.seq()) == Some(true)
    }

    /// Blocks the calling thread until the request is granted and returns
    /// `true`; returns `false` at once for a token that has left the queue.
    ///
    /// In debug builds, a blocking acquire that would close a circular wait
    /// among parked handles panics with the cycle instead of deadlocking
    /// (see the `deadlock` module).
    pub(crate) fn acquire(&self, token: &RequestToken) -> bool {
        let seq = token.seq();
        let mut shared = self.lock();
        match shared.core.try_grant(seq) {
            Some(false) => {}
            granted => return granted.is_some(),
        }
        #[cfg(debug_assertions)]
        deadlock::register_waiting(shared.core.blockers(seq));
        shared.core.park(seq, Parked { thread: std::thread::current(), home: home() });
        drop(shared);
        // The grant arrives with the unpark; any other return of `park` is
        // spurious (or a stale unpark) and parks again.
        loop {
            std::thread::park();
            if !self.lock().core.is_waiting(seq) {
                return true;
            }
        }
    }

    /// Releases a request (whether it was acquired or still pending),
    /// garbage-collects the released prefix of the queue and wakes the
    /// requests that became grantable.
    pub(crate) fn release(&self, token: &RequestToken) {
        let mut shared = self.lock();
        let wake = shared.core.release(token.seq());
        Self::unpark(shared, wake);
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
        let mut shared = self.lock();
        let (next, wake) = shared.core.release_and_reinsert(token);
        Self::unpark(shared, wake);
        next
    }

    /// Ends a release: keeps the detector's graph exact, takes the side
    /// door's threads once no write holds the grant, and unparks them all
    /// after dropping the mutex.  Every grant is already decided; only the
    /// order of the unparks is left: the wake set in [`wake_order`] from
    /// the releaser's home, the side door's threads last.
    fn unpark(mut shared: MutexGuard<'_, Shared>, wake: Vec<Parked>) {
        #[cfg(debug_assertions)]
        deadlock::refresh(wake.iter().map(|p| p.thread.id()).collect(), shared.core.parked_blockers());
        let side = if !shared.side.is_empty() && !shared.core.write_granted() {
            std::mem::take(&mut shared.side)
        } else {
            Vec::new()
        };
        drop(shared);
        for i in wake_order(home(), wake.iter().map(|p| p.home)) {
            wake[i].thread.unpark();
        }
        for thread in side {
            thread.unpark();
        }
    }

    /// The side door: runs `read` once no write holds the grant, whatever
    /// is queued, and keeps every grant back until it returns.
    pub(crate) fn outside_order<R>(&self, read: impl FnOnce() -> R) -> R {
        let mut shared = self.lock();
        while shared.core.write_granted() {
            shared.side.push(std::thread::current());
            drop(shared);
            std::thread::park();
            shared = self.lock();
        }
        let value = read();
        drop(shared);
        value
    }

    /// Current state of a request, `None` when the token has already left
    /// the queue.
    #[cfg(test)]
    pub(crate) fn state_of(&self, token: &RequestToken) -> Option<RequestState> {
        let shared = self.lock();
        shared.core.position(token.seq()).map(|i| shared.core.queue[i].state)
    }

    /// Number of requests currently in the queue (any state).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().core.queue.len()
    }

    /// True when no request is queued.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Threads parked on a request, plus those at the side door.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        let shared = self.lock();
        shared.core.queue.iter().filter(|e| e.waiter.is_some()).count() + shared.side.len()
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
                order.lock().unwrap().push(i);
                fifo.release(&tok);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
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

    #[test]
    fn a_release_wakes_the_other_pus_first_then_its_own_in_queue_order() {
        let order = |releaser, homes: &[Option<usize>]| -> Vec<usize> {
            wake_order(releaser, homes.iter().copied()).collect()
        };
        let homes = [Some(0), Some(1), None, Some(0), Some(1)];
        assert_eq!(order(Some(0), &homes), [1, 2, 4, 0, 3]);
        assert_eq!(order(Some(1), &homes), [0, 2, 3, 1, 4]);
        // No home, or nobody elsewhere: queue order.
        assert_eq!(order(None, &homes), [0, 1, 2, 3, 4]);
        assert_eq!(order(Some(0), &[Some(0); 4]), [0, 1, 2, 3]);
        assert_eq!(order(Some(0), &[None; 3]), [0, 1, 2]);
        assert_eq!(order(Some(0), &[]), [] as [usize; 0]);
    }

    #[test]
    fn a_release_unparks_only_the_requests_it_made_grantable() {
        // One writer ahead of three parked readers and a parked writer.
        let fifo = Arc::new(LockFifo::new());
        let w1 = fifo.insert(AccessMode::Write);
        assert!(fifo.try_acquire(&w1));
        let readers: Vec<_> = (0..3).map(|_| fifo.insert(AccessMode::Read)).collect();
        let w2 = fifo.insert(AccessMode::Write);
        let (granted_tx, granted) = std::sync::mpsc::channel();
        let (released_tx, released) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        std::thread::scope(|s| {
            for token in readers.iter().chain([&w2]) {
                let (fifo, release_rx) = (&fifo, &release_rx);
                let (granted_tx, released_tx) = (granted_tx.clone(), released_tx.clone());
                s.spawn(move || {
                    assert!(fifo.acquire(token));
                    granted_tx.send(token.mode()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                    fifo.release(token);
                    released_tx.send(()).unwrap();
                });
            }
            while fifo.parked() < 4 {
                std::thread::yield_now();
            }
            // The writer's release grants the whole reader group, not w2.
            fifo.release(&w1);
            let group: Vec<_> = (0..3).map(|_| granted.recv().unwrap()).collect();
            assert_eq!(group, [AccessMode::Read; 3]);
            assert_eq!(fifo.parked(), 1, "w2 stays parked behind the readers");
            // Two reader releases wake nobody; the last one wakes w2.
            for _ in 0..2 {
                release_tx.send(()).unwrap();
                released.recv().unwrap();
            }
            assert_eq!((fifo.state_of(&w2), fifo.parked()), (Some(RequestState::Requested), 1));
            assert!(granted.try_recv().is_err());
            release_tx.send(()).unwrap();
            assert_eq!(granted.recv().unwrap(), AccessMode::Write);
            release_tx.send(()).unwrap();
        });
        assert!(fifo.is_empty());
    }

    /// The detector stays exact when a release wakes nobody: C parks
    /// behind A's write and B's unacquired read on X; B cancels, which
    /// grants nothing; A then parks on Y behind C's held write.  Were C's
    /// registration cleared by the cancel instead of replaced, A and C
    /// would hang; the join guard turns that hang into a failure.
    #[cfg(debug_assertions)]
    #[test]
    fn a_cycle_through_a_thread_no_release_woke_still_panics() {
        use std::sync::mpsc::channel;
        use std::time::{Duration, Instant};
        let (x, y) = (Arc::new(LockFifo::new()), Arc::new(LockFifo::new()));

        // A holds W1 on X, then on its cue parks on Y.
        let (a_holds, a_held) = channel();
        let (go_a, a_go) = channel::<()>();
        let (xa, ya) = (Arc::clone(&x), Arc::clone(&y));
        let a = std::thread::Builder::new()
            .name("task-a".into())
            .spawn(move || {
                let w1 = xa.insert(AccessMode::Write);
                assert!(xa.acquire(&w1));
                a_holds.send(w1).unwrap();
                a_go.recv().unwrap();
                let wa = ya.insert(AccessMode::Write);
                ya.acquire(&wa);
            })
            .unwrap();
        let w1 = a_held.recv().unwrap();

        // B posts a read on X behind W1 and cancels it on its cue.
        let (b_posted, b_post) = channel();
        let (go_b, b_go) = channel::<()>();
        let xb = Arc::clone(&x);
        let b = std::thread::spawn(move || {
            let r = xb.insert(AccessMode::Read);
            b_posted.send(()).unwrap();
            b_go.recv().unwrap();
            xb.release(&r);
        });
        b_post.recv().unwrap();

        // C holds its write on Y, then parks on W2 behind W1 and B's read.
        let (xc, yc) = (Arc::clone(&x), Arc::clone(&y));
        let c = std::thread::Builder::new()
            .name("task-c".into())
            .spawn(move || {
                let wc = yc.insert(AccessMode::Write);
                assert!(yc.acquire(&wc));
                let w2 = xc.insert(AccessMode::Write);
                assert!(xc.acquire(&w2));
                xc.release(&w2);
                yc.release(&wc);
            })
            .unwrap();
        while x.parked() == 0 {
            std::thread::yield_now();
        }

        go_b.send(()).unwrap();
        b.join().unwrap();
        go_a.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !a.is_finished() {
            assert!(Instant::now() < deadline, "A parked in a cycle with C instead of panicking");
            std::thread::sleep(Duration::from_millis(1));
        }
        let panic = a.join().expect_err("A closes the cycle A -> C -> A");
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("ORWL deadlock detected"), "{message}");
        assert!(message.contains("task-a") && message.contains("task-c"), "{message}");

        // A never releases W1: do it for A, and C runs to completion.
        x.release(&w1);
        c.join().unwrap();
        assert!(x.is_empty() && y.len() == 1, "only A's unacquired Y request is left");
    }
}
