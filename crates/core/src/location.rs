//! ORWL locations: the shared resources tasks synchronise on.
//!
//! A location pairs a data buffer with a `LockFifo` controlling access to
//! it.  In the ORWL model every piece of shared state — a matrix block, a
//! halo buffer, a reduction cell — is a location; tasks never share data any
//! other way.

use crate::fifo::LockFifo;
use crate::handle::Handle;
use crate::request::AccessMode;
use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Globally unique identifier of a location (unique within the process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocationId(pub u64);

static NEXT_LOCATION_ID: AtomicU64 = AtomicU64::new(0);

/// A shared resource guarded by an ordered read-write lock.
///
/// `T` is the payload type (for the LK23 benchmark: a block of the matrix or
/// a frontier buffer).  Locations are always handled through `Arc`.
pub struct Location<T> {
    id: LocationId,
    name: String,
    fifo: LockFifo,
    /// The payload has no lock of its own: the FIFO's grant is the lock.
    /// An `OrwlGuard` dereferences it under its grant, [`Location::snapshot`]
    /// behind the FIFO's side door; nothing else does.
    data: UnsafeCell<T>,
}

// SAFETY: a shared `Location` reaches the payload only through an
// `OrwlGuard`, which exists while its handle's request holds the FIFO grant
// (a `Handle`'s pending token is live in its FIFO until `finish_release` /
// `cancel` takes it), or through `snapshot`, which holds the FIFO's mutex
// while no write is granted.  A write is granted alone and reads only with
// reads (`fifo::explore::exhaustive_small_programs` checks it on every
// schedule), so threads either share `&T` (hence `T: Sync`) or one thread at
// a time holds `&mut T` and may move a value out through it (hence
// `T: Send`): the bounds under which `std::sync::RwLock<T>` is `Sync`.  The
// other fields are `Sync` on their own.
unsafe impl<T: Send + Sync> Sync for Location<T> {}

impl<T> Location<T> {
    /// Creates a new location holding `data`.
    pub fn new(name: impl Into<String>, data: T) -> Arc<Self> {
        Arc::new(Location {
            id: LocationId(NEXT_LOCATION_ID.fetch_add(1, Ordering::Relaxed)),
            name: name.into(),
            fifo: LockFifo::new(),
            data: UnsafeCell::new(data),
        })
    }

    /// The unique id of this location.
    pub fn id(&self) -> LocationId {
        self.id
    }

    /// The human-readable name given at creation.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The request FIFO (exposed for instrumentation and tests).
    pub(crate) fn fifo(&self) -> &LockFifo {
        &self.fifo
    }

    /// The payload, for a guard to dereference under its grant.
    pub(crate) fn payload(&self) -> *mut T {
        self.data.get()
    }

    /// Creates a one-shot handle on this location.
    pub fn handle(self: &Arc<Self>, mode: AccessMode) -> Handle<T> {
        Handle::new(Arc::clone(self), mode)
    }

    /// Creates an iterative handle (the ORWL `handle2`): releasing an
    /// acquired access automatically re-posts a request at the FIFO tail, so
    /// iterative computations keep a periodic access schedule.
    pub fn iterative_handle(self: &Arc<Self>, mode: AccessMode) -> Handle<T> {
        Handle::new_iterative(Arc::clone(self), mode)
    }

    /// Reads the data outside of any ORWL ordering (initialisation and
    /// verification only — never use this during an iterative computation).
    /// Waits while a write guard is live; queued requests do not hold it up.
    pub fn snapshot(&self) -> T
    where
        T: Clone,
    {
        self.fifo.outside_order(|| {
            // SAFETY: `outside_order` runs this with no write granted and
            // with the FIFO's mutex held, so no write can be granted before
            // it returns; read guards meanwhile hold `&T` only.
            unsafe { &*self.data.get() }.clone()
        })
    }
}

/// Names the location.  The payload is not printed: reading it takes a grant.
impl<T> fmt::Debug for Location<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Location").field("id", &self.id).field("name", &self.name).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn locations_get_unique_ids_and_keep_names() {
        let a = Location::new("block-0", vec![0u8; 4]);
        let b = Location::new("block-1", vec![0u8; 4]);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.name(), "block-0");
        assert!(a.fifo().is_empty());
    }

    #[test]
    fn snapshot_returns_current_contents() {
        let loc = Location::new("x", 41i32);
        assert_eq!(loc.snapshot(), 41);
    }

    #[test]
    fn snapshot_waits_for_a_live_write_guard_but_not_for_queued_requests() {
        let loc = Location::new("x", 1u32);
        let mut writer = loc.handle(AccessMode::Write);
        let mut queued = loc.handle(AccessMode::Write);
        writer.request().unwrap();
        queued.request().unwrap();
        let mut guard = writer.acquire().unwrap();
        *guard = 2;

        let (tx, rx) = mpsc::channel();
        let side = Arc::clone(&loc);
        let reader = thread::spawn(move || tx.send(side.snapshot()).unwrap());
        while loc.fifo().parked() == 0 {
            thread::yield_now();
        }
        assert!(rx.try_recv().is_err(), "the snapshot is parked behind the write guard");
        *guard = 3;
        drop(guard);
        assert_eq!(rx.recv().unwrap(), 3, "the snapshot returns once the guard drops");
        reader.join().unwrap();

        // `queued`'s write is next in the FIFO but unacquired: no wait.
        let side = Arc::clone(&loc);
        assert_eq!(thread::spawn(move || side.snapshot()).join().unwrap(), 3);
        let mut guard = queued.acquire().unwrap();
        *guard = 4;
        drop(guard);
        assert_eq!(loc.snapshot(), 4);
    }

    #[test]
    fn debug_names_the_location_without_the_payload() {
        let loc = Location::new("halo", 123_456u64);
        let printed = format!("{loc:?}");
        assert!(printed.contains("halo") && !printed.contains("123456"), "{printed}");
    }

    #[test]
    fn handles_can_be_created_in_both_modes() {
        let loc = Location::new("x", 0u64);
        let _r = loc.handle(AccessMode::Read);
        let _w = loc.handle(AccessMode::Write);
        let _i = loc.iterative_handle(AccessMode::Write);
    }
}
