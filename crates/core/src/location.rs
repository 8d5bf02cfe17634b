//! ORWL locations: the shared resources tasks synchronise on.
//!
//! A location pairs a data buffer with a `LockFifo` controlling access to
//! it.  In the ORWL model every piece of shared state — a matrix block, a
//! halo buffer, a reduction cell — is a location; tasks never share data any
//! other way.

use crate::fifo::LockFifo;
use crate::handle::Handle;
use crate::request::AccessMode;
use parking_lot::RwLock;
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
#[derive(Debug)]
pub struct Location<T> {
    id: LocationId,
    name: String,
    fifo: LockFifo,
    data: Arc<RwLock<T>>,
}

impl<T> Location<T> {
    /// Creates a new location holding `data`.
    pub fn new(name: impl Into<String>, data: T) -> Arc<Self> {
        Arc::new(Location {
            id: LocationId(NEXT_LOCATION_ID.fetch_add(1, Ordering::Relaxed)),
            name: name.into(),
            fifo: LockFifo::new(),
            data: Arc::new(RwLock::new(data)),
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

    /// The underlying storage; used by guards.
    pub(crate) fn data(&self) -> &Arc<RwLock<T>> {
        &self.data
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
    pub fn snapshot(&self) -> T
    where
        T: Clone,
    {
        self.data.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn handles_can_be_created_in_both_modes() {
        let loc = Location::new("x", 0u64);
        let _r = loc.handle(AccessMode::Read);
        let _w = loc.handle(AccessMode::Write);
        let _i = loc.iterative_handle(AccessMode::Write);
    }
}
