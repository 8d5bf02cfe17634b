//! Handles and guards: how a task accesses a location.
//!
//! A [`Handle`] binds one task to one location with a fixed access mode,
//! mirroring `orwl_handle` in the reference C library.  The protocol is
//!
//! 1. [`Handle::request`] — post a request in the location's FIFO (this is
//!    what fixes the global ordering; in iterative programs all tasks post
//!    their initial requests during a deterministic initialisation phase);
//! 2. [`Handle::acquire`] — block until the request is granted; returns an
//!    RAII [`OrwlGuard`] giving access to the data;
//! 3. drop the guard — releases the lock.  For *iterative* handles
//!    (`orwl_handle2` in the C library) a new request is automatically
//!    re-posted at the tail of the FIFO, which yields the periodic schedule
//!    iterative ORWL applications rely on.

use crate::error::OrwlError;
use crate::location::Location;
use crate::request::{AccessMode, RequestToken};
use std::sync::Arc;
use std::time::Instant;

/// A task's handle on a location.
#[derive(Debug)]
pub struct Handle<T> {
    location: Arc<Location<T>>,
    mode: AccessMode,
    iterative: bool,
    /// The posted request.  A token stored here is live in the location's
    /// FIFO until `finish_release` or `cancel` takes it out and releases it:
    /// the guard's access to the payload rests on this.
    pending: Option<RequestToken>,
}

impl<T> Handle<T> {
    /// Creates a one-shot handle (requests must be re-posted manually).
    pub(crate) fn new(location: Arc<Location<T>>, mode: AccessMode) -> Self {
        Handle { location, mode, iterative: false, pending: None }
    }

    /// Creates an iterative handle: every release re-posts a request.
    pub(crate) fn new_iterative(location: Arc<Location<T>>, mode: AccessMode) -> Self {
        Handle { location, mode, iterative: true, pending: None }
    }

    /// The location this handle is attached to.
    pub fn location(&self) -> &Arc<Location<T>> {
        &self.location
    }

    /// True when a request is currently posted (or held).
    #[cfg(test)]
    pub(crate) fn has_pending_request(&self) -> bool {
        self.pending.is_some()
    }

    /// Posts a request in the location's FIFO.
    ///
    /// Returns [`OrwlError::RequestAlreadyPosted`] when a request is already
    /// pending — the ORWL model requires exactly one outstanding request per
    /// handle.
    pub fn request(&mut self) -> Result<(), OrwlError> {
        if self.pending.is_some() {
            return Err(OrwlError::RequestAlreadyPosted);
        }
        self.pending = Some(self.location.fifo().insert(self.mode));
        Ok(())
    }

    /// Blocks until the posted request is granted and returns the guard.
    ///
    /// Returns [`OrwlError::NoPendingRequest`] when [`Handle::request`] was
    /// not called first (one-shot handles) and the handle is not iterative.
    /// Iterative handles post their first request lazily on first acquire.
    pub fn acquire(&mut self) -> Result<OrwlGuard<'_, T>, OrwlError> {
        if self.pending.is_none() {
            if self.iterative {
                self.request()?;
            } else {
                return Err(OrwlError::NoPendingRequest);
            }
        }
        let token = self.pending.expect("request posted above");
        crate::pack::lock_call(false);
        // The wait is timed only for a recorder: the clock would otherwise
        // be a large share of an uncontended acquire.
        let start = orwl_obs::enabled().then(Instant::now);
        let granted = self.location.fifo().acquire(&token);
        assert!(granted, "a handle's pending request stays queued until the handle releases it");
        if let Some(start) = start {
            orwl_obs::lock_wait(self.location.id().0, start.elapsed().as_nanos() as u64);
        }
        crate::monitor::on_lock_granted(self.location.id(), self.mode);
        crate::pack::lock_call_done();
        Ok(OrwlGuard { handle: self })
    }

    /// Non-blocking variant of [`Handle::acquire`]: returns `Ok(None)` when
    /// the request is not grantable yet.  The runtime only ever blocks; the
    /// tests use it to look at a queue without parking.
    #[cfg(test)]
    pub(crate) fn try_acquire(&mut self) -> Result<Option<OrwlGuard<'_, T>>, OrwlError> {
        if self.pending.is_none() {
            if self.iterative {
                self.request()?;
            } else {
                return Err(OrwlError::NoPendingRequest);
            }
        }
        let token = self.pending.expect("request posted above");
        if !self.location.fifo().try_acquire(&token) {
            return Ok(None);
        }
        crate::monitor::on_lock_granted(self.location.id(), self.mode);
        Ok(Some(OrwlGuard { handle: self }))
    }

    /// Cancels the pending request, if any, without accessing the data.
    pub fn cancel(&mut self) {
        if let Some(token) = self.pending.take() {
            self.location.fifo().release(&token);
        }
    }

    /// Called by the guard on drop.
    fn finish_release(&mut self) {
        crate::pack::lock_call(true);
        if let Some(token) = self.pending.take() {
            if self.iterative {
                // Atomically release and re-post so no other handle can slip
                // a request in between and perturb the periodic schedule.
                self.pending = Some(self.location.fifo().release_and_reinsert(&token));
            } else {
                self.location.fifo().release(&token);
            }
        } else if self.iterative {
            self.pending = Some(self.location.fifo().insert(self.mode));
        }
        crate::pack::lock_call_done();
    }
}

impl<T> Drop for Handle<T> {
    fn drop(&mut self) {
        self.cancel();
    }
}

/// RAII guard giving access to a location's data while the lock is held.
///
/// The guard is the grant: it borrows the handle whose request the FIFO
/// granted, and the payload is reached through it with no second lock.
/// Dereference it to read; `DerefMut` (which panics on read guards) writes.
/// Dropping the guard releases the lock and, for iterative handles,
/// re-posts the next request.
pub struct OrwlGuard<'a, T> {
    handle: &'a mut Handle<T>,
}

impl<T> std::ops::Deref for OrwlGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard lives while its handle's request holds the
        // grant — the handle's pending token stays live in the FIFO until
        // `finish_release` / `cancel` takes it, and both need the `&mut
        // Handle` this guard borrows.  A grant is one write alone or reads
        // together (`fifo::explore::exhaustive_small_programs`), and
        // `snapshot` only reads, so no `&mut T` exists meanwhile.
        unsafe { &*self.handle.location.payload() }
    }
}

impl<T> std::ops::DerefMut for OrwlGuard<'_, T> {
    /// # Panics
    /// Panics when the guard was obtained through a read handle.
    fn deref_mut(&mut self) -> &mut T {
        if self.handle.mode == AccessMode::Read {
            panic!("{}", OrwlError::WriteThroughReadGuard);
        }
        // SAFETY: as in `deref`, and the grant is a write's: no other
        // request holds a grant, `snapshot` waits for this one to end, and
        // `&mut self` keeps this guard's own `&T`s out.
        unsafe { &mut *self.handle.location.payload() }
    }
}

impl<T> Drop for OrwlGuard<'_, T> {
    fn drop(&mut self) {
        self.handle.finish_release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn one_shot_write_handle_roundtrip() {
        let loc = Location::new("x", 0i64);
        let mut h = loc.handle(AccessMode::Write);
        assert!(matches!(h.acquire(), Err(OrwlError::NoPendingRequest)));
        h.request().unwrap();
        assert!(matches!(h.request(), Err(OrwlError::RequestAlreadyPosted)));
        {
            let mut g = h.acquire().unwrap();
            *g = 7;
            assert_eq!(*g, 7);
        }
        assert!(!h.has_pending_request(), "one-shot handles do not re-post");
        assert_eq!(loc.snapshot(), 7);
    }

    #[test]
    #[should_panic]
    fn deref_mut_on_read_guard_panics() {
        let loc = Location::new("x", 5u32);
        let mut h = loc.handle(AccessMode::Read);
        h.request().unwrap();
        let mut g = h.acquire().unwrap();
        *g = 6;
    }

    #[test]
    fn iterative_handle_reposts_on_release() {
        let loc = Location::new("x", 0u64);
        let mut h = loc.iterative_handle(AccessMode::Write);
        for i in 1..=5u64 {
            let mut g = h.acquire().unwrap(); // first acquire posts lazily
            *g = i;
            drop(g);
            assert!(h.has_pending_request(), "iterative handle re-posts automatically");
        }
        assert_eq!(loc.snapshot(), 5);
        // The FIFO holds exactly the one re-posted request.
        assert_eq!(loc.fifo().len(), 1);
    }

    #[test]
    fn try_acquire_returns_none_when_blocked() {
        let loc = Location::new("x", 0u8);
        let mut first = loc.handle(AccessMode::Write);
        let mut second = loc.handle(AccessMode::Write);
        first.request().unwrap();
        second.request().unwrap();
        let g = first.acquire().unwrap();
        assert!(second.try_acquire().unwrap().is_none());
        drop(g);
        assert!(second.try_acquire().unwrap().is_some());
    }

    #[test]
    fn cancel_releases_queue_slot() {
        let loc = Location::new("x", 0u8);
        let mut first = loc.handle(AccessMode::Write);
        let mut second = loc.handle(AccessMode::Write);
        first.request().unwrap();
        second.request().unwrap();
        first.cancel();
        assert!(second.try_acquire().unwrap().is_some());
    }

    #[test]
    fn dropping_a_handle_releases_its_request() {
        let loc = Location::new("x", 0u8);
        {
            let mut h = loc.handle(AccessMode::Write);
            h.request().unwrap();
        } // dropped while holding a queued request
        let mut h2 = loc.handle(AccessMode::Write);
        h2.request().unwrap();
        assert!(h2.try_acquire().unwrap().is_some());
    }

    #[test]
    fn writer_excludes_concurrent_writer_across_threads() {
        let loc = Location::new("counter", 0u64);
        let mut joins = Vec::new();
        for _ in 0..4 {
            let loc = Arc::clone(&loc);
            joins.push(thread::spawn(move || {
                let mut h = loc.handle(AccessMode::Write);
                for _ in 0..1000 {
                    h.request().unwrap();
                    let mut g = h.acquire().unwrap();
                    *g += 1;
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(loc.snapshot(), 4000);
    }

    #[test]
    fn readers_and_writers_alternate_correctly() {
        // A writer increments; readers observe only monotonically increasing
        // values and never a torn intermediate (trivially true for u64, but
        // the test exercises the full request/acquire/release protocol under
        // concurrency).
        let loc = Location::new("x", 0u64);
        let writer_loc = Arc::clone(&loc);
        let writer = thread::spawn(move || {
            let mut h = writer_loc.iterative_handle(AccessMode::Write);
            for _ in 0..200 {
                let mut g = h.acquire().unwrap();
                *g += 1;
            }
        });
        let mut readers = Vec::new();
        for _ in 0..3 {
            let loc = Arc::clone(&loc);
            readers.push(thread::spawn(move || {
                let mut h = loc.iterative_handle(AccessMode::Read);
                let mut last = 0u64;
                for _ in 0..100 {
                    let g = h.acquire().unwrap();
                    assert!(*g >= last);
                    last = *g;
                }
            }));
        }
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(loc.snapshot(), 200);
    }
}
