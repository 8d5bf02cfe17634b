//! Binding threads to processing units.
//!
//! The outcome of the placement algorithm is a thread → PU assignment; this
//! module applies it.  Binding is abstracted behind the [`Binder`] trait so
//! that the same placement code can
//!
//! * really pin threads on Linux (`LinuxBinder`, via `sched_setaffinity`),
//! * record the requested bindings for inspection and testing
//!   ([`RecordingBinder`]), or
//! * deliberately do nothing ([`NoopBinder`] — the "NoBind" configuration of
//!   the paper).

use crate::bitmap::CpuSet;
use std::sync::Mutex;

/// Error returned when a binding request cannot be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError(pub String);

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu binding failed: {}", self.0)
    }
}

impl std::error::Error for BindError {}

/// Applies thread → PU bindings.
///
/// Implementations must be callable from the thread being bound (the usual
/// pattern is for a worker to bind itself right after it starts).
pub trait Binder: Send + Sync {
    /// Restricts the *calling* thread to the PUs in `cpuset`.
    fn bind_current_thread(&self, cpuset: &CpuSet) -> Result<(), BindError>;

    /// Returns the affinity of the calling thread, when the platform can
    /// report it.
    fn current_affinity(&self) -> Option<CpuSet> {
        None
    }

    /// Human-readable name of the binder (used in logs and reports).
    fn name(&self) -> &'static str;
}

/// A binder that ignores every request — the "NoBind" baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopBinder;

impl Binder for NoopBinder {
    fn bind_current_thread(&self, _cpuset: &CpuSet) -> Result<(), BindError> {
        Ok(())
    }

    fn name(&self) -> &'static str {
        "noop"
    }
}

/// A binder that records every request, in call order, without touching
/// the OS.  Used where the CPU count of the host must not matter.
#[derive(Debug, Default)]
pub struct RecordingBinder {
    anonymous: Mutex<Vec<CpuSet>>,
}

impl RecordingBinder {
    /// Creates an empty recording binder.
    pub fn new() -> Self {
        Self::default()
    }

    /// All bindings recorded through [`Binder::bind_current_thread`]
    /// (anonymous, in call order).
    pub fn anonymous_bindings(&self) -> Vec<CpuSet> {
        self.anonymous.lock().unwrap().clone()
    }
}

impl Binder for RecordingBinder {
    fn bind_current_thread(&self, cpuset: &CpuSet) -> Result<(), BindError> {
        self.anonymous.lock().unwrap().push(cpuset.clone());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

/// Real binding through `sched_setaffinity(2)`.  Only available on Linux.
#[cfg(target_os = "linux")]
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LinuxBinder;

#[cfg(target_os = "linux")]
impl Binder for LinuxBinder {
    fn bind_current_thread(&self, cpuset: &CpuSet) -> Result<(), BindError> {
        if cpuset.is_empty() {
            return Err(BindError("cannot bind to an empty cpuset".into()));
        }
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            libc::CPU_ZERO(&mut set);
            let max = 8 * std::mem::size_of::<libc::cpu_set_t>();
            for pu in cpuset.iter() {
                if pu >= max {
                    return Err(BindError(format!("PU index {pu} exceeds cpu_set_t capacity {max}")));
                }
                libc::CPU_SET(pu, &mut set);
            }
            // tid 0 = calling thread.
            let rc = libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set);
            if rc != 0 {
                return Err(BindError(format!(
                    "sched_setaffinity({cpuset}) returned errno {}",
                    std::io::Error::last_os_error()
                )));
            }
        }
        Ok(())
    }

    fn current_affinity(&self) -> Option<CpuSet> {
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            let rc = libc::sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set);
            if rc != 0 {
                return None;
            }
            let max = 8 * std::mem::size_of::<libc::cpu_set_t>();
            let mut out = CpuSet::new();
            for pu in 0..max {
                if libc::CPU_ISSET(pu, &set) {
                    out.set(pu);
                }
            }
            Some(out)
        }
    }

    fn name(&self) -> &'static str {
        "linux-sched_setaffinity"
    }
}

/// Returns the best real binder for the current platform, or a no-op binder
/// when the platform offers none.
pub fn native_binder() -> Box<dyn Binder> {
    #[cfg(target_os = "linux")]
    {
        Box::new(LinuxBinder)
    }
    #[cfg(not(target_os = "linux"))]
    {
        Box::new(NoopBinder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_binder_accepts_everything() {
        let b = NoopBinder;
        assert!(b.bind_current_thread(&CpuSet::singleton(0)).is_ok());
        assert!(b.bind_current_thread(&CpuSet::new()).is_ok());
        assert_eq!(b.name(), "noop");
        assert!(b.current_affinity().is_none());
    }

    #[test]
    fn recording_binder_remembers_anonymous_bindings_in_call_order() {
        let b = RecordingBinder::new();
        assert!(b.anonymous_bindings().is_empty());
        b.bind_current_thread(&CpuSet::from_indices(0..2)).unwrap();
        b.bind_current_thread(&CpuSet::singleton(7)).unwrap();
        assert_eq!(b.anonymous_bindings(), vec![CpuSet::from_indices(0..2), CpuSet::singleton(7)]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_binder_binds_to_cpu0() {
        let b = LinuxBinder;
        // CPU 0 always exists.  Save and restore the original mask so other
        // tests in this process are unaffected.
        let original = b.current_affinity().expect("can read affinity");
        assert!(!original.is_empty());
        b.bind_current_thread(&CpuSet::singleton(0)).unwrap();
        let now = b.current_affinity().unwrap();
        assert_eq!(now, CpuSet::singleton(0));
        b.bind_current_thread(&original).unwrap();
        assert!(b.bind_current_thread(&CpuSet::new()).is_err());
    }

    #[test]
    fn native_binder_is_available() {
        let b = native_binder();
        assert!(!b.name().is_empty());
    }
}
