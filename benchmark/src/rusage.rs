//! CPU seconds of this process and of the children it has reaped.
//!
//! `cpu_s` guards against buying wall clock with spinning, so it must see
//! the worker processes of the proc workloads too.  The vendored `libc`
//! shim has no `getrusage`, hence the declaration here.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    counters: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn cpu_seconds_of(who: c_int) -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // Linux ABI defines for 64-bit targets (checked by the size assertion
    // in the tests), and `who` is one of the two constants the call accepts.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    seconds(&usage.ru_utime) + seconds(&usage.ru_stime)
}

/// User plus system CPU seconds of this process (all its threads).
pub fn self_cpu_s() -> f64 {
    cpu_seconds_of(RUSAGE_SELF)
}

/// User plus system CPU seconds of every child waited for so far.
pub fn children_cpu_s() -> f64 {
    cpu_seconds_of(RUSAGE_CHILDREN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_the_linux_abi_and_cpu_time_advances() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
        let before = self_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(self_cpu_s() > before, "{x}");
        assert!(children_cpu_s() >= 0.0);
    }
}
