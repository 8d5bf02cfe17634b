//! Runtime statistics, shared between tasks, control threads and the
//! runtime itself.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters updated concurrently by tasks and control threads.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    tasks_started: AtomicU64,
    tasks_finished: AtomicU64,
    control_events: AtomicU64,
    lock_acquisitions: AtomicU64,
}

impl RuntimeStats {
    /// Creates a zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that one task started executing.
    pub fn record_task_started(&self) {
        self.tasks_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that one task finished executing.
    pub fn record_task_finished(&self) {
        self.tasks_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one event processed by a control thread.
    pub fn record_control_event(&self) {
        self.control_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` successful lock acquisitions.
    pub fn record_acquisitions(&self, n: u64) {
        self.lock_acquisitions.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes an immutable snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            tasks_started: self.tasks_started.load(Ordering::Relaxed),
            tasks_finished: self.tasks_finished.load(Ordering::Relaxed),
            control_events: self.control_events.load(Ordering::Relaxed),
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`RuntimeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Tasks that started executing.
    pub tasks_started: u64,
    /// Tasks that finished executing.
    pub tasks_finished: u64,
    /// Events processed by control threads.
    pub control_events: u64,
    /// Successful ORWL lock acquisitions reported by tasks.
    pub lock_acquisitions: u64,
}

impl StatsSnapshot {
    /// Publishes the counters into an observability metrics registry (the
    /// registry generalises this block: same counts, plus histograms and
    /// everything else the run recorded — the time spent waiting for locks is
    /// its `lock_wait_ns` histogram).
    pub fn publish(&self, metrics: &orwl_obs::metrics::MetricsRegistry) {
        metrics.counter("tasks_started").add(self.tasks_started);
        metrics.counter("tasks_finished").add(self.tasks_finished);
        metrics.counter("control_events").add(self.control_events);
        metrics.counter("lock_acquisitions").add(self.lock_acquisitions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate() {
        let s = RuntimeStats::new();
        s.record_task_started();
        s.record_task_started();
        s.record_task_finished();
        s.record_control_event();
        s.record_acquisitions(5);
        let snap = s.snapshot();
        assert_eq!(snap.tasks_started, 2);
        assert_eq!(snap.tasks_finished, 1);
        assert_eq!(snap.control_events, 1);
        assert_eq!(snap.lock_acquisitions, 5);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = Arc::new(RuntimeStats::new());
        let mut joins = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_acquisitions(1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(s.snapshot().lock_acquisitions, 4000);
    }
}
