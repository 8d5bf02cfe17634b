//! Task threads that outlive their run.
//!
//! Every thread the thread runtime starts — task, control and adaptive
//! monitor threads — comes from one process-wide list of parked idle
//! threads.  [`spawn`] hands its job to an idle thread, or starts one when
//! none is idle, and the thread runs nothing else until its [`Joiner`]
//! collects the result: only then does it go back on the list.  A run
//! dispatches all its threads before it joins any, so while it is live
//! each of its jobs has an OS thread of its own, even one whose job has
//! returned — ORWL's one thread per task holds.
//!
//! A job that panics kills its thread, which is therefore never reused,
//! and its joiner reports the panic.  The list keeps every thread it was
//! given: it holds as many as the most jobs joined at once by the runs so
//! far, and a process that runs one session starts exactly the threads it
//! did before the pool.  What a job leaves on its thread (a binding, a
//! home, a scope) is the caller's to undo before it returns.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, PoisonError};

type Job = Box<dyn FnOnce() + Send>;

/// The idle threads, each parked on its own job channel.
static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

/// Waits for one job's result; joining puts its thread back on the idle
/// list.  Dropping it unjoined lets the thread exit once the job returns.
pub(crate) struct Joiner<T> {
    result: Receiver<T>,
    thread: Sender<Job>,
}

impl<T> Joiner<T> {
    /// The job's result, or `None` when it panicked.
    pub(crate) fn join(self) -> Option<T> {
        let out = self.result.recv().ok()?;
        IDLE.lock().unwrap_or_else(PoisonError::into_inner).push(self.thread);
        Some(out)
    }
}

/// Runs `job` on an idle pooled thread, or on a new one when none is idle.
pub(crate) fn spawn<T: Send + 'static>(job: impl FnOnce() -> T + Send + 'static) -> Joiner<T> {
    let (result_tx, result) = mpsc::channel();
    let idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner).pop();
    let thread = idle.unwrap_or_else(start);
    thread
        .send(Box::new(move || {
            let _ = result_tx.send(job());
        }))
        .expect("a pooled thread waits for jobs while its sender is held");
    Joiner { result, thread }
}

/// Starts a thread that runs the jobs sent to it until its sender is gone.
fn start() -> Sender<Job> {
    let (thread, jobs) = mpsc::channel::<Job>();
    std::thread::Builder::new()
        .name("orwl-pooled".to_string())
        .spawn(move || jobs.into_iter().for_each(|job| job()))
        .expect("spawning a pooled thread cannot fail");
    thread
}
