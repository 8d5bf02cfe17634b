//! Tasks and programs.
//!
//! An ORWL *program* is a set of tasks plus the links (handle declarations)
//! that connect them to locations.  The links are what makes the paper's
//! placement add-on possible: the runtime knows, before execution starts,
//! how many bytes each task will move through each location per iteration,
//! and from that derives the thread-to-thread communication matrix fed to
//! the mapping algorithm.

use crate::location::LocationId;
use crate::request::AccessMode;
use crate::stats::RuntimeStats;
use orwl_comm::matrix::CommMatrix;
use orwl_topo::bitmap::CpuSet;
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a task inside its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Declaration that a task will access a location every iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationLink {
    /// The location accessed.
    pub location: LocationId,
    /// Read or write access.
    pub mode: AccessMode,
    /// Bytes moved through the location per iteration (the paper's
    /// communication-volume weight).
    pub bytes_per_iteration: f64,
}

impl LocationLink {
    /// Convenience constructor for a read link.
    pub fn read(location: LocationId, bytes_per_iteration: f64) -> Self {
        LocationLink { location, mode: AccessMode::Read, bytes_per_iteration }
    }

    /// Convenience constructor for a write link.
    pub fn write(location: LocationId, bytes_per_iteration: f64) -> Self {
        LocationLink { location, mode: AccessMode::Write, bytes_per_iteration }
    }
}

/// Static description of a task: its name and its location links.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// Human-readable name (used in reports and error messages).
    pub name: String,
    /// Locations the task will access every iteration.
    pub links: Vec<LocationLink>,
}

impl TaskSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, links: Vec<LocationLink>) -> Self {
        TaskSpec { name: name.into(), links }
    }
}

/// Runtime context passed to every executing task.
#[derive(Debug, Clone)]
pub struct TaskContext {
    /// The task's index in the program.
    pub task_id: TaskId,
    /// The cpuset the task's thread was bound to, when the placement bound
    /// it (`None` under the NoBind policy).
    pub bound_to: Option<CpuSet>,
    /// Shared runtime statistics the task may update.
    pub stats: Arc<RuntimeStats>,
}

/// The closure type executed by a task's thread.
pub(crate) type TaskFn = Box<dyn FnOnce(&TaskContext) + Send + 'static>;

/// A complete ORWL program: tasks, their bodies and their links.
#[derive(Default)]
pub struct OrwlProgram {
    specs: Vec<TaskSpec>,
    bodies: Vec<TaskFn>,
}

impl OrwlProgram {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, spec: TaskSpec, body: impl FnOnce(&TaskContext) + Send + 'static) -> TaskId {
        self.specs.push(spec);
        self.bodies.push(Box::new(body));
        TaskId(self.specs.len() - 1)
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.specs.len()
    }

    /// True when the program has no tasks.
    pub(crate) fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Task specifications in id order.
    pub fn specs(&self) -> &[TaskSpec] {
        &self.specs
    }

    /// Consumes the program and returns `(specs, bodies)` for the runtime.
    pub(crate) fn into_parts(self) -> (Vec<TaskSpec>, Vec<TaskFn>) {
        (self.specs, self.bodies)
    }

    /// Builds the task-to-task communication matrix from the declared links,
    /// exactly as the paper's placement add-on does: for every location, the
    /// data written by its writers flows to each of its readers, weighted by
    /// the reader's declared per-iteration volume.
    pub fn comm_matrix(&self) -> CommMatrix {
        build_comm_matrix(&self.specs)
    }
}

impl std::fmt::Debug for OrwlProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrwlProgram").field("n_tasks", &self.n_tasks()).finish()
    }
}

/// Builds the communication matrix of a set of task specs (see
/// [`OrwlProgram::comm_matrix`]).
pub(crate) fn build_comm_matrix(specs: &[TaskSpec]) -> CommMatrix {
    let n = specs.len();
    let mut m = CommMatrix::zeros(n);
    // location -> (writers, readers) with their declared volumes.
    let mut writers: HashMap<LocationId, Vec<(usize, f64)>> = HashMap::new();
    let mut readers: HashMap<LocationId, Vec<(usize, f64)>> = HashMap::new();
    for (t, spec) in specs.iter().enumerate() {
        for link in &spec.links {
            match link.mode {
                AccessMode::Write => {
                    writers.entry(link.location).or_default().push((t, link.bytes_per_iteration))
                }
                AccessMode::Read => {
                    readers.entry(link.location).or_default().push((t, link.bytes_per_iteration))
                }
            }
        }
    }
    for (loc, ws) in &writers {
        if let Some(rs) = readers.get(loc) {
            for &(w, _wbytes) in ws {
                for &(r, rbytes) in rs {
                    if w != r {
                        m.add(w, r, rbytes);
                    }
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::Location;

    #[test]
    fn add_task_assigns_sequential_ids() {
        let mut p = OrwlProgram::new();
        assert!(p.is_empty());
        let a = p.add_task(TaskSpec::new("a", vec![]), |_| {});
        let b = p.add_task(TaskSpec::new("b", vec![]), |_| {});
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(p.n_tasks(), 2);
        assert_eq!(p.specs()[1].name, "b");
        assert!(format!("{p:?}").contains("n_tasks"));
    }

    #[test]
    fn comm_matrix_links_writer_to_readers() {
        // Task 0 writes a frontier location that tasks 1 and 2 read.
        let loc = Location::new("frontier", vec![0.0f64; 16]);
        let specs = vec![
            TaskSpec::new("producer", vec![LocationLink::write(loc.id(), 128.0)]),
            TaskSpec::new("left", vec![LocationLink::read(loc.id(), 128.0)]),
            TaskSpec::new("right", vec![LocationLink::read(loc.id(), 64.0)]),
        ];
        let m = build_comm_matrix(&specs);
        assert_eq!(m.order(), 3);
        assert_eq!(m.get(0, 1), 128.0);
        assert_eq!(m.get(0, 2), 64.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(1, 2), 0.0);
    }

    #[test]
    fn comm_matrix_ignores_self_communication() {
        // A task that both writes and reads its own block produces no
        // off-diagonal volume.
        let loc = Location::new("block", vec![0.0f64; 16]);
        let specs = vec![TaskSpec::new(
            "solo",
            vec![LocationLink::write(loc.id(), 100.0), LocationLink::read(loc.id(), 100.0)],
        )];
        let m = build_comm_matrix(&specs);
        assert_eq!(m.total_volume(), 0.0);
    }

    #[test]
    fn comm_matrix_of_chain_of_tasks() {
        // Three tasks in a chain through two locations: 0 → 1 → 2.
        let l01 = Location::new("l01", 0u8);
        let l12 = Location::new("l12", 0u8);
        let specs = vec![
            TaskSpec::new("t0", vec![LocationLink::write(l01.id(), 8.0)]),
            TaskSpec::new("t1", vec![LocationLink::read(l01.id(), 8.0), LocationLink::write(l12.id(), 8.0)]),
            TaskSpec::new("t2", vec![LocationLink::read(l12.id(), 8.0)]),
        ];
        let m = build_comm_matrix(&specs);
        assert_eq!(m.get(0, 1), 8.0);
        assert_eq!(m.get(1, 2), 8.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.total_volume(), 16.0);
    }

    #[test]
    fn link_constructors_set_modes() {
        let loc = Location::new("x", 0u8);
        assert_eq!(LocationLink::read(loc.id(), 4.0).mode, AccessMode::Read);
        assert_eq!(LocationLink::write(loc.id(), 4.0).mode, AccessMode::Write);
    }

    #[test]
    fn program_comm_matrix_uses_specs() {
        let loc = Location::new("shared", 0u64);
        let mut p = OrwlProgram::new();
        p.add_task(TaskSpec::new("w", vec![LocationLink::write(loc.id(), 32.0)]), |_| {});
        p.add_task(TaskSpec::new("r", vec![LocationLink::read(loc.id(), 32.0)]), |_| {});
        let m = p.comm_matrix();
        assert_eq!(m.get(0, 1), 32.0);
    }
}
