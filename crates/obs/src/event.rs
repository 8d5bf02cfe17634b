//! The event model: what a run's flight recorder can say.
//!
//! Every [`ObsEvent`] carries a timestamp on the owning recorder's clock
//! (monotonic wall time on thread backends, simulated seconds on the
//! simulators — see [`ClockKind`]), a recorder-wide sequence number that
//! makes the drained timeline totally ordered even when timestamps tie
//! (simulated events of one epoch all share the epoch's clock value), the
//! logical thread id of the emitting thread, and a typed [`EventKind`]
//! payload.

/// The clock a recorder stamps events with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// Monotonic wall time since the recorder was created (thread and
    /// cluster-control backends).
    Wall,
    /// The simulator's virtual clock, advanced by the backend as simulated
    /// seconds accumulate.
    Simulated,
}

impl ClockKind {
    /// Stable artifact name.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ClockKind::Wall => "wall",
            ClockKind::Simulated => "simulated",
        }
    }

    /// Inverse of [`ClockKind::name`].
    #[must_use]
    pub(crate) fn parse(name: &str) -> Option<ClockKind> {
        match name {
            "wall" => Some(ClockKind::Wall),
            "simulated" => Some(ClockKind::Simulated),
            _ => None,
        }
    }
}

/// Phase of a placement solve (the TreeMatch pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePhase {
    /// `GroupProcesses` across all tree levels (includes the swap
    /// refinement it runs internally).
    Group,
    /// `AggregateComMatrix` across all tree levels (the coarsening step).
    Coarsen,
    /// The Kernighan–Lin-style swap refinement inside the grouping.
    Refine,
    /// The whole placement computation, whatever the policy.
    Total,
}

impl SolvePhase {
    /// Stable artifact name.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            SolvePhase::Group => "group",
            SolvePhase::Coarsen => "coarsen",
            SolvePhase::Refine => "refine",
            SolvePhase::Total => "total",
        }
    }

    /// Inverse of [`SolvePhase::name`].
    #[must_use]
    pub(crate) fn parse(name: &str) -> Option<SolvePhase> {
        match name {
            "group" => Some(SolvePhase::Group),
            "coarsen" => Some(SolvePhase::Coarsen),
            "refine" => Some(SolvePhase::Refine),
            "total" => Some(SolvePhase::Total),
            _ => None,
        }
    }
}

/// What the drift detector decided at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftOutcome {
    /// Drift exceeded the patience threshold: a re-placement was requested.
    Fired,
    /// Over threshold, but the patience counter has not filled yet.
    SuppressedByPatience,
    /// A recent migration's cooldown swallowed the observation.
    Cooldown,
    /// Under threshold: nothing to do.
    Quiet,
}

impl DriftOutcome {
    /// Stable artifact name.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            DriftOutcome::Fired => "fired",
            DriftOutcome::SuppressedByPatience => "suppressed_by_patience",
            DriftOutcome::Cooldown => "cooldown",
            DriftOutcome::Quiet => "quiet",
        }
    }

    /// Inverse of [`DriftOutcome::name`].
    #[must_use]
    pub(crate) fn parse(name: &str) -> Option<DriftOutcome> {
        match name {
            "fired" => Some(DriftOutcome::Fired),
            "suppressed_by_patience" => Some(DriftOutcome::SuppressedByPatience),
            "cooldown" => Some(DriftOutcome::Cooldown),
            "quiet" => Some(DriftOutcome::Quiet),
            _ => None,
        }
    }
}

/// Locality class of fabric traffic, mirroring the cluster topology's
/// `FabricClass` without depending on it (this crate is a leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricLane {
    /// Both endpoints on one machine (NUMA links only).
    SameNode,
    /// Different machines, one rack.
    SameRack,
    /// Different racks.
    CrossRack,
}

impl FabricLane {
    /// Stable artifact name.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FabricLane::SameNode => "same_node",
            FabricLane::SameRack => "same_rack",
            FabricLane::CrossRack => "cross_rack",
        }
    }

    /// Inverse of [`FabricLane::name`].
    #[must_use]
    pub(crate) fn parse(name: &str) -> Option<FabricLane> {
        match name {
            "same_node" => Some(FabricLane::SameNode),
            "same_rack" => Some(FabricLane::SameRack),
            "cross_rack" => Some(FabricLane::CrossRack),
            _ => None,
        }
    }

    /// Metric-name suffix (`fabric_bytes_<lane>`).
    #[must_use]
    pub(crate) fn metric(&self) -> &'static str {
        match self {
            FabricLane::SameNode => "fabric_bytes_same_node",
            FabricLane::SameRack => "fabric_bytes_same_rack",
            FabricLane::CrossRack => "fabric_bytes_cross_rack",
        }
    }
}

/// A typed event payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A monitoring epoch boundary (epochs count from 1).
    Epoch {
        /// The epoch that just closed.
        epoch: u64,
        /// Bytes the monitor observed during the epoch (0 when the backend
        /// does not tally them).
        bytes: f64,
    },
    /// One phase of a placement or re-placement solve.  `wall_ns` is
    /// always wall time, even on simulated clocks — the solve runs on the
    /// host, not in the simulation.
    PlacementSolve {
        /// Which phase of the pipeline.
        phase: SolvePhase,
        /// Host wall-clock nanoseconds spent.
        wall_ns: u64,
    },
    /// A drift-detector decision at an epoch boundary.
    DriftDecision {
        /// What the detector decided.
        outcome: DriftOutcome,
        /// The normalised structural drift it measured.
        delta: f64,
    },
    /// A lock grant whose wait exceeded the configured threshold.
    LockWait {
        /// The location id waited on.
        location: u64,
        /// Nanoseconds spent blocked in the FIFO.
        wait_ns: u64,
    },
    /// Aggregated fabric traffic of one monitoring chunk.
    FabricTransfer {
        /// Locality class of the traffic.
        lane: FabricLane,
        /// Bytes moved in the chunk.
        bytes: f64,
    },
    /// A task thread re-bound to a new PU after a published re-placement.
    Rebind {
        /// The task that moved.
        task: usize,
        /// The PU it is now bound to.
        pu: usize,
    },
    /// An accepted migration (re-placement that was actually paid for).
    Migration {
        /// Tasks whose binding changed.
        tasks_moved: usize,
        /// State bytes billed for the move.
        bytes: f64,
        /// Whether any task changed machines (cluster backend only).
        cross_node: bool,
    },
    /// A remote-read request leaving for the owning process (emitted on
    /// the *reader's* track when the wire frame is sent).
    LockRequest {
        /// Requester-chosen wire sequence number; globally unique across
        /// processes (namespaced by node id), it matches the grant and
        /// release of the same remote section.
        rseq: u64,
        /// Global location id (the owning task's index).
        location: u64,
        /// The node that owns the location.
        owner: u32,
    },
    /// A remote-read grant leaving the owner (emitted on the *owner's*
    /// track when the grant frame is sent; cross-track happens-after the
    /// matching [`EventKind::LockRequest`]).
    LockGrant {
        /// The request's wire sequence number.
        rseq: u64,
        /// Global location id (the owning task's index).
        location: u64,
        /// Nanoseconds the serving handle waited in the location's FIFO
        /// before the section could be granted.
        wait_ns: u64,
    },
    /// A remote read finished by the reader (emitted on the *reader's*
    /// track once it is done with the grant; no frame goes back, since the
    /// owner's section ended at the copy into the grant).
    LockRelease {
        /// The request's wire sequence number.
        rseq: u64,
        /// Global location id (the owning task's index).
        location: u64,
        /// Nanoseconds the reader held the grant's copy (grant receipt to
        /// this event).
        held_ns: u64,
    },
    /// A node was confirmed dead mid-run (emitted on the coordinator's
    /// track when the kill-confirmation budget fires).  Opens the
    /// degradation window that the matching [`EventKind::Recovery`]
    /// closes.
    NodeLoss {
        /// The node that died.
        node: u32,
        /// Tasks orphaned by the loss.
        tasks_lost: usize,
    },
    /// Survivors resumed under a re-shard after a node loss (emitted on
    /// the coordinator's track when the resume barrier clears).
    Recovery {
        /// The node whose loss this recovery answers.
        node: u32,
        /// Orphaned tasks re-homed onto survivors.
        tasks_migrated: usize,
    },
}

impl EventKind {
    /// Stable artifact name of the event kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Epoch { .. } => "epoch",
            EventKind::PlacementSolve { .. } => "placement_solve",
            EventKind::DriftDecision { .. } => "drift_decision",
            EventKind::LockWait { .. } => "lock_wait",
            EventKind::FabricTransfer { .. } => "fabric_transfer",
            EventKind::Rebind { .. } => "rebind",
            EventKind::Migration { .. } => "migration",
            EventKind::LockRequest { .. } => "lock_request",
            EventKind::LockGrant { .. } => "lock_grant",
            EventKind::LockRelease { .. } => "lock_release",
            EventKind::NodeLoss { .. } => "node_loss",
            EventKind::Recovery { .. } => "recovery",
        }
    }
}

/// One recorded event: a stamped [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsEvent {
    /// Timestamp in microseconds on the recorder's clock.
    pub ts_us: f64,
    /// Span duration in microseconds (0 for instant events; placement
    /// solves report their wall duration here).
    pub dur_us: f64,
    /// Recorder-wide sequence number: drained timelines sort by
    /// `(ts_us, seq)`, so simultaneous simulated events keep their
    /// emission order.
    pub seq: u64,
    /// Logical thread id within the recorder (assigned in first-emission
    /// order).
    pub tid: u64,
    /// Which process timeline the event belongs to in a merged
    /// multi-process document: 0 is the coordinator (and the only track of
    /// single-process runs); worker node `k` is track `k + 1`.  Recorders
    /// always stamp 0 — tracks are assigned by `merge`.
    pub track: u32,
    /// The payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(ClockKind::Wall.name(), "wall");
        assert_eq!(ClockKind::Simulated.name(), "simulated");
        assert_eq!(SolvePhase::Coarsen.name(), "coarsen");
        assert_eq!(DriftOutcome::SuppressedByPatience.name(), "suppressed_by_patience");
        assert_eq!(FabricLane::CrossRack.name(), "cross_rack");
        assert_eq!(EventKind::Epoch { epoch: 1, bytes: 0.0 }.name(), "epoch");
        assert_eq!(
            EventKind::Migration { tasks_moved: 2, bytes: 1.0, cross_node: false }.name(),
            "migration"
        );
        assert_eq!(EventKind::LockRequest { rseq: 1, location: 2, owner: 0 }.name(), "lock_request");
        assert_eq!(EventKind::LockGrant { rseq: 1, location: 2, wait_ns: 3 }.name(), "lock_grant");
        assert_eq!(EventKind::LockRelease { rseq: 1, location: 2, held_ns: 3 }.name(), "lock_release");
        assert_eq!(EventKind::NodeLoss { node: 1, tasks_lost: 9 }.name(), "node_loss");
        assert_eq!(EventKind::Recovery { node: 1, tasks_migrated: 9 }.name(), "recovery");
    }

    #[test]
    fn parse_inverts_name() {
        for clock in [ClockKind::Wall, ClockKind::Simulated] {
            assert_eq!(ClockKind::parse(clock.name()), Some(clock));
        }
        for phase in [SolvePhase::Group, SolvePhase::Coarsen, SolvePhase::Refine, SolvePhase::Total] {
            assert_eq!(SolvePhase::parse(phase.name()), Some(phase));
        }
        for outcome in [
            DriftOutcome::Fired,
            DriftOutcome::SuppressedByPatience,
            DriftOutcome::Cooldown,
            DriftOutcome::Quiet,
        ] {
            assert_eq!(DriftOutcome::parse(outcome.name()), Some(outcome));
        }
        for lane in [FabricLane::SameNode, FabricLane::SameRack, FabricLane::CrossRack] {
            assert_eq!(FabricLane::parse(lane.name()), Some(lane));
        }
        assert_eq!(ClockKind::parse("lunar"), None);
    }
}
