//! Re-placement with a migration budget.
//!
//! When drift is detected, the [`Replacer`] recomputes a TreeMatch
//! placement from the live matrix and decides whether migrating is worth
//! it: moving a task's working set is not free, so the predicted hop-byte
//! savings per epoch, amortised over a payback horizon, must exceed the
//! one-off migration bill (bytes moved × inter-leaf hop distance).  All
//! quantities are in hop-bytes, the unit the TreeMatch literature uses, so
//! gain and cost are directly comparable.
//!
//! The three gates themselves are [`ReplacerConfig::weigh`], a function of
//! plain costs in any one unit: the [`Replacer`] calls it with hop-bytes,
//! the cluster model with fabric seconds.

use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::hop_bytes;
use orwl_topo::topology::Topology;
use orwl_treematch::algorithm::{PlacementScratch, TreeMatchConfig, TreeMatchMapper};
use orwl_treematch::control::ControlThreadSpec;
use orwl_treematch::mapping::Placement;

/// Cost model for moving one task's state between processing units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCostModel {
    /// Bytes of task-private state (working set, stack, halo buffers) that
    /// effectively move when a task is re-bound.
    pub task_state_bytes: f64,
}

impl MigrationCostModel {
    /// Hop-byte bill for migrating from the placement `old` to `new`:
    /// `Σ task_state_bytes · hops(old_pu, new_pu)` over re-bound tasks.
    /// Tasks that stay put, or that were/stay unbound, cost nothing —
    /// unbound threads carry no locality to destroy.
    pub(crate) fn migration_cost(&self, topo: &Topology, old: &Placement, new: &Placement) -> f64 {
        let mut cost = 0.0;
        for (o, n) in old.compute.iter().zip(&new.compute) {
            if let (Some(a), Some(b)) = (o, n) {
                if a != b {
                    cost += self.task_state_bytes * topo.hop_distance(*a, *b) as f64;
                }
            }
        }
        cost
    }
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        // One 256 KiB block per task — the LK23 working-set order of
        // magnitude at the paper's problem sizes.
        MigrationCostModel { task_state_bytes: 256.0 * 1024.0 }
    }
}

/// Tuning of a [`Replacer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplacerConfig {
    /// The migration cost model.
    pub model: MigrationCostModel,
    /// Number of future epochs the predicted per-epoch savings are assumed
    /// to persist (the payback horizon the migration bill is amortised
    /// over).
    pub horizon_epochs: f64,
    /// Minimum relative improvement (`savings / current cost`) required
    /// before migrating, independent of the migration bill.
    pub min_relative_gain: f64,
}

impl Default for ReplacerConfig {
    fn default() -> Self {
        ReplacerConfig { model: MigrationCostModel::default(), horizon_epochs: 10.0, min_relative_gain: 0.05 }
    }
}

impl ReplacerConfig {
    /// The migration economy: is moving from a placement costing
    /// `current_cost` to one costing `candidate_cost` worth a one-off
    /// `bill`?  All three share one unit (hop-bytes, seconds — the gates do
    /// not care).  `periods_per_epoch` is how many cost periods an epoch
    /// holds (`1.0` for costs per epoch, the epoch length for costs per
    /// iteration), so the horizon stays `horizon_epochs` epochs.  Returns
    /// the savings per period and why to stay — `None` when the move pays.
    #[must_use]
    pub fn weigh(
        &self,
        current_cost: f64,
        candidate_cost: f64,
        periods_per_epoch: f64,
        bill: f64,
    ) -> (f64, Option<KeepReason>) {
        let gain = current_cost - candidate_cost;
        let keep = if gain <= 0.0 {
            Some(KeepReason::NoImprovement)
        } else if current_cost > 0.0 && gain / current_cost < self.min_relative_gain {
            Some(KeepReason::BelowMinGain)
        } else if gain * (self.horizon_epochs * periods_per_epoch) <= bill {
            Some(KeepReason::MigrationTooExpensive)
        } else {
            None
        };
        (gain, keep)
    }
}

/// Why the replacer kept the current placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// The candidate placement is no better on the live matrix.
    NoImprovement,
    /// The improvement exists but is below `min_relative_gain`.
    BelowMinGain,
    /// Amortised savings do not cover the migration bill.
    MigrationTooExpensive,
}

/// Outcome of a re-placement evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Keep the current placement.
    Keep {
        /// Why migration was rejected.
        reason: KeepReason,
        /// Predicted hop-byte savings per epoch of the rejected candidate.
        predicted_gain_per_epoch: f64,
    },
    /// Migrate to a new placement.
    Migrate {
        /// The placement to publish.
        placement: Placement,
        /// Predicted hop-byte savings per epoch.
        predicted_gain_per_epoch: f64,
        /// One-off migration bill in hop-bytes.
        migration_cost: f64,
    },
}

/// Recomputes placements from live matrices and charges migrations against
/// their predicted savings.
#[derive(Debug, Clone)]
pub struct Replacer {
    config: ReplacerConfig,
}

impl Replacer {
    /// Creates a replacer.
    pub fn new(config: ReplacerConfig) -> Self {
        Replacer { config }
    }

    /// Evaluates whether to migrate away from `current` given the live
    /// matrix.  `n_control` control threads are re-placed alongside the
    /// compute threads, exactly as in the initial Algorithm 1 run.  The
    /// candidate TreeMatch placement is computed through the caller's
    /// [`PlacementScratch`], so an engine evaluating a migration every
    /// drift epoch stops allocating dense per-level matrices.
    pub fn evaluate_with(
        &self,
        topo: &Topology,
        live: &CommMatrix,
        current: &Placement,
        n_control: usize,
        scratch: &mut PlacementScratch,
    ) -> Decision {
        let mapper =
            TreeMatchMapper::new(TreeMatchConfig { control: ControlThreadSpec::with_count(n_control) });
        let candidate = mapper.compute_placement_with(topo, live, scratch);

        let current_cost = hop_bytes(live, topo, &current.compute_mapping_or_zero());
        let candidate_cost = hop_bytes(live, topo, &candidate.compute_mapping_or_zero());
        let migration_cost = self.config.model.migration_cost(topo, current, &candidate);
        let (gain, keep) = self.config.weigh(current_cost, candidate_cost, 1.0, migration_cost);
        match keep {
            Some(reason) => Decision::Keep { reason, predicted_gain_per_epoch: gain },
            None => {
                Decision::Migrate { placement: candidate, predicted_gain_per_epoch: gain, migration_cost }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::patterns::{stencil_2d_directional, stencil_2d_rotated, StencilSpec};
    use orwl_topo::synthetic;
    use orwl_treematch::policies::{compute_placement, Policy};

    fn spec() -> StencilSpec {
        StencilSpec { rows: 4, cols: 4, edge_volume: 0.0, corner_volume: 8.0 }
    }

    /// Every outcome of the economy, once priced in hop-bytes per epoch
    /// (`scale` 1, one period per epoch) and once in fabric seconds per
    /// iteration (`scale` 1e-9, four iterations per epoch): the gates
    /// compare ratios and products of one unit, so the verdicts agree.
    #[test]
    fn the_economy_gives_each_verdict_in_hop_bytes_and_in_seconds() {
        let config = ReplacerConfig {
            model: MigrationCostModel::default(),
            horizon_epochs: 10.0,
            min_relative_gain: 0.05,
        };
        for (scale, periods_per_epoch) in [(1.0, 1.0), (1e-9, 4.0)] {
            let weigh = |current: f64, candidate: f64, bill: f64| {
                config.weigh(current * scale, candidate * scale, periods_per_epoch, bill * scale)
            };
            let horizon = 10.0 * periods_per_epoch;
            assert_eq!(weigh(1000.0, 1000.0, 0.0).1, Some(KeepReason::NoImprovement));
            assert_eq!(weigh(1000.0, 1200.0, 0.0).1, Some(KeepReason::NoImprovement));
            assert_eq!(weigh(1000.0, 960.0, 0.0).1, Some(KeepReason::BelowMinGain));
            // A gain of 100 per period pays back 100 × horizon: a bill just
            // above that is too expensive, one just below it is not.
            assert_eq!(weigh(1000.0, 900.0, 101.0 * horizon).1, Some(KeepReason::MigrationTooExpensive));
            let accepted = weigh(1000.0, 900.0, 99.0 * horizon);
            assert_eq!(accepted.1, None);
            assert!((accepted.0 - 100.0 * scale).abs() <= 1e-12 * scale);
            assert_eq!(weigh(0.0, 0.0, 0.0).1, Some(KeepReason::NoImprovement));
        }
    }

    #[test]
    fn optimal_placement_is_kept() {
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let m = stencil_2d_directional(&spec(), 4096.0, 64.0);
        let current = compute_placement(Policy::TreeMatch, &topo, &m, 0);
        let replacer = Replacer::new(ReplacerConfig::default());
        match replacer.evaluate_with(&topo, &m, &current, 0, &mut PlacementScratch::new()) {
            Decision::Keep { .. } => {}
            other => panic!("expected Keep for the matrix the placement was computed from, got {other:?}"),
        }
    }

    #[test]
    fn rotated_pattern_triggers_migration_with_positive_gain() {
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let before = stencil_2d_directional(&spec(), 4096.0, 64.0);
        let after = stencil_2d_rotated(&spec(), 4096.0, 64.0);
        let current = compute_placement(Policy::TreeMatch, &topo, &before, 0);
        // Modest per-task state so the (large) per-epoch gain dominates.
        let replacer = Replacer::new(ReplacerConfig {
            model: MigrationCostModel { task_state_bytes: 1024.0 },
            horizon_epochs: 10.0,
            min_relative_gain: 0.05,
        });
        match replacer.evaluate_with(&topo, &after, &current, 0, &mut PlacementScratch::new()) {
            Decision::Migrate { placement, predicted_gain_per_epoch, migration_cost } => {
                assert!(predicted_gain_per_epoch > 0.0);
                assert!(migration_cost > 0.0, "some tasks must actually move");
                let new_cost = hop_bytes(&after, &topo, &placement.compute_mapping_or_zero());
                let old_cost = hop_bytes(&after, &topo, &current.compute_mapping_or_zero());
                assert!(new_cost < old_cost);
            }
            other => panic!("expected Migrate after rotation, got {other:?}"),
        }
    }

    #[test]
    fn huge_working_sets_veto_migration() {
        let topo = synthetic::cluster2016_subset(2).unwrap();
        let before = stencil_2d_directional(&spec(), 4096.0, 64.0);
        let after = stencil_2d_rotated(&spec(), 4096.0, 64.0);
        let current = compute_placement(Policy::TreeMatch, &topo, &before, 0);
        let replacer = Replacer::new(ReplacerConfig {
            model: MigrationCostModel { task_state_bytes: 1.0e15 },
            horizon_epochs: 1.0,
            min_relative_gain: 0.0,
        });
        match replacer.evaluate_with(&topo, &after, &current, 0, &mut PlacementScratch::new()) {
            Decision::Keep { reason: KeepReason::MigrationTooExpensive, predicted_gain_per_epoch } => {
                assert!(predicted_gain_per_epoch > 0.0);
            }
            other => panic!("expected MigrationTooExpensive, got {other:?}"),
        }
    }

    #[test]
    fn migration_cost_counts_only_moved_bound_tasks() {
        let topo = synthetic::laptop();
        let model = MigrationCostModel { task_state_bytes: 100.0 };
        let old = Placement { compute: vec![Some(0), Some(1), None, Some(3)], control: vec![] };
        let same = old.clone();
        assert_eq!(model.migration_cost(&topo, &old, &same), 0.0);
        let moved = Placement { compute: vec![Some(2), Some(1), Some(5), None], control: vec![] };
        // Only task 0 counts: task 1 stays, tasks 2 and 3 have an unbound side.
        let expected = 100.0 * topo.hop_distance(0, 2) as f64;
        assert_eq!(model.migration_cost(&topo, &old, &moved), expected);
    }
}
