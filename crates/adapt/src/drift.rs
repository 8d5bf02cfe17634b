//! Drift detection: has the live communication pattern moved far enough
//! from the one the current placement was computed for?
//!
//! The detector compares two matrices **under the same mapping** with the
//! cost metric the placement itself optimises
//! ([`orwl_comm::metrics::mapping_cost_default`]).  Both matrices are
//! volume-normalised first, so a uniform speed-up or slow-down of the whole
//! application (same structure, different rate) produces a delta of zero —
//! only *structural* change counts.  Firing is guarded two ways:
//!
//! * **patience** — the relative delta must exceed the threshold for a
//!   number of consecutive epochs, filtering one-epoch noise;
//! * **cooldown** — after a fire (typically followed by a migration) the
//!   detector holds off for a few epochs so the system settles before the
//!   next decision, preventing oscillation (hysteresis).
//!
//! `DriftStep` is the detector with the two matrices it compares: the
//! state every adaptive loop carries, and the only place that rolls,
//! gates, smooths, observes and re-anchors.

use crate::online::OnlineCommMatrix;
use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::mapping_cost_default;
use orwl_topo::topology::Topology;

/// Tuning of a [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Relative cost-delta above which an epoch counts as drifted.
    pub threshold: f64,
    /// Consecutive drifted epochs required before firing.
    pub patience: usize,
    /// Epochs to ignore right after a fire / reset (hysteresis).
    pub cooldown: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { threshold: 0.15, patience: 1, cooldown: 1 }
    }
}

/// One epoch's drift measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftObservation {
    /// Cost of the current mapping on the (normalised) baseline matrix.
    pub baseline_cost: f64,
    /// Cost of the current mapping on the (normalised) live matrix.
    pub live_cost: f64,
    /// Relative structural delta in `[0, 1]`.
    pub delta: f64,
    /// Whether this epoch was over the threshold.
    pub over_threshold: bool,
    /// Whether this epoch landed inside a post-fire cooldown window.
    pub in_cooldown: bool,
    /// Whether the detector fired (threshold + patience + cooldown).
    pub fired: bool,
}

impl DriftObservation {
    /// The decision as a telemetry outcome (how the epoch is classified in
    /// the `orwl-obs/v1` timeline).
    #[must_use]
    pub fn outcome(&self) -> orwl_obs::DriftOutcome {
        if self.fired {
            orwl_obs::DriftOutcome::Fired
        } else if self.in_cooldown {
            orwl_obs::DriftOutcome::Cooldown
        } else if self.over_threshold {
            orwl_obs::DriftOutcome::SuppressedByPatience
        } else {
            orwl_obs::DriftOutcome::Quiet
        }
    }
}

/// The cost of `matrix`, volume-normalised, under `mapping` on `topo`.
fn normalized_cost(matrix: &CommMatrix, topo: &Topology, mapping: &[usize]) -> f64 {
    mapping_cost_default(&matrix.volume_normalized(), topo, mapping)
}

/// Stateful drift detector (see the module docs for the decision rule).
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    consecutive_over: usize,
    cooldown_left: usize,
}

impl DriftDetector {
    /// Creates a detector; no cooldown is pending initially.
    pub fn new(config: DriftConfig) -> Self {
        DriftDetector { config, consecutive_over: 0, cooldown_left: 0 }
    }

    /// Measures the structural delta between `baseline` (what the current
    /// placement was computed from) and `live` (what the monitor observed),
    /// both evaluated under `mapping` on `topo`, and advances the
    /// patience/cooldown state machine.
    pub fn observe(
        &mut self,
        topo: &Topology,
        mapping: &[usize],
        baseline: &CommMatrix,
        live: &CommMatrix,
    ) -> DriftObservation {
        let baseline_cost = normalized_cost(baseline, topo, mapping);
        self.decide(baseline_cost, normalized_cost(live, topo, mapping))
    }

    /// [`observe`](DriftDetector::observe) from the two matrices' costs
    /// under the mapping.
    fn decide(&mut self, baseline_cost: f64, live_cost: f64) -> DriftObservation {
        // Relative to the larger of the two costs: symmetric in the inputs,
        // bounded by 1, and well-defined when the baseline cost is zero
        // (perfectly local placement drifting to non-local traffic).
        let scale = baseline_cost.max(live_cost);
        let delta = if scale <= f64::EPSILON { 0.0 } else { (live_cost - baseline_cost).abs() / scale };

        let over_threshold = delta > self.config.threshold;
        let in_cooldown = self.cooldown_left > 0;
        let fired = if in_cooldown {
            self.cooldown_left -= 1;
            // Cooldown epochs do not accumulate patience either.
            self.consecutive_over = 0;
            false
        } else {
            if over_threshold {
                self.consecutive_over += 1;
            } else {
                self.consecutive_over = 0;
            }
            self.consecutive_over >= self.config.patience.max(1)
        };
        if fired {
            self.arm_cooldown();
        }
        DriftObservation { baseline_cost, live_cost, delta, over_threshold, in_cooldown, fired }
    }

    /// Resets the patience counter and starts a cooldown window — after a
    /// fire, and when [`DriftStep::adopt`] re-anchors the baseline.
    fn arm_cooldown(&mut self) {
        self.consecutive_over = 0;
        self.cooldown_left = self.config.cooldown;
    }
}

/// The state an adaptive loop carries between epochs: the online matrix
/// the monitor feeds, the detector, and the baseline the current placement
/// was computed from.  [`epoch`](DriftStep::epoch) closes an epoch and
/// measures the drift; [`adopt`](DriftStep::adopt) accepts a re-placement.
/// What happens between the two (price, pay, publish) is the caller's: the
/// simulator [driver](crate::driver) or the thread runtime's
/// [`AdaptiveEngine`](crate::engine::AdaptiveEngine).  The baseline's cost
/// under the mapping of the last observed epoch is kept: it is re-computed
/// only when `adopt` replaces the baseline or an epoch is observed under a
/// different mapping.
#[derive(Debug, Clone)]
pub(crate) struct DriftStep {
    online: OnlineCommMatrix,
    detector: DriftDetector,
    baseline: CommMatrix,
    /// The mapping the baseline was last costed under, and that cost.
    baseline_cost: Option<(Vec<usize>, f64)>,
}

impl DriftStep {
    /// A step for `n_tasks` tasks whose current placement was computed from
    /// `baseline` (symmetrised); `decay` as in [`OnlineCommMatrix::new`].
    pub(crate) fn new(n_tasks: usize, decay: f64, drift: DriftConfig, baseline: CommMatrix) -> Self {
        DriftStep {
            online: OnlineCommMatrix::new(n_tasks, decay),
            detector: DriftDetector::new(drift),
            baseline,
            baseline_cost: None,
        }
    }

    /// The accumulator, for tests that look at what was recorded.
    #[cfg(test)]
    pub(crate) fn online(&self) -> &OnlineCommMatrix {
        &self.online
    }

    /// Records `bytes` flowing `src → dst` during the open epoch (see
    /// [`OnlineCommMatrix::record`]).
    pub(crate) fn record(&mut self, src: usize, dst: usize, bytes: f64) {
        self.online.record(src, dst, bytes);
    }

    /// Closes the open epoch.  Returns its transfer-record count and — once
    /// an epoch has carried traffic — the drift of the live (smoothed,
    /// symmetrised) matrix against the baseline under `mapping`, with that
    /// matrix: what a re-placement is computed from.  Before that warm-up
    /// nothing is observed and patience and cooldown do not advance.
    pub(crate) fn epoch(
        &mut self,
        topo: &Topology,
        mapping: &[usize],
    ) -> (u64, Option<(DriftObservation, CommMatrix)>) {
        let records = self.online.roll_epoch();
        if !self.online.is_warmed_up() {
            return (records, None);
        }
        let live = self.online.smoothed_symmetric();
        let baseline_cost = match &self.baseline_cost {
            Some((costed, cost)) if costed.as_slice() == mapping => *cost,
            _ => {
                let cost = normalized_cost(&self.baseline, topo, mapping);
                self.baseline_cost = Some((mapping.to_vec(), cost));
                cost
            }
        };
        let observation = self.detector.decide(baseline_cost, normalized_cost(&live, topo, mapping));
        (records, Some((observation, live)))
    }

    /// A placement computed from `live` was adopted: `live` is the new
    /// baseline, and the detector holds off for its cooldown.
    pub(crate) fn adopt(&mut self, live: CommMatrix) {
        self.baseline = live;
        self.baseline_cost = None;
        self.detector.arm_cooldown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::patterns::{stencil_2d_directional, stencil_2d_rotated, StencilSpec};
    use orwl_topo::synthetic;
    use orwl_treematch::policies::{compute_placement, Policy};

    fn setup() -> (Topology, CommMatrix, Vec<usize>) {
        let topo = synthetic::cluster2016_subset(2).unwrap(); // 16 PUs
        let spec = StencilSpec { rows: 4, cols: 4, edge_volume: 0.0, corner_volume: 8.0 };
        let baseline = stencil_2d_directional(&spec, 4096.0, 64.0);
        let placement = compute_placement(Policy::TreeMatch, &topo, &baseline, 0);
        (topo, baseline, placement.compute_mapping_or_zero())
    }

    #[test]
    fn stationary_pattern_never_fires() {
        let (topo, baseline, mapping) = setup();
        let mut det = DriftDetector::new(DriftConfig { threshold: 0.01, patience: 1, cooldown: 0 });
        for scale in [1.0, 0.5, 3.0, 10.0] {
            // Same structure at a different rate: no structural drift.
            let live = baseline.scaled(scale);
            let obs = det.observe(&topo, &mapping, &baseline, &live);
            assert!(!obs.fired, "fired on stationary traffic scaled by {scale}: {obs:?}");
            assert!(obs.delta < 1e-12);
        }
    }

    #[test]
    fn rotated_stencil_fires_and_cooldown_holds() {
        let (topo, baseline, mapping) = setup();
        let spec = StencilSpec { rows: 4, cols: 4, edge_volume: 0.0, corner_volume: 8.0 };
        let rotated = stencil_2d_rotated(&spec, 4096.0, 64.0);
        let mut det = DriftDetector::new(DriftConfig { threshold: 0.15, patience: 2, cooldown: 2 });

        // Patience: the first drifted epoch does not fire yet.
        let first = det.observe(&topo, &mapping, &baseline, &rotated);
        assert!(first.over_threshold, "delta {} must exceed threshold", first.delta);
        assert!(!first.fired);
        let second = det.observe(&topo, &mapping, &baseline, &rotated);
        assert!(second.fired);

        // Cooldown: immediately after firing, the same drift is ignored.
        let third = det.observe(&topo, &mapping, &baseline, &rotated);
        assert!(!third.fired);
        let fourth = det.observe(&topo, &mapping, &baseline, &rotated);
        assert!(!fourth.fired);
        // Cooldown over: patience accumulates again.
        let fifth = det.observe(&topo, &mapping, &baseline, &rotated);
        assert!(!fifth.fired);
        let sixth = det.observe(&topo, &mapping, &baseline, &rotated);
        assert!(sixth.fired);
    }

    #[test]
    fn noise_below_threshold_resets_patience() {
        let (topo, baseline, mapping) = setup();
        let spec = StencilSpec { rows: 4, cols: 4, edge_volume: 0.0, corner_volume: 8.0 };
        let rotated = stencil_2d_rotated(&spec, 4096.0, 64.0);
        let mut det = DriftDetector::new(DriftConfig { threshold: 0.15, patience: 2, cooldown: 0 });
        assert!(!det.observe(&topo, &mapping, &baseline, &rotated).fired);
        // A clean epoch in between resets the streak.
        assert!(!det.observe(&topo, &mapping, &baseline, &baseline).fired);
        assert!(!det.observe(&topo, &mapping, &baseline, &rotated).fired);
        assert!(det.observe(&topo, &mapping, &baseline, &rotated).fired);
    }

    #[test]
    fn empty_matrices_are_quiet() {
        let (topo, _, mapping) = setup();
        let zero = CommMatrix::zeros(16);
        let mut det = DriftDetector::new(DriftConfig::default());
        let obs = det.observe(&topo, &mapping, &zero, &zero);
        assert_eq!(obs.delta, 0.0);
        assert!(!obs.fired);
    }

    /// One epoch of `pattern` through `step`, decided under `mapping`.
    fn epoch_of(
        step: &mut DriftStep,
        topo: &Topology,
        mapping: &[usize],
        pattern: &CommMatrix,
    ) -> Option<(DriftObservation, CommMatrix)> {
        pattern.for_each_nonzero(|src, dst, bytes| step.record(src, dst, bytes));
        step.epoch(topo, mapping).1
    }

    fn rotated() -> CommMatrix {
        let spec = StencilSpec { rows: 4, cols: 4, edge_volume: 0.0, corner_volume: 8.0 };
        stencil_2d_rotated(&spec, 4096.0, 64.0)
    }

    #[test]
    fn step_observes_nothing_before_warm_up() {
        let (topo, baseline, mapping) = setup();
        let config = DriftConfig { threshold: 0.15, patience: 1, cooldown: 3 };
        let mut step = DriftStep::new(16, 0.0, config, baseline.symmetrized());
        // Silent epochs close (and count their records) without a verdict.
        for _ in 0..4 {
            assert_eq!(step.epoch(&topo, &mapping), (0, None));
        }
        assert_eq!(step.online().epochs(), 4);
        // They advanced neither patience nor a cooldown: the first epoch
        // with traffic is observed, outside any cooldown, and fires.
        rotated().for_each_nonzero(|src, dst, bytes| step.record(src, dst, bytes));
        let (records, drift) = step.epoch(&topo, &mapping);
        assert!(records > 0);
        let (observation, _) = drift.expect("warmed up");
        assert!(!observation.in_cooldown);
        assert!(observation.fired);
    }

    #[test]
    fn step_runs_the_patience_and_cooldown_sequence() {
        let (topo, baseline, mapping) = setup();
        let config = DriftConfig { threshold: 0.15, patience: 2, cooldown: 2 };
        let mut step = DriftStep::new(16, 0.0, config, baseline.symmetrized());
        let outcomes: Vec<_> =
            (0..6).map(|_| epoch_of(&mut step, &topo, &mapping, &rotated()).unwrap().0.outcome()).collect();
        use orwl_obs::DriftOutcome::{Cooldown, Fired, SuppressedByPatience};
        // Without an adopt the baseline stays, so the same drift fires again
        // once the cooldown and a fresh patience streak have passed.
        assert_eq!(outcomes, [SuppressedByPatience, Fired, Cooldown, Cooldown, SuppressedByPatience, Fired]);
        // A quiet epoch in between resets the streak.
        let mut step = DriftStep::new(16, 0.0, config, baseline.symmetrized());
        assert!(!epoch_of(&mut step, &topo, &mapping, &rotated()).unwrap().0.fired);
        assert!(!epoch_of(&mut step, &topo, &mapping, &baseline).unwrap().0.over_threshold);
        assert!(!epoch_of(&mut step, &topo, &mapping, &rotated()).unwrap().0.fired);
        assert!(epoch_of(&mut step, &topo, &mapping, &rotated()).unwrap().0.fired);
    }

    #[test]
    fn a_step_observes_what_the_detector_observes() {
        // The step keeps the baseline's cost between epochs; a detector
        // handed both matrices every epoch is the reference.  Two epochs
        // under one mapping, one under another, then an adopt and two more
        // under the first: a cost kept across the adopt, or across the
        // mapping change, shows as a different observation.
        let (topo, baseline, mapping) = setup();
        let other: Vec<usize> = mapping.iter().rev().copied().collect();
        let config = DriftConfig { threshold: 0.15, patience: 1, cooldown: 1 };
        let mut step = DriftStep::new(16, 0.5, config, baseline.symmetrized());
        let mut reference = DriftDetector::new(config);
        let mut anchor = baseline.symmetrized();
        let schedule = [
            (&mapping, rotated(), false),
            (&mapping, rotated(), false),
            (&other, baseline.clone(), false),
            (&mapping, rotated(), true),
            (&mapping, baseline.clone(), false),
            (&mapping, baseline.clone(), false),
        ];
        for (k, (on, pattern, adopt)) in schedule.into_iter().enumerate() {
            let (observed, live) = epoch_of(&mut step, &topo, on, &pattern).expect("warmed up");
            let want = reference.observe(&topo, on, &anchor, &live);
            let as_bits =
                |o: &DriftObservation| (o.baseline_cost.to_bits(), o.live_cost.to_bits(), o.delta.to_bits());
            assert_eq!(as_bits(&observed), as_bits(&want), "epoch {k}");
            assert_eq!(observed, want, "epoch {k}");
            if adopt {
                step.adopt(live.clone());
                reference.arm_cooldown();
                anchor = live;
            }
        }
    }

    #[test]
    fn adopt_re_anchors_the_baseline_and_arms_the_cooldown() {
        let (topo, baseline, mapping) = setup();
        // patience 1, no cooldown after a plain fire: only `adopt` arms one.
        let config = DriftConfig { threshold: 0.15, patience: 1, cooldown: 0 };
        let mut step = DriftStep::new(16, 0.0, config, baseline.symmetrized());
        let (first, live) = epoch_of(&mut step, &topo, &mapping, &rotated()).unwrap();
        assert!(first.fired && first.delta > 0.15);
        assert_eq!(live, rotated().symmetrized());
        step.adopt(live);
        // The same live matrix measured against itself: no drift at all.
        let again = epoch_of(&mut step, &topo, &mapping, &rotated()).unwrap().0;
        assert_eq!(again.delta, 0.0);
        assert!(!again.fired && !again.in_cooldown);

        // With a cooldown configured, `adopt` suppresses exactly that many
        // epochs — even of a pattern that has drifted away again.
        let config = DriftConfig { threshold: 0.15, patience: 1, cooldown: 2 };
        let mut step = DriftStep::new(16, 0.0, config, baseline.symmetrized());
        let (_, live) = epoch_of(&mut step, &topo, &mapping, &rotated()).unwrap();
        step.adopt(live);
        let after: Vec<_> =
            (0..3).map(|_| epoch_of(&mut step, &topo, &mapping, &baseline).unwrap().0).collect();
        assert!(
            after.iter().all(|o| o.over_threshold),
            "back on the old pattern = drift from the new baseline"
        );
        assert_eq!(after.iter().map(|o| o.in_cooldown).collect::<Vec<_>>(), [true, true, false]);
        assert_eq!(after.iter().map(|o| o.fired).collect::<Vec<_>>(), [false, false, true]);
    }
}
