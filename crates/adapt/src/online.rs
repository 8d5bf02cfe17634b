//! The epoch-windowed online communication accumulator.
//!
//! Transfers observed during the open epoch accumulate in a *current*
//! matrix; [`OnlineCommMatrix::roll_epoch`] folds it into the *smoothed*
//! estimate with an exponential-decay update
//!
//! ```text
//! smoothed ← decay · smoothed + (1 − decay) · current
//! ```
//!
//! so the estimate tracks the live pattern while old phases fade out
//! geometrically.  Both invariants the rest of the subsystem relies on are
//! preserved by construction and checked by property tests: entries stay
//! non-negative, and symmetric inputs produce symmetric estimates.

use orwl_comm::matrix::CommMatrix;

/// Epoch-windowed, exponentially-decayed estimate of the live
/// task-to-task communication matrix.
#[derive(Debug, Clone)]
pub struct OnlineCommMatrix {
    decay: f64,
    current: CommMatrix,
    smoothed: CommMatrix,
    closed_epochs: u64,
    records_in_epoch: u64,
}

impl OnlineCommMatrix {
    /// Creates an accumulator for `order` tasks.
    ///
    /// `decay ∈ [0, 1)` is the weight the previous estimate keeps at each
    /// epoch roll; `0` tracks only the last epoch, values near `1` average
    /// over many epochs (slower to adapt, smoother).
    ///
    /// # Panics
    /// Panics unless `0 ≤ decay < 1`.
    pub fn new(order: usize, decay: f64) -> Self {
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1), got {decay}");
        OnlineCommMatrix {
            decay,
            current: CommMatrix::zeros(order),
            smoothed: CommMatrix::zeros(order),
            closed_epochs: 0,
            records_in_epoch: 0,
        }
    }

    /// Number of tasks covered.
    pub(crate) fn order(&self) -> usize {
        self.current.order()
    }

    /// Records `bytes` flowing `src → dst` during the open epoch.
    ///
    /// Self-transfers are ignored (they never leave a PU) and zero volumes
    /// are dropped early.
    ///
    /// # Panics
    /// Panics when an index is out of range or `bytes` is negative/NaN.
    pub fn record(&mut self, src: usize, dst: usize, bytes: f64) {
        assert!(src < self.order() && dst < self.order(), "task index out of range");
        assert!(bytes >= 0.0, "transfer volume must be non-negative, got {bytes}");
        if src == dst || bytes == 0.0 {
            return;
        }
        self.current.add(src, dst, bytes);
        self.records_in_epoch += 1;
    }

    /// Closes the open epoch: folds the current window into the smoothed
    /// estimate and clears the window.  Returns the number of transfer
    /// records the closed epoch contained.
    pub fn roll_epoch(&mut self) -> u64 {
        let records = self.records_in_epoch;
        self.smoothed = self.smoothed.scaled(self.decay);
        self.smoothed.add_scaled(&self.current, 1.0 - self.decay);
        self.current.reset();
        self.records_in_epoch = 0;
        self.closed_epochs += 1;
        records
    }

    /// The smoothed (decayed) estimate over all closed epochs.
    pub fn smoothed(&self) -> &CommMatrix {
        &self.smoothed
    }

    /// Symmetrised copy of the smoothed estimate — the form the placement
    /// algorithms consume.
    pub(crate) fn smoothed_symmetric(&self) -> CommMatrix {
        self.smoothed.symmetrized()
    }

    /// Number of closed epochs.
    pub fn epochs(&self) -> u64 {
        self.closed_epochs
    }

    /// True once at least one closed epoch contributed actual traffic —
    /// before that the estimate is all zeros and no drift decision should
    /// be made from it.
    pub(crate) fn is_warmed_up(&self) -> bool {
        self.closed_epochs > 0 && self.smoothed.total_volume() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_and_roll_into_the_estimate() {
        let mut m = OnlineCommMatrix::new(4, 0.5);
        assert!(!m.is_warmed_up());
        m.record(0, 1, 100.0);
        m.record(1, 0, 100.0);
        m.record(0, 0, 999.0); // self transfer: ignored
        assert_eq!(m.smoothed().total_volume(), 0.0, "an open epoch is not part of the estimate yet");

        assert_eq!(m.roll_epoch(), 2);
        assert!(m.is_warmed_up());
        // (1 - decay) · 100.
        assert_eq!(m.smoothed().get(0, 1), 50.0);
        assert_eq!(m.smoothed().get(0, 0), 0.0);

        // A silent epoch decays the estimate geometrically.
        assert_eq!(m.roll_epoch(), 0);
        assert_eq!(m.smoothed().get(0, 1), 25.0);
        assert_eq!(m.epochs(), 2);
    }

    #[test]
    fn decay_zero_tracks_only_the_last_epoch() {
        let mut m = OnlineCommMatrix::new(2, 0.0);
        m.record(0, 1, 10.0);
        m.roll_epoch();
        assert_eq!(m.smoothed().get(0, 1), 10.0);
        m.record(1, 0, 4.0);
        m.roll_epoch();
        assert_eq!(m.smoothed().get(0, 1), 0.0);
        assert_eq!(m.smoothed().get(1, 0), 4.0);
    }

    #[test]
    fn steady_pattern_converges_to_its_per_epoch_volume() {
        let mut m = OnlineCommMatrix::new(2, 0.8);
        for _ in 0..200 {
            m.record(0, 1, 7.0);
            m.roll_epoch();
        }
        // Fixed point of s = 0.8 s + 0.2 · 7 is 7.
        assert!((m.smoothed().get(0, 1) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn symmetric_recording_yields_symmetric_estimate() {
        let mut m = OnlineCommMatrix::new(3, 0.6);
        for (a, b, v) in [(0, 1, 5.0), (1, 2, 3.0)] {
            m.record(a, b, v);
            m.record(b, a, v);
        }
        m.roll_epoch();
        assert!(m.smoothed().is_symmetric());
        assert!(m.smoothed_symmetric().is_symmetric());
    }

    #[test]
    #[should_panic]
    fn negative_volumes_are_rejected() {
        OnlineCommMatrix::new(2, 0.5).record(0, 1, -1.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_task_is_rejected() {
        OnlineCommMatrix::new(2, 0.5).record(0, 5, 1.0);
    }

    #[test]
    #[should_panic]
    fn decay_of_one_is_rejected() {
        OnlineCommMatrix::new(2, 1.0);
    }
}
