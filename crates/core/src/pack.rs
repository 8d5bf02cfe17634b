//! Pack or spread: whether a static TreeMatch run binds every task thread
//! to one PU.
//!
//! TreeMatch minimises hop-bytes, which cannot tell spreading a program
//! over equidistant PUs from packing it onto one.  A lock handoff can: a
//! wake that crosses PUs costs several times one that stays on its PU.  So
//! the runtime prices two bindings of a static TreeMatch run and binds the
//! cheaper one: TreeMatch's plan ("spread"), and every compute thread on
//! the PU TreeMatch gave task 0 ("pack").
//!
//! The price is a *play* of the program's declared links under ORWL's
//! canonical fenced init:
//!
//! * a task takes its links in declared order, one section per link and
//!   iteration;
//! * per location and iteration the FIFO holds the writers by task id,
//!   then the readers by task id; a write waits for every earlier entry, a
//!   read for every earlier write;
//! * a section of task *t* costs `1 + compute[t]` units on *t*'s PU, one
//!   unit being a same-PU handoff, and a PU runs the sections ready on it
//!   one at a time, in the order they became ready;
//! * a wake that crosses PUs adds [`CROSS_PU_WAKE`] units.
//!
//! The decision is made in two steps.  The declared links alone, played
//! with no compute ([`Probe::screen`]), keep the spread for most programs,
//! and those are bound and run as TreeMatch planned.  Where they price the
//! pack cheaper, the run still starts spread, and each task thread measures
//! its compute per section — the time it spends outside the lock calls —
//! over its first [`SAMPLES`] sections.  The last thread to report plays
//! again with those costs ([`Probe::report`]); if the pack is still
//! cheaper, every task thread re-binds itself to task 0's PU at its next
//! lock call.  DESIGN.md, "Pack or spread".

use crate::fifo;
use crate::location::LocationId;
use crate::request::AccessMode;
use crate::task::TaskSpec;
use orwl_topo::binding::Binder;
use orwl_topo::bitmap::CpuSet;
use orwl_treematch::mapping::Placement;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a wake that crosses PUs adds to a handoff, in sections: on a 2-vCPU
/// guest `core.fifo_pair_handoff_us` reads 5.0–7.4 µs across the vCPUs and
/// 1.2–1.3 µs on one.
const CROSS_PU_WAKE: usize = 4;

/// The play's unit, a same-PU handoff (1.2–1.3 µs above), in nanoseconds:
/// a measured compute per section is priced in these.
const HANDOFF_NS: u64 = 1250;

/// Sections a task thread measures before it reports its compute; the
/// median of them is the task's compute per section.
const SAMPLES: usize = 16;

/// Iterations of the play: enough for a FIFO period to repeat.
const PLAY_ITERATIONS: usize = 6;

/// The longest packed play, in units.  A program whose measured sections
/// add up to more keeps the spread: a crossing wake is then a small share
/// of its run, and the play's time lists stay small.
const MAX_PLAY_UNITS: usize = 1 << 16;

/// Whether every task on `pus[0]` plays cheaper than task `t` on `pus[t]`,
/// with task `t`'s sections costing `1 + compute[t]` units and cross-PU
/// wakes `delta`.  A tie keeps the spread, and so does a declared link
/// order the play cannot finish.
fn pack_is_cheaper(play: &Play, pus: &[usize], compute: &[usize], delta: usize) -> bool {
    if pus.iter().all(|&pu| pu == pus[0]) {
        return false;
    }
    let cost: Vec<usize> = compute.iter().map(|&c| c.saturating_add(1)).collect();
    // Packed, no wake crosses and the one PU never idles while a section
    // is ready: the price is the sum of the sections' costs.
    let packed =
        play.task.iter().fold(0usize, |sum, &t| sum.saturating_add(cost[t])).saturating_mul(PLAY_ITERATIONS);
    packed <= MAX_PLAY_UNITS && play.makespan(pus, &cost, delta).is_some_and(|spread| packed < spread)
}

/// `spread` with every compute thread on task 0's PU; control threads keep
/// their binding.
pub(crate) fn packed(spread: &Placement) -> Placement {
    Placement {
        compute: vec![spread.compute.first().copied().flatten(); spread.compute.len()],
        control: spread.control.clone(),
    }
}

const PENDING: u8 = 0;
const SPREAD: u8 = 1;
const PACK: u8 = 2;

/// A static TreeMatch run whose declared links price the pack cheaper: its
/// task threads measure their compute, and the last to report decides.
pub(crate) struct Probe {
    play: Play,
    /// TreeMatch's PU for each task.
    spread: Vec<usize>,
    /// Each task's measured compute per section, in units: stored before
    /// its reporter's `AcqRel` decrement of `unreported`, which the last
    /// reporter's decrement acquires before it reads them.
    compute: Vec<AtomicUsize>,
    unreported: AtomicUsize,
    /// `PENDING`, then `SPREAD` or `PACK`: stored once, `Release`, read
    /// `Acquire` by the task threads.
    decision: AtomicU8,
    /// Task threads that re-bound to the packed PU, or were already on it;
    /// read after every task thread was joined.
    packed_threads: AtomicUsize,
    binder: Arc<dyn Binder>,
}

impl Probe {
    /// The probe of a run of `specs` that TreeMatch placed on `spread`,
    /// when the declared links played with no compute price the pack
    /// cheaper; `None` binds and keeps `spread`.  Packing needs every
    /// compute thread bound.
    pub(crate) fn screen(
        specs: &[TaskSpec],
        spread: &Placement,
        binder: Arc<dyn Binder>,
    ) -> Option<Arc<Probe>> {
        let pus: Vec<usize> = spread.compute.iter().copied().collect::<Option<_>>()?;
        let play = Play::new(specs);
        if !pack_is_cheaper(&play, &pus, &vec![0; pus.len()], CROSS_PU_WAKE) {
            return None;
        }
        Some(Arc::new(Probe {
            play,
            compute: pus.iter().map(|_| AtomicUsize::new(0)).collect(),
            unreported: AtomicUsize::new(pus.len()),
            spread: pus,
            decision: AtomicU8::new(PENDING),
            packed_threads: AtomicUsize::new(0),
            binder,
        }))
    }

    /// True when the run decided to pack and every task thread moved.
    pub(crate) fn packed(&self) -> bool {
        self.packed_threads.load(Ordering::Relaxed) == self.spread.len()
    }

    /// Task `task`'s compute per section, in nanoseconds; the last report
    /// decides.
    fn report(&self, task: usize, compute_ns: u64) {
        let units = (compute_ns + HANDOFF_NS / 2) / HANDOFF_NS;
        self.compute[task].store(usize::try_from(units).unwrap_or(usize::MAX), Ordering::Relaxed);
        if self.unreported.fetch_sub(1, Ordering::AcqRel) == 1 {
            let compute: Vec<usize> = self.compute.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            let pack = pack_is_cheaper(&self.play, &self.spread, &compute, CROSS_PU_WAKE);
            self.decision.store(if pack { PACK } else { SPREAD }, Ordering::Release);
        }
    }

    /// Binds the calling thread, task `task`, to the packed PU when the run
    /// decided to pack; false while the decision is pending.  A failed
    /// re-bind is not fatal: the thread keeps TreeMatch's PU, and the run
    /// reports the spread.
    fn apply(&self, task: usize) -> bool {
        match self.decision.load(Ordering::Acquire) {
            PENDING => false,
            SPREAD => true,
            _ => {
                let pu = self.spread[0];
                let moved = self.spread[task] == pu
                    || self.binder.bind_current_thread(&CpuSet::singleton(pu)).is_ok_and(|()| {
                        fifo::read_home(&*self.binder);
                        true
                    });
                if moved {
                    self.packed_threads.fetch_add(1, Ordering::Relaxed);
                }
                true
            }
        }
    }
}

/// A task thread's side of its run's [`Probe`].
struct TaskProbe {
    task: usize,
    probe: Arc<Probe>,
    /// Each measured section's compute in nanoseconds: its hold, plus the
    /// time since the thread left its previous lock call.  `None` once
    /// reported.
    samples: Option<Vec<u64>>,
    /// The compute of the section under way, and when the thread last
    /// left a lock call.
    section: u64,
    since: Option<Instant>,
}

impl TaskProbe {
    /// Reports the median measured section (0 when none was measured).
    fn report(&mut self) {
        if let Some(mut samples) = self.samples.take() {
            samples.sort_unstable();
            self.probe.report(self.task, samples.get(samples.len() / 2).copied().unwrap_or(0));
        }
    }
}

thread_local! {
    /// Whether the thread has a [`TaskProbe`]: all the lock path reads in
    /// a thread that has none.
    static PROBING: Cell<bool> = const { Cell::new(false) };
    static SCOPE: RefCell<Option<TaskProbe>> = const { RefCell::new(None) };
}

/// RAII scope marking the calling thread as task `task` of `probe`'s run;
/// dropping it reports what the thread measured, if it has not yet.
pub(crate) struct ProbeGuard {
    _priv: (),
}

/// Installs the calling thread's probe scope as task `task` of `probe`.
pub(crate) fn enter_task(task: usize, probe: Arc<Probe>) -> ProbeGuard {
    SCOPE.set(Some(TaskProbe {
        task,
        probe,
        samples: Some(Vec::with_capacity(SAMPLES)),
        section: 0,
        since: None,
    }));
    PROBING.set(true);
    ProbeGuard { _priv: () }
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        PROBING.set(false);
        if let Some(mut scope) = SCOPE.take() {
            scope.report();
        }
    }
}

/// The lock path's hook where a thread enters a lock call: `Handle::acquire`
/// and the release of a guard.  A release closes the section.
#[inline]
pub(crate) fn lock_call(closes_section: bool) {
    if PROBING.get() {
        SCOPE.with_borrow_mut(|scope| {
            let Some(scope) = scope else { return };
            if let Some(since) = scope.since.take() {
                scope.section += since.elapsed().as_nanos() as u64;
            }
            if let (true, Some(samples)) = (closes_section, &mut scope.samples) {
                samples.push(std::mem::take(&mut scope.section));
                if samples.len() == SAMPLES {
                    scope.report();
                }
            }
        });
    }
}

/// The lock path's hook where a thread leaves a lock call, after a grant
/// or a release: it measures from here, or re-binds once the run has
/// decided.
#[inline]
pub(crate) fn lock_call_done() {
    if PROBING.get() {
        let done = SCOPE.with_borrow_mut(|scope| {
            let Some(scope) = scope else { return true };
            if scope.samples.is_some() {
                scope.since = Some(Instant::now());
                false
            } else {
                scope.probe.apply(scope.task)
            }
        });
        if done {
            PROBING.set(false);
            SCOPE.take();
        }
    }
}

/// One iteration's sections, one per declared link in task then declared
/// order, and the edges between them by index.
struct Play {
    /// The task of each section.
    task: Vec<usize>,
    /// The successors of section `s` are the entries of `next` from
    /// `first_next[s]` up to `first_next[s + 1]`: each a section, and
    /// whether it is the one of the next iteration.
    first_next: Vec<usize>,
    next: Vec<(usize, bool)>,
    /// Each section's predecessors in its own iteration and in the one
    /// before.
    preds: Vec<[u32; 2]>,
}

impl Play {
    fn new(specs: &[TaskSpec]) -> Self {
        let task: Vec<usize> =
            specs.iter().enumerate().flat_map(|(t, spec)| std::iter::repeat_n(t, spec.links.len())).collect();
        // (from, to, whether `to` is the next iteration's)
        let mut edges: Vec<(usize, usize, bool)> = Vec::with_capacity(3 * task.len());
        // A task's links follow each other, and its first link of the next
        // iteration follows its last.
        let mut first = 0;
        for spec in specs {
            let last = first + spec.links.len();
            edges.extend((first + 1..last).map(|s| (s - 1, s, false)));
            if last > first {
                edges.push((last - 1, first, true));
            }
            first = last;
        }
        // Per location: writers, then readers, each in section (task) order.
        let mut entries: Vec<(LocationId, bool, usize)> = specs
            .iter()
            .flat_map(|spec| &spec.links)
            .enumerate()
            .map(|(s, link)| (link.location, link.mode == AccessMode::Read, s))
            .collect();
        entries.sort_unstable();
        for fifo in entries.chunk_by(|a, b| a.0 == b.0) {
            let (writes, reads) = fifo.split_at(fifo.partition_point(|&(_, read, _)| !read));
            // Reads of a location nobody writes wait for nothing.
            let (Some(&(.., first)), Some(&(.., last))) = (writes.first(), writes.last()) else { continue };
            edges.extend(writes.windows(2).map(|pair| (pair[0].2, pair[1].2, false)));
            for &(.., r) in reads {
                edges.extend([(last, r, false), (r, first, true)]);
            }
            if reads.is_empty() {
                edges.push((last, first, true));
            }
        }
        // Group the edges by their first section (a counting sort).
        let n = task.len();
        let mut first_next = vec![0; n + 1];
        let mut preds = vec![[0; 2]; n];
        for &(from, to, next_iteration) in &edges {
            first_next[from + 1] += 1;
            preds[to][usize::from(next_iteration)] += 1;
        }
        for s in 0..n {
            first_next[s + 1] += first_next[s];
        }
        let mut fill = first_next.clone();
        let mut next = vec![(0, false); edges.len()];
        for (from, to, next_iteration) in edges {
            next[fill[from]] = (to, next_iteration);
            fill[from] += 1;
        }
        Play { task, first_next, next, preds }
    }

    /// Sections over all iterations of the play.
    fn sections(&self) -> usize {
        self.task.len() * PLAY_ITERATIONS
    }

    /// The makespan of [`PLAY_ITERATIONS`] iterations with task `t` on PU
    /// `pus[t]` and its sections costing `cost[t]` units (at least one);
    /// `None` when the declared order deadlocks.
    ///
    /// Section `s` is link `s / PLAY_ITERATIONS` in iteration
    /// `s % PLAY_ITERATIONS`.  A section becomes ready after the clock, so
    /// the ready sections wait in one list per unit of time, in the order
    /// they became ready: each section is listed and played once.
    fn makespan(&self, pus: &[usize], cost: &[usize], delta: usize) -> Option<usize> {
        const K: usize = PLAY_ITERATIONS;
        let total = self.sections();
        let mut pending: Vec<u32> = (0..total)
            .map(|s| self.preds[s / K][0] + if s % K == 0 { 0 } else { self.preds[s / K][1] })
            .collect();
        let link_pu: Vec<usize> = self.task.iter().map(|&t| pus[t]).collect();
        let mut ready = vec![0; total];
        let mut pu_free = vec![0; pus.iter().max().map_or(0, |&pu| pu + 1)];
        let mut due = DueLists::new(total);
        for s in (0..total).filter(|&s| pending[s] == 0) {
            due.push(s, 0);
        }
        let (mut played, mut makespan, mut now) = (0, 0, 0);
        while now < due.heads.len() {
            let mut s = due.heads[now];
            while s != NO_SECTION {
                let (link, iteration) = (s / K, s % K);
                let pu = link_pu[link];
                let end = now.max(pu_free[pu]) + cost[self.task[link]];
                pu_free[pu] = end;
                makespan = makespan.max(end);
                played += 1;
                for &(to, next_iteration) in &self.next[self.first_next[link]..self.first_next[link + 1]] {
                    let k = iteration + usize::from(next_iteration);
                    if k == K {
                        continue;
                    }
                    let succ = to * K + k;
                    let wake = if link_pu[to] == pu { end } else { end + delta };
                    ready[succ] = ready[succ].max(wake);
                    pending[succ] -= 1;
                    if pending[succ] == 0 {
                        due.push(succ, ready[succ]);
                    }
                }
                s = due.after[s];
            }
            now += 1;
        }
        (played == total).then_some(makespan)
    }
}

const NO_SECTION: usize = usize::MAX;

/// The sections that became ready at each unit of time, as singly linked
/// lists in the order they were pushed.
struct DueLists {
    /// First and last section of each time's list.
    heads: Vec<usize>,
    tails: Vec<usize>,
    /// The section after each one in its list.
    after: Vec<usize>,
}

impl DueLists {
    fn new(sections: usize) -> Self {
        DueLists { heads: Vec::new(), tails: Vec::new(), after: vec![NO_SECTION; sections] }
    }

    fn push(&mut self, s: usize, time: usize) {
        if time >= self.heads.len() {
            self.heads.resize(time + 1, NO_SECTION);
            self.tails.resize(time + 1, NO_SECTION);
        }
        match self.tails[time] {
            NO_SECTION => self.heads[time] = s,
            tail => self.after[tail] = s,
        }
        self.tails[time] = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::LocationLink;
    use orwl_topo::binding::RecordingBinder;

    const DELTAS: [usize; 4] = [3, 4, 8, 16];

    /// One writer (task 0) and `readers` readers of location 0.
    fn hub(readers: usize) -> Vec<TaskSpec> {
        let hub = LocationId(0);
        let mut specs = vec![TaskSpec::new("writer", vec![LocationLink::write(hub, 8.0)])];
        specs.extend(
            (0..readers).map(|r| TaskSpec::new(format!("reader-{r}"), vec![LocationLink::read(hub, 8.0)])),
        );
        specs
    }

    /// LK23's declared links on `side`×`side` blocks: each block writes its
    /// main location, then one frontier per 8-neighbour, then reads every
    /// neighbour's frontier facing it.
    fn lk23_blocks(side: usize) -> Vec<TaskSpec> {
        let neighbours = |b: usize| {
            let (i, j) = ((b / side) as isize, (b % side) as isize);
            (0..9usize).filter(|&d| d != 4).filter_map(move |d| {
                let (ni, nj) = (i + d as isize / 3 - 1, j + d as isize % 3 - 1);
                let inside = (0..side as isize).contains(&ni) && (0..side as isize).contains(&nj);
                inside.then(|| (d, ni as usize * side + nj as usize))
            })
        };
        let frontier = |b: usize, d: usize| LocationId((1 + b * 9 + d) as u64 * 1000);
        (0..side * side)
            .map(|b| {
                let mut links = vec![LocationLink::write(LocationId(b as u64), 2048.0)];
                links.extend(neighbours(b).map(|(d, _)| LocationLink::write(frontier(b, d), 32.0)));
                links.extend(neighbours(b).map(|(d, nb)| LocationLink::read(frontier(nb, 8 - d), 32.0)));
                TaskSpec::new(format!("block-{b}"), links)
            })
            .collect()
    }

    /// Task `t` on PU `t % 2`.
    fn round_robin(n: usize) -> Vec<usize> {
        (0..n).map(|t| t % 2).collect()
    }

    /// Whether `specs` pack on `pus` with no compute.
    fn packs(specs: &[TaskSpec], pus: &[usize], delta: usize) -> bool {
        pack_is_cheaper(&Play::new(specs), pus, &vec![0; pus.len()], delta)
    }

    /// The packed and the spread makespan.
    fn prices(specs: &[TaskSpec], spread: &[usize], compute: &[usize], delta: usize) -> (usize, usize) {
        let play = Play::new(specs);
        let cost: Vec<usize> = compute.iter().map(|c| c + 1).collect();
        let packed = vec![spread[0]; spread.len()];
        (play.makespan(&packed, &cost, delta).unwrap(), play.makespan(spread, &cost, delta).unwrap())
    }

    /// The hub's readers computing `units` per section, its writer nothing.
    fn readers_compute(readers: usize, units: usize) -> Vec<usize> {
        [vec![0], vec![units; readers]].concat()
    }

    #[test]
    fn a_hub_packs_for_every_delta() {
        for readers in [1, 3, 7] {
            for delta in DELTAS {
                assert!(
                    packs(&hub(readers), &round_robin(readers + 1), delta),
                    "{readers} readers, delta {delta}"
                );
            }
        }
    }

    #[test]
    fn lk23_blocks_spread_for_every_delta() {
        let specs = lk23_blocks(4);
        for delta in DELTAS {
            assert!(!packs(&specs, &round_robin(16), delta), "delta {delta}");
            let (pack, spread) = prices(&specs, &round_robin(16), &[0; 16], delta);
            assert!(spread < pack, "delta {delta}: spread {spread}, pack {pack}");
        }
    }

    /// The measured wake on the `hub_fanout` shape, homed like TreeMatch
    /// homes it on two PUs (the writer and three readers on one): eight
    /// sections an iteration when packed; spread, each period waits for
    /// the wake to cross to the other PU and back.  Packing is the cheaper
    /// binding only because a crossing wake costs something.
    #[test]
    fn the_measured_wake_packs_the_hub_at_48_units_against_74() {
        let four_and_four = [0, 0, 0, 0, 1, 1, 1, 1];
        assert_eq!(prices(&hub(7), &four_and_four, &[0; 8], CROSS_PU_WAKE), (48, 74));
        assert!(packs(&hub(7), &four_and_four, CROSS_PU_WAKE));
    }

    /// Readers that compute between their handoffs run in parallel only
    /// when spread: from two units a section (2.5 µs) the hub keeps
    /// TreeMatch's plan at the measured wake, and readers computing 50 µs
    /// keep it for every wake.  One reader alternates with its writer
    /// whatever it computes, so it packs.
    #[test]
    fn a_hub_whose_readers_compute_keeps_the_spread() {
        let four_and_four = [0, 0, 0, 0, 1, 1, 1, 1];
        let play = Play::new(&hub(7));
        assert!(pack_is_cheaper(&play, &four_and_four, &readers_compute(7, 1), CROSS_PU_WAKE));
        assert!(!pack_is_cheaper(&play, &four_and_four, &readers_compute(7, 2), CROSS_PU_WAKE));
        for delta in DELTAS {
            assert!(pack_is_cheaper(&Play::new(&hub(1)), &[0, 1], &readers_compute(1, 40), delta), "{delta}");
            for readers in [3, 7] {
                let play = Play::new(&hub(readers));
                let compute = readers_compute(readers, 40);
                assert!(
                    !pack_is_cheaper(&play, &round_robin(readers + 1), &compute, delta),
                    "{readers}, {delta}"
                );
            }
        }
    }

    /// A writer that computes, and readers that do not: only one task
    /// works at a time, so the pack costs the spread nothing but its wakes.
    #[test]
    fn a_hub_whose_writer_alone_computes_still_packs() {
        let compute = [vec![40], vec![0; 7]].concat();
        assert!(pack_is_cheaper(&Play::new(&hub(7)), &round_robin(8), &compute, CROSS_PU_WAKE));
    }

    /// What lets `pack_is_cheaper` price the packed binding without a
    /// play.
    #[test]
    fn a_packed_play_is_the_sum_of_its_sections() {
        let lk23 = lk23_blocks(4);
        assert_eq!(
            lk23.iter().map(|s| s.links.len()).sum::<usize>(),
            16 + 2 * 84,
            "16 mains, 84 pairs each way"
        );
        for specs in [lk23, hub(7), hub(1)] {
            let spread = round_robin(specs.len());
            let play = Play::new(&specs);
            assert_eq!(prices(&specs, &spread, &vec![0; specs.len()], CROSS_PU_WAKE).0, play.sections());
            let compute: Vec<usize> = (0..specs.len()).map(|t| t % 3).collect();
            let sum: usize = play.task.iter().map(|&t| 1 + compute[t]).sum();
            assert_eq!(prices(&specs, &spread, &compute, CROSS_PU_WAKE).0, PLAY_ITERATIONS * sum);
        }
    }

    #[test]
    fn independent_tasks_stay_spread() {
        let specs: Vec<TaskSpec> = (0..4)
            .map(|t| TaskSpec::new(format!("own-{t}"), vec![LocationLink::write(LocationId(t), 1.0)]))
            .collect();
        assert!(!packs(&specs, &round_robin(4), CROSS_PU_WAKE));
        assert_eq!(prices(&specs, &[0, 1, 0, 1], &[0; 4], CROSS_PU_WAKE), (24, 12));
    }

    #[test]
    fn a_declared_order_the_play_cannot_finish_keeps_the_spread() {
        // Each task reads the other's location before writing its own.
        let (a, b) = (LocationId(0), LocationId(1));
        let specs = vec![
            TaskSpec::new("a", vec![LocationLink::read(b, 8.0), LocationLink::write(a, 8.0)]),
            TaskSpec::new("b", vec![LocationLink::read(a, 8.0), LocationLink::write(b, 8.0)]),
        ];
        assert_eq!(Play::new(&specs).makespan(&[0, 1], &[1, 1], CROSS_PU_WAKE), None);
        assert!(!packs(&specs, &[0, 1], CROSS_PU_WAKE));
    }

    /// Sections too heavy for the play's time lists keep the spread.
    #[test]
    fn a_play_longer_than_its_bound_keeps_the_spread() {
        let play = Play::new(&hub(7));
        let heavy = MAX_PLAY_UNITS / PLAY_ITERATIONS;
        assert!(!pack_is_cheaper(&play, &round_robin(8), &[vec![heavy], vec![0; 7]].concat(), CROSS_PU_WAKE));
    }

    fn placement(pus: &[usize]) -> Placement {
        Placement { compute: pus.iter().copied().map(Some).collect(), control: vec![Some(1)] }
    }

    #[test]
    fn an_unbound_or_already_packed_plan_is_not_probed() {
        let binder = || Arc::new(RecordingBinder::new()) as Arc<dyn Binder>;
        let mut unbound = placement(&round_robin(4));
        unbound.compute[2] = None;
        assert!(Probe::screen(&hub(3), &unbound, binder()).is_none());
        assert!(Probe::screen(&hub(3), &placement(&[1; 4]), binder()).is_none());
        assert!(Probe::screen(&lk23_blocks(4), &placement(&round_robin(16)), binder()).is_none());
        assert!(Probe::screen(&hub(3), &placement(&round_robin(4)), binder()).is_some());
    }

    #[test]
    fn the_packed_plan_moves_compute_threads_only() {
        let packed = packed(&placement(&[1, 0, 1, 0]));
        assert_eq!(packed, Placement { compute: vec![Some(1); 4], control: vec![Some(1)] });
    }

    /// The hub's probe: the last report decides, from the medians it is
    /// given in nanoseconds, and `apply` moves a thread only once the run
    /// decided to pack.
    #[test]
    fn the_last_report_decides() {
        for (reader_ns, pack) in [(300, true), (50_000, false)] {
            let binder = Arc::new(RecordingBinder::new());
            let probe = Probe::screen(&hub(3), &placement(&[1, 0, 1, 0]), binder.clone()).unwrap();
            probe.report(0, 0);
            for task in 1..3 {
                probe.report(task, reader_ns);
                assert!(!probe.apply(task), "pending until every task reported");
            }
            probe.report(3, reader_ns);
            for task in 0..4 {
                assert!(probe.apply(task));
            }
            let moved = if pack { vec![CpuSet::singleton(1); 2] } else { vec![] };
            assert_eq!(binder.anonymous_bindings(), moved, "readers at {reader_ns} ns");
            assert_eq!(probe.packed(), pack);
        }
    }

    /// Drives the hooks as `Handle` does, for `sections` sections that each
    /// compute about `busy` between two lock calls, on a fresh thread.
    fn sections_of(probe: &Arc<Probe>, task: usize, sections: usize, busy: std::time::Duration) {
        let probe = Arc::clone(probe);
        std::thread::spawn(move || {
            let _scope = enter_task(task, probe);
            for _ in 0..sections {
                lock_call(false);
                lock_call_done();
                let start = Instant::now();
                while start.elapsed() < busy {
                    std::hint::spin_loop();
                }
                lock_call(true);
                lock_call_done();
            }
        })
        .join()
        .unwrap();
    }

    /// The hooks measure the time between lock calls: a thread that
    /// spins 200 µs a section reports at least 160 units, after its first
    /// `SAMPLES` sections; a thread that ends sooner reports what it has.
    /// Two such readers keep the spread.
    #[test]
    fn the_hooks_measure_compute_between_lock_calls() {
        let probe = Probe::screen(&hub(2), &placement(&[0, 1, 0]), Arc::new(RecordingBinder::new())).unwrap();
        for reader in [1, 2] {
            sections_of(&probe, reader, SAMPLES + 3, std::time::Duration::from_micros(200));
            assert!(probe.compute[reader].load(Ordering::Relaxed) >= 160);
        }
        assert_eq!(probe.unreported.load(Ordering::Relaxed), 1);
        sections_of(&probe, 0, 2, std::time::Duration::ZERO);
        assert!(probe.compute[0].load(Ordering::Relaxed) < 160);
        assert_eq!(probe.decision.load(Ordering::Relaxed), SPREAD);
        assert!(!PROBING.get(), "a thread without a scope reads one flag");
    }
}
