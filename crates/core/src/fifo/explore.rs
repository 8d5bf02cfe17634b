//! The queue core checked over every schedule.
//!
//! Scripted tasks drive [`FifoCore`]s the way `Handle`s drive a location's
//! FIFO: post, acquire (take the grant or park), release, release-and-
//! re-post, and a fence that holds each task until all have reached theirs.
//! [`explore`] runs a depth-first search over every interleaving of the
//! tasks' steps, memoised on the whole state; [`walk`] plays seeded random
//! schedules for programs too large for that.  Beside every core runs its
//! specification — per location, the unreleased requests in insertion
//! order — and after every step the search checks:
//!
//! * grants follow insertion order: a write is granted only at the head,
//!   a read only behind reads;
//! * a write holds the grant alone and reads hold it only with reads (what
//!   the payload's `unsafe` in `location.rs` and `handle.rs` rests on);
//! * no wake-up is lost: the wake set of a release is exactly the parked
//!   requests it made grantable, so a parked request is never grantable;
//! * a release that changes no request's grantability wakes nobody.
//!
//! A schedule on which some task never finishes although none can move is
//! a deadlock; the fenced partner cycle has none, the lazily posted one
//! does (the hazard `tests/deadlock_detection.rs` pins at run time).  A
//! failure prints its program seed and the schedule, one task per step.

use super::FifoCore;
use crate::request::{AccessMode, RequestState, RequestToken};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// One step of a task's script; the number is the task's handle.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// `Handle::request`.
    Post(usize),
    /// `Handle::acquire`: granted now, or parked until a release grants it.
    Acquire(usize),
    /// An iterative guard's drop: release and re-post in one step.
    Next(usize),
    /// A one-shot guard's drop, or `Handle::cancel`.
    Release(usize),
    /// Wait until every task has reached its fence.
    Fence,
}

#[derive(Clone, Debug)]
struct Task {
    /// Per handle: its location and mode.
    handles: Vec<(usize, AccessMode)>,
    ops: Vec<Op>,
}

/// One unreleased request, as the specification sees it.
#[derive(Clone, Debug, PartialEq)]
struct Spec {
    seq: u64,
    mode: AccessMode,
    granted: bool,
    waiter: Option<usize>,
}

/// The ORWL rule: the head is grantable, and a read behind reads only.
fn spec_grantable(queue: &[Spec], idx: usize) -> bool {
    idx == 0
        || (queue[idx].mode == AccessMode::Read && queue[..idx].iter().all(|s| s.mode == AccessMode::Read))
}

#[derive(Clone)]
struct World {
    fifos: Vec<FifoCore<usize>>,
    spec: Vec<Vec<Spec>>,
    pc: Vec<usize>,
    parked: Vec<bool>,
    /// Per task and handle, the posted request's sequence number.
    tokens: Vec<Vec<Option<u64>>>,
}

impl World {
    fn new(tasks: &[Task]) -> World {
        let locations = tasks.iter().flat_map(|t| t.handles.iter().map(|h| h.0 + 1)).max().unwrap_or(0);
        World {
            fifos: (0..locations).map(|_| FifoCore::new()).collect(),
            spec: vec![Vec::new(); locations],
            pc: vec![0; tasks.len()],
            parked: vec![false; tasks.len()],
            tokens: tasks.iter().map(|t| vec![None; t.handles.len()]).collect(),
        }
    }

    fn done(&self, tasks: &[Task]) -> bool {
        tasks.iter().enumerate().all(|(t, task)| self.pc[t] == task.ops.len())
    }

    fn enabled(&self, tasks: &[Task]) -> Vec<usize> {
        let at_fence =
            |t: usize| tasks[t].ops.iter().position(|&op| op == Op::Fence).is_none_or(|f| self.pc[t] >= f);
        (0..tasks.len())
            .filter(|&t| {
                !self.parked[t]
                    && match tasks[t].ops.get(self.pc[t]) {
                        None => false,
                        Some(Op::Fence) => (0..tasks.len()).all(at_fence),
                        Some(_) => true,
                    }
            })
            .collect()
    }

    /// The state up to renaming of sequence numbers, which name a request
    /// by its place in its queue: schedules that reach the same queues
    /// under other numbers meet.  The specification is left out, since
    /// [`World::check`] holds it equal to the core.
    fn key(&self, tasks: &[Task]) -> u64 {
        let mut hasher = DefaultHasher::new();
        for fifo in &self.fifos {
            fifo.queue.len().hash(&mut hasher);
            for e in &fifo.queue {
                (e.mode, e.state as u8, e.waiter).hash(&mut hasher);
            }
        }
        (&self.pc, &self.parked).hash(&mut hasher);
        for (task, tokens) in tasks.iter().zip(&self.tokens) {
            for (&(loc, _), token) in task.handles.iter().zip(tokens) {
                token.map(|seq| self.fifos[loc].position(seq)).hash(&mut hasher);
            }
        }
        hasher.finish()
    }

    fn grantable(&self, loc: usize) -> Vec<u64> {
        let queue = &self.spec[loc];
        (0..queue.len()).filter(|&i| spec_grantable(queue, i)).map(|i| queue[i].seq).collect()
    }

    /// Task `t` takes its next step; `Err` names the broken property.
    fn step(&mut self, tasks: &[Task], t: usize) -> Result<(), String> {
        let op = tasks[t].ops[self.pc[t]];
        let handle = match op {
            Op::Post(h) | Op::Acquire(h) | Op::Next(h) | Op::Release(h) => h,
            Op::Fence => {
                self.pc[t] += 1;
                return Ok(());
            }
        };
        let (loc, mode) = tasks[t].handles[handle];
        match op {
            Op::Post(_) => {
                let token = self.fifos[loc].insert(mode);
                self.tokens[t][handle] = Some(token.seq());
                self.spec[loc].push(Spec { seq: token.seq(), mode, granted: false, waiter: None });
                self.pc[t] += 1;
            }
            Op::Acquire(_) => {
                let seq = self.tokens[t][handle].ok_or("the script acquires an unposted handle")?;
                let idx =
                    self.spec[loc].iter().position(|s| s.seq == seq).ok_or("the spec lost a request")?;
                let allowed = self.spec[loc][idx].granted || spec_grantable(&self.spec[loc], idx);
                match self.fifos[loc].try_grant(seq) {
                    Some(true) if allowed => {
                        self.spec[loc][idx].granted = true;
                        self.pc[t] += 1;
                    }
                    Some(true) => {
                        return Err(format!("request {seq} on location {loc} granted out of order"))
                    }
                    Some(false) if allowed => {
                        return Err(format!("grantable request {seq} on {loc} refused"))
                    }
                    Some(false) => {
                        self.fifos[loc].park(seq, t);
                        self.spec[loc][idx].waiter = Some(t);
                        self.parked[t] = true;
                    }
                    None => return Err(format!("the core lost request {seq} on location {loc}")),
                }
            }
            Op::Next(_) | Op::Release(_) => {
                let seq = self.tokens[t][handle].take().ok_or("the script releases an unposted handle")?;
                let mut before = self.grantable(loc);
                before.retain(|&s| s != seq);
                self.spec[loc].retain(|s| s.seq != seq);
                let mut woken = if op == Op::Next(handle) {
                    let (next, wake) = self.fifos[loc].release_and_reinsert(&RequestToken::new(seq, mode));
                    self.tokens[t][handle] = Some(next.seq());
                    self.spec[loc].push(Spec { seq: next.seq(), mode, granted: false, waiter: None });
                    wake
                } else {
                    self.fifos[loc].release(seq)
                };
                // Grantability of the requests queued before the release.
                let mut after = self.grantable(loc);
                after.retain(|&s| Some(s) != self.tokens[t][handle]);
                if before == after && !woken.is_empty() {
                    return Err(format!(
                        "release of {seq} on {loc} changed no grantability but woke tasks {woken:?}"
                    ));
                }
                let mut expected: Vec<usize> = self.spec[loc]
                    .iter()
                    .filter(|s| !s.granted && after.contains(&s.seq))
                    .filter_map(|s| s.waiter)
                    .collect();
                woken.sort_unstable();
                expected.sort_unstable();
                if woken != expected {
                    return Err(format!(
                        "release of {seq} on location {loc} woke tasks {woken:?}; it made tasks {expected:?} grantable"
                    ));
                }
                for u in woken {
                    self.parked[u] = false;
                    self.pc[u] += 1;
                    for s in &mut self.spec[loc] {
                        if s.waiter == Some(u) {
                            (s.granted, s.waiter) = (true, None);
                        }
                    }
                }
                self.pc[t] += 1;
            }
            Op::Fence => unreachable!("handled above"),
        }
        self.check()
    }

    /// The properties every state must have, on every location.
    fn check(&self) -> Result<(), String> {
        for (loc, (fifo, spec)) in self.fifos.iter().zip(&self.spec).enumerate() {
            let live: Vec<Spec> = fifo
                .queue
                .iter()
                .filter(|e| e.state != RequestState::Released)
                .map(|e| Spec {
                    seq: e.seq,
                    mode: e.mode,
                    granted: e.state == RequestState::Allocated,
                    waiter: e.waiter,
                })
                .collect();
            if &live != spec {
                return Err(format!("location {loc}: the core holds {live:?}, the specification {spec:?}"));
            }
            let granted: Vec<AccessMode> = spec.iter().filter(|s| s.granted).map(|s| s.mode).collect();
            if granted.contains(&AccessMode::Write) && granted.len() > 1 {
                return Err(format!("location {loc}: a write shares the grant: {granted:?}"));
            }
            if let Some(lost) = (0..spec.len()).find(|&i| spec[i].waiter.is_some() && spec_grantable(spec, i))
            {
                return Err(format!(
                    "location {loc}: parked request {} is grantable (a lost wake-up)",
                    spec[lost].seq
                ));
            }
        }
        Ok(())
    }
}

/// What a search found.
#[derive(Debug)]
struct Outcome {
    /// Distinct states visited (for [`explore`]) or steps taken (for [`walk`]).
    states: usize,
    /// The first schedule that ended with tasks unable to move.
    deadlock: Option<Vec<usize>>,
}

/// Every interleaving of `tasks`, each state once.
fn explore(tasks: &[Task]) -> Result<Outcome, String> {
    struct Dfs<'a> {
        tasks: &'a [Task],
        seen: HashSet<u64>,
        path: Vec<usize>,
        deadlock: Option<Vec<usize>>,
    }
    impl Dfs<'_> {
        fn visit(&mut self, world: World) -> Result<(), String> {
            if !self.seen.insert(world.key(self.tasks)) {
                return Ok(());
            }
            let enabled = world.enabled(self.tasks);
            if enabled.is_empty() && !world.done(self.tasks) && self.deadlock.is_none() {
                self.deadlock = Some(self.path.clone());
            }
            for t in enabled {
                let mut next = world.clone();
                self.path.push(t);
                next.step(self.tasks, t).map_err(|e| format!("{e}; schedule {:?}", self.path))?;
                self.visit(next)?;
                self.path.pop();
            }
            Ok(())
        }
    }
    let mut dfs = Dfs { tasks, seen: HashSet::new(), path: Vec::new(), deadlock: None };
    dfs.visit(World::new(tasks))?;
    Ok(Outcome { states: dfs.seen.len(), deadlock: dfs.deadlock })
}

/// `runs` seeded random schedules of `tasks`.
fn walk(tasks: &[Task], seed: u64, runs: usize) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let mut outcome = Outcome { states: 0, deadlock: None };
    for _ in 0..runs {
        let (mut world, mut path) = (World::new(tasks), Vec::new());
        loop {
            let enabled = world.enabled(tasks);
            if enabled.is_empty() {
                if !world.done(tasks) && outcome.deadlock.is_none() {
                    outcome.deadlock = Some(path);
                }
                break;
            }
            let t = enabled[rng.below(enabled.len())];
            path.push(t);
            world.step(tasks, t).map_err(|e| format!("{e}; schedule {path:?}"))?;
            outcome.states += 1;
        }
    }
    Ok(outcome)
}

/// xorshift64*, as in the proc control battery: the only source of choice.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1) as u64) as usize
    }
}

/// Task `i` writes location `i` and reads location `i + 1` (mod `n`) with
/// iterative handles, `iterations` times, then cancels both requests.
/// Fenced, both requests are posted before the fence; lazily, each is
/// posted by its first acquire, while the other is still re-posted.
fn partner_cycle(n: usize, iterations: usize, fenced: bool) -> Vec<Task> {
    (0..n)
        .map(|i| {
            let mut ops = if fenced { vec![Op::Post(0), Op::Post(1), Op::Fence] } else { Vec::new() };
            for it in 0..iterations {
                for h in 0..2 {
                    if !fenced && it == 0 {
                        ops.push(Op::Post(h));
                    }
                    ops.extend([Op::Acquire(h), Op::Next(h)]);
                }
            }
            ops.extend([Op::Release(0), Op::Release(1)]);
            Task { handles: vec![(i, AccessMode::Write), ((i + 1) % n, AccessMode::Read)], ops }
        })
        .collect()
}

/// A seeded program: each task holds one or two handles on random
/// locations in random modes, iterative or one-shot, posts them before a
/// fence or lazily, and per iteration takes them one at a time or nested.
fn random_program(seed: u64, tasks: usize, locations: usize, iterations: usize) -> Vec<Task> {
    let mut rng = Rng::new(seed);
    (0..tasks)
        .map(|_| {
            let handles: Vec<_> = (0..1 + rng.below(2))
                .map(|_| (rng.below(locations), [AccessMode::Read, AccessMode::Write][rng.below(2)]))
                .collect();
            let (iterative, fenced, nested) = (rng.below(3) > 0, rng.below(3) > 0, rng.below(2) == 0);
            let hs = 0..handles.len();
            let mut ops: Vec<Op> =
                if fenced { hs.clone().map(Op::Post).chain([Op::Fence]).collect() } else { Vec::new() };
            let drop_op = if iterative { Op::Next } else { Op::Release };
            for it in 0..iterations {
                let post = if iterative { it == 0 && !fenced } else { it > 0 || !fenced };
                let take = |h| if post { vec![Op::Post(h), Op::Acquire(h)] } else { vec![Op::Acquire(h)] };
                if nested {
                    ops.extend(hs.clone().flat_map(take));
                    ops.extend(hs.clone().rev().map(drop_op));
                } else {
                    ops.extend(hs.clone().flat_map(|h| take(h).into_iter().chain([drop_op(h)])));
                }
            }
            if iterative {
                ops.extend(hs.map(Op::Release));
            }
            Task { handles, ops }
        })
        .collect()
}

/// Every program shape up to 3 tasks × 2 locations × 3 iterations, four
/// seeded programs per shape, each explored over all its schedules.  The
/// payload's `unsafe` cites this test for exclusivity.
#[test]
fn exhaustive_small_programs() {
    let mut states = 0;
    for tasks in 1..=3 {
        for locations in 1..=2 {
            for iterations in 1..=3 {
                for seed in 0..4 {
                    let seed = seed * 1_000 + (tasks * 100 + locations * 10 + iterations) as u64;
                    let program = random_program(seed, tasks, locations, iterations);
                    let outcome =
                        explore(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{program:#?}"));
                    states += outcome.states;
                }
            }
        }
    }
    assert!(states > 10_000, "the search covered {states} states");
}

/// Larger programs, on seeded random schedules.
#[test]
fn seeded_schedules_of_larger_programs() {
    for seed in 0..40 {
        let program = random_program(seed, 4, 3, 4);
        walk(&program, seed, 25).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{program:#?}"));
    }
}

#[test]
fn a_fenced_partner_cycle_never_deadlocks() {
    for (n, iterations) in [(1, 3), (2, 1), (2, 2), (2, 3), (3, 2)] {
        let outcome = explore(&partner_cycle(n, iterations, true)).unwrap();
        assert_eq!(outcome.deadlock, None, "{n} partners, {iterations} iterations");
    }
}

#[test]
fn a_lazily_posted_partner_cycle_deadlocks_on_some_schedule() {
    for iterations in 1..=3 {
        let outcome = explore(&partner_cycle(2, iterations, false)).unwrap();
        let schedule = outcome.deadlock.expect("the search finds the lazy-posting deadlock");
        // Replaying the schedule leaves both partners parked.
        let program = partner_cycle(2, iterations, false);
        let mut world = World::new(&program);
        for t in schedule {
            world.step(&program, t).unwrap();
        }
        assert_eq!(world.parked, [true, true], "{iterations} iterations");
    }
}
