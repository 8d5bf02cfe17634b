//! Capacity-bounded k-way graph partitioning: the *node-assignment* stage
//! of two-level (cluster-scale) placement.
//!
//! Before TreeMatch maps threads inside a machine, cluster placement must
//! first decide **which machine each task runs on**, minimising the traffic
//! that crosses the fabric.  This module partitions the entities of a
//! communication matrix into `k` parts of bounded capacity so that the
//! weighted inter-part cut is small: a constructive greedy phase (seeded by
//! the heaviest communicators, like [`crate::grouping`]) followed by a
//! Kernighan–Lin-style refinement of single moves and pairwise swaps.
//!
//! Parts can be non-uniformly "far" from each other (racks!): the cut is
//! weighted by a caller-supplied part-distance matrix, so a partitioner
//! aware of the fabric prefers spilling across nearby parts.

use crate::algorithm::TreeMatchMapper;
use orwl_comm::matrix::CommMatrix;
use orwl_comm::sparse::SparseComm;
use orwl_topo::topology::Topology;

/// Stage 2 of two-level placement, shared by `Policy::Hierarchical` and
/// the cluster backend's fabric-aware placement: run TreeMatch *inside*
/// each part of `assignment` on `part_topo` (the per-part subtree), and
/// reindex the part-local PUs into the global space — part `q`'s subtree
/// owns the contiguous global range `q * pus_per_part ..`.
pub fn treematch_within_parts(
    part_topo: &Topology,
    m: &CommMatrix,
    assignment: &[usize],
    n_parts: usize,
    pus_per_part: usize,
) -> Vec<Option<usize>> {
    let n = m.order();
    let mut compute = vec![None; n];
    for part in 0..n_parts {
        let members: Vec<usize> = (0..n).filter(|&t| assignment[t] == part).collect();
        if members.is_empty() {
            continue;
        }
        let sub = m.select(&members);
        let local = TreeMatchMapper::compute_only().compute_placement(part_topo, &sub);
        for (i, &t) in members.iter().enumerate() {
            compute[t] = local.compute[i].map(|pu| part * pus_per_part + pu);
        }
    }
    compute
}

/// Relative communication cost between parts: `cost(a, b)` scales every
/// byte cut between parts `a` and `b`.  Must be symmetric with a zero
/// diagonal.
#[derive(Debug, Clone)]
pub struct PartCosts {
    n_parts: usize,
    costs: Vec<f64>,
}

impl PartCosts {
    /// Uniform costs: every inter-part byte costs `1`, intra-part is free.
    pub fn uniform(n_parts: usize) -> Self {
        let mut costs = vec![1.0; n_parts * n_parts];
        for p in 0..n_parts {
            costs[p * n_parts + p] = 0.0;
        }
        PartCosts { n_parts, costs }
    }

    /// Builds costs from a function over part pairs; the diagonal is forced
    /// to zero and the matrix is symmetrised by averaging.
    pub fn from_fn(n_parts: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut costs = vec![0.0; n_parts * n_parts];
        for a in 0..n_parts {
            for b in 0..n_parts {
                costs[a * n_parts + b] = if a == b { 0.0 } else { (f(a, b) + f(b, a)) / 2.0 };
            }
        }
        PartCosts { n_parts, costs }
    }

    /// Number of parts.
    pub(crate) fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// The relative cost between two parts.
    pub(crate) fn cost(&self, a: usize, b: usize) -> f64 {
        self.costs[a * self.n_parts + b]
    }
}

/// The weighted cut of an assignment: `Σ m[i][j] · cost(part_i, part_j)`.
/// With [`PartCosts::uniform`] this is exactly the inter-part cut bytes.
/// [`partition`] minimises it through incremental tables; this is the
/// definition the tests hold it to.
#[cfg(test)]
pub(crate) fn cut_cost(m: &CommMatrix, assignment: &[usize], costs: &PartCosts) -> f64 {
    assert!(assignment.len() >= m.order(), "assignment must cover every entity of the matrix");
    let mut cut = 0.0;
    m.for_each_nonzero(|i, j, v| cut += v * costs.cost(assignment[i], assignment[j]));
    cut
}

/// Bytes crossing part boundaries under an assignment (the unweighted cut).
pub fn cut_bytes(m: &CommMatrix, assignment: &[usize]) -> f64 {
    assert!(assignment.len() >= m.order(), "assignment must cover every entity of the matrix");
    let mut cut = 0.0;
    m.for_each_nonzero(|i, j, v| {
        if assignment[i] != assignment[j] {
            cut += v;
        }
    });
    cut
}

/// Why a partition request is infeasible (see [`partition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// `capacity == 0` with a non-empty matrix: no entity can be placed
    /// anywhere.
    ZeroCapacity {
        /// Number of entities that needed a part.
        entities: usize,
    },
    /// `capacity × n_parts` cannot hold every entity.
    InsufficientCapacity {
        /// Number of parts available.
        parts: usize,
        /// Per-part capacity requested.
        capacity: usize,
        /// Number of entities to place.
        entities: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroCapacity { entities } => {
                write!(f, "part capacity is 0 but {entities} entities need a part")
            }
            PartitionError::InsufficientCapacity { parts, capacity, entities } => {
                write!(f, "{parts} parts of capacity {capacity} cannot hold {entities} entities")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Gain a refinement action must exceed to be applied (matches the
/// grouping threshold so both local-search stages terminate).
const GAIN_THRESHOLD: f64 = 1e-12;

/// Relative slack of the refinement's pruning bound, mirroring
/// `orwl_treematch::grouping`: a bound computed from the exact cost table
/// is trusted to within `SCREEN_EPS × (magnitudes involved)` of the gain
/// expression it bounds.  That expression is five floating-point
/// operations on non-negative values, ≈ 10⁻¹⁵ relative error, so `1e-9`
/// leaves six orders of magnitude of headroom.
const SCREEN_EPS: f64 = 1e-9;

/// Partitions the `m.order()` entities into `costs.n_parts()` parts holding
/// at most `capacity` entities each, minimising the weighted cut
/// (`cut_cost`).  Deterministic; ties resolve towards lower part indices.
///
/// An infeasible request (zero capacity, or `capacity × n_parts <
/// entities`) is a typed [`PartitionError`], never a panic: callers that
/// derive the capacity from a machine (cluster placement) `expect` it,
/// callers forwarding user input (the lab sweep grid) surface it.
///
/// Like [`crate::grouping::group_processes`], every inner loop walks the
/// non-zero rows of the symmetrised matrix, through the matrix's own view
/// ([`CommMatrix::sparse`]: built here unless a reader built it before).  The
/// quantities decisions are taken on — a candidate's connectivity to the
/// growing part, an entity's external cost in a part — are kept as tables
/// of the *naive ordered sums themselves*, recomputed by a row walk (in
/// index order, the naive order) for exactly the entities an assignment
/// changed them for.  The output is therefore **exactly** the
/// pre-optimisation implementation's (pinned by proptests against the
/// retained `naive` reference below) at `O(non-zeros touched)` per step.
/// Volumes and part costs must be non-negative.
pub fn partition(m: &CommMatrix, costs: &PartCosts, capacity: usize) -> Result<Vec<usize>, PartitionError> {
    let p = m.order();
    let k = costs.n_parts();
    if p == 0 {
        return Ok(Vec::new());
    }
    if capacity == 0 {
        return Err(PartitionError::ZeroCapacity { entities: p });
    }
    if k * capacity < p {
        return Err(PartitionError::InsufficientCapacity { parts: k, capacity, entities: p });
    }
    let s = m.sparse();

    // --- Greedy construction ------------------------------------------------
    // Aim for balanced parts (⌈p/k⌉) during construction so the refinement
    // starts from a feasible, load-balanced state; `capacity` only matters
    // when p does not divide evenly.
    let target = p.div_ceil(k).min(capacity);
    // Precomputed seed-sort keys.
    let traffic: Vec<f64> = (0..p).map(|i| crate::grouping::symmetric_traffic_of(s, i)).collect();
    let mut order: Vec<usize> = (0..p).collect();
    order.sort_by(|&a, &b| {
        traffic[b].partial_cmp(&traffic[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });

    let mut parts = Parts { assignment: vec![usize::MAX; p], members: vec![Vec::new(); k] };
    let mut frontier = Frontier { list: Vec::new(), listed: vec![false; p], conn: vec![0.0; p] };
    for &seed in &order {
        if parts.assignment[seed] != usize::MAX {
            continue;
        }
        // Open the next empty part for this seed; when all parts are seeded,
        // fall through to the affinity rule below.
        let part = match (0..k).find(|&q| parts.members[q].is_empty()) {
            Some(q) => q,
            None => best_part(s, &parts, seed, costs, target, capacity),
        };
        parts.place(seed, part);
        // Grow the part around the seed up to the balanced target.  Only an
        // unassigned neighbour of a member can have a positive connectivity:
        // those form the frontier, and their connectivities are re-summed
        // when a neighbour joins the part.
        for &member in &parts.members[part] {
            frontier.reach_from(s, &parts.assignment, member, part);
        }
        while parts.members[part].len() < target {
            match frontier.best(&parts.assignment) {
                Some((cand, conn)) if conn > 0.0 => {
                    parts.place(cand, part);
                    frontier.reach_from(s, &parts.assignment, cand, part);
                }
                // No connected candidate left: stop growing, let the
                // remaining entities pick their own seeds / best parts.
                _ => break,
            }
        }
        frontier.clear();
    }
    // Anything still unassigned (disconnected entities) goes to the
    // cheapest part with room.
    for e in 0..p {
        if parts.assignment[e] == usize::MAX {
            let part = best_part(s, &parts, e, costs, target, capacity);
            parts.place(e, part);
        }
    }

    refine(s, &mut parts, costs, capacity);
    Ok(parts.assignment)
}

/// An assignment under construction, with each part's member list.
struct Parts {
    /// Part of each entity, `usize::MAX` while unassigned.
    assignment: Vec<usize>,
    /// Entities of each part, in no particular order.
    members: Vec<Vec<usize>>,
}

impl Parts {
    fn place(&mut self, entity: usize, part: usize) {
        self.assignment[entity] = part;
        self.members[part].push(entity);
    }

    fn remove(&mut self, entity: usize) {
        let list = &mut self.members[self.assignment[entity]];
        let at = list.iter().position(|&x| x == entity).expect("an assigned entity is listed in its part");
        list.swap_remove(at);
        self.assignment[entity] = usize::MAX;
    }
}

/// The unassigned neighbours of the part being grown, each with its naive
/// connectivity to that part.
struct Frontier {
    list: Vec<usize>,
    /// Whether an entity is in `list`.
    listed: Vec<bool>,
    /// Of a listed entity: its connectivity to the part's entities, summed
    /// in index order — the naive sum without its exact zeros.
    conn: Vec<f64>,
}

impl Frontier {
    /// Accounts for `member` having joined `part`: lists its unassigned
    /// neighbours and re-sums their connectivity.
    fn reach_from(&mut self, s: &SparseComm, assignment: &[usize], member: usize, part: usize) {
        for (x, _) in s.sym_row(member).filter(|&(x, _)| assignment[x] == usize::MAX) {
            if !self.listed[x] {
                self.listed[x] = true;
                self.list.push(x);
            }
            self.conn[x] = s.sym_row(x).filter(|&(e, _)| assignment[e] == part).fold(0.0, |c, (_, v)| c + v);
        }
    }

    /// The still-unassigned entity of highest connectivity, lowest index
    /// among equals.
    fn best(&self, assignment: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for &cand in self.list.iter().filter(|&&cand| assignment[cand] == usize::MAX) {
            if best.is_none_or(|(b, bc)| self.conn[cand] > bc || (self.conn[cand] == bc && cand < b)) {
                best = Some((cand, self.conn[cand]));
            }
        }
        best
    }

    fn clear(&mut self) {
        for x in self.list.drain(..) {
            self.listed[x] = false;
        }
    }
}

/// The part the entity is most attracted to among those with room: highest
/// connectivity, then lowest load, then lowest index.
fn best_part(
    s: &SparseComm,
    parts: &Parts,
    entity: usize,
    costs: &PartCosts,
    target: usize,
    capacity: usize,
) -> usize {
    let load = |q: usize| parts.members[q].len();
    let k = parts.members.len();
    // Prefer parts under the balanced target; allow up to capacity when
    // every part has reached it.
    let limit = if (0..k).all(|q| load(q) >= target) { capacity } else { target };
    let mut best: Option<(usize, f64)> = None;
    for q in 0..k {
        if load(q) >= limit {
            continue;
        }
        // Attraction = volume kept local minus fabric-weighted volume to the
        // entities already placed elsewhere.
        let mut score = 0.0;
        for (e, v) in s.sym_row(entity) {
            let part = parts.assignment[e];
            if part != usize::MAX {
                score -= v * costs.cost(part, q);
            }
        }
        let better = match best {
            None => true,
            Some((bq, bs)) => score > bs || (score == bs && (load(q), q) < (load(bq), bq)),
        };
        if better {
            best = Some((q, score));
        }
    }
    best.map(|(q, _)| q).expect("capacity assertion guarantees a part with room")
}

/// Kernighan–Lin-style local refinement: greedily apply the single move or
/// pairwise swap with the largest cut improvement until none remains (or a
/// safety bound on passes is hit).
///
/// The naive formulation recomputed `cost_in` — an `O(p)` scan — for every
/// candidate action of every pass, an `O(p³)` bill per applied action.
/// Here `exact[e · k + q]` *is* `cost_in(e, q)`, bit for bit: a row is the
/// ordered sum over `e`'s non-zero neighbours, recomputed from scratch for
/// the neighbours of the entities an action moved (an entity's own part
/// does not enter its row).  Every gain is then the naive expression over
/// table entries.
///
/// The `O(p²)` pair scan is pruned per (entity, destination part): a swap
/// of `a` with any `b` of part `Q` gains at most `a`'s move gain towards
/// `Q` plus the best move gain of `Q`'s entities towards `a`'s part (the
/// pair's own link only lowers it).  When that bound, plus its rounding
/// slack, cannot beat the best gain found so far, none of `Q`'s entities
/// is looked at.  The best action is the one the full scan finds: the
/// largest gain, first in scan order (entity `a` ascending, its moves
/// before its swaps, swap partners ascending) among equals.
fn refine(s: &SparseComm, parts: &mut Parts, costs: &PartCosts, capacity: usize) {
    let p = s.order();
    let k = parts.members.len();
    let mut exact = vec![0.0f64; p * k];
    // External cost of entity `e` in every part `q`.
    let cost_in_row = |exact: &mut [f64], assignment: &[usize], e: usize| {
        let row = &mut exact[e * k..(e + 1) * k];
        row.fill(0.0);
        for (other, v) in s.sym_row(e) {
            if other != e {
                let part = assignment[other];
                for (q, c) in row.iter_mut().enumerate() {
                    *c += v * costs.cost(q, part);
                }
            }
        }
    };
    for e in 0..p {
        cost_in_row(&mut exact, &parts.assignment, e);
    }
    // best_arrival[q · k + r]: the largest move gain towards part `r` among
    // the entities of part `q` (−∞ for an empty part).
    let mut best_arrival = vec![f64::NEG_INFINITY; k * k];

    for _pass in 0..2 * p.max(4) {
        let mut largest = 0.0f64;
        best_arrival.fill(f64::NEG_INFINITY);
        for (e, row) in exact.chunks_exact(k).enumerate() {
            let q = parts.assignment[e];
            for (r, &c) in row.iter().enumerate() {
                largest = largest.max(c);
                let arrival = &mut best_arrival[q * k + r];
                *arrival = arrival.max(row[q] - c);
            }
        }
        let slack = SCREEN_EPS * 6.0 * largest;

        let mut best_gain = GAIN_THRESHOLD;
        let mut best_action: Option<(usize, Option<usize>, usize)> = None; // (a, Some(b)=swap / None=move, dest)
        for a in 0..p {
            let pa = parts.assignment[a];
            let row_a = &exact[a * k..(a + 1) * k];
            let here = row_a[pa];
            // Single moves to any part with room.
            for (q, &there) in row_a.iter().enumerate() {
                if q == pa || parts.members[q].len() >= capacity {
                    continue;
                }
                let gain = here - there;
                if gain > best_gain {
                    best_gain = gain;
                    best_action = Some((a, None, q));
                }
            }
            // Pairwise swaps, part by part.
            for pb in 0..k {
                if pb == pa || (here - row_a[pb]) + best_arrival[pb * k + pa] + slack <= best_gain {
                    continue;
                }
                for &b in parts.members[pb].iter().filter(|&&b| b > a) {
                    let row_b = &exact[b * k..(b + 1) * k];
                    let before = here + row_b[pb];
                    // The table is evaluated against the *unswapped*
                    // assignment, where the a↔b term vanishes (each sees the
                    // other still in the destination part); after the swap
                    // the pair straddles pa↔pb again, so add the term back
                    // for both directions.
                    let after = row_a[pb] + row_b[pa] + 2.0 * s.sym_get(a, b) * costs.cost(pa, pb);
                    let gain = before - after;
                    // Members are listed in no order: among equal gains of
                    // this `a`, the lowest partner is the one an ascending
                    // scan meets first.
                    let earlier_tie = gain == best_gain
                        && matches!(best_action, Some((ba, Some(bb), _)) if ba == a && b < bb);
                    if gain > best_gain || earlier_tie {
                        best_gain = gain;
                        best_action = Some((a, Some(b), pb));
                    }
                }
            }
        }
        let Some((a, partner, dest)) = best_action else { break };
        let pa = parts.assignment[a];
        parts.remove(a);
        parts.place(a, dest);
        if let Some(b) = partner {
            parts.remove(b);
            parts.place(b, pa);
        }
        for moved in std::iter::once(a).chain(partner) {
            for (x, _) in s.sym_row(moved) {
                cost_in_row(&mut exact, &parts.assignment, x);
            }
        }
    }
}

/// The pre-optimisation partitioner, retained verbatim as the reference
/// the screened incremental one is pinned against (proptests below).
#[cfg(test)]
pub(crate) mod naive {
    use super::*;

    pub(crate) fn partition(
        m: &CommMatrix,
        costs: &PartCosts,
        capacity: usize,
    ) -> Result<Vec<usize>, PartitionError> {
        let p = m.order();
        let k = costs.n_parts();
        if p == 0 {
            return Ok(Vec::new());
        }
        if capacity == 0 {
            return Err(PartitionError::ZeroCapacity { entities: p });
        }
        if k * capacity < p {
            return Err(PartitionError::InsufficientCapacity { parts: k, capacity, entities: p });
        }
        let s = m.symmetrized();

        let target = p.div_ceil(k).min(capacity);
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| {
            s.traffic_of(b).partial_cmp(&s.traffic_of(a)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });

        let mut assignment = vec![usize::MAX; p];
        let mut load = vec![0usize; k];
        for &seed in &order {
            if assignment[seed] != usize::MAX {
                continue;
            }
            let part = match (0..k).find(|&q| load[q] == 0) {
                Some(q) => q,
                None => best_part(&s, &assignment, &load, seed, costs, target, capacity),
            };
            assignment[seed] = part;
            load[part] += 1;
            while load[part] < target {
                let mut best: Option<(usize, f64)> = None;
                for cand in 0..p {
                    if assignment[cand] != usize::MAX {
                        continue;
                    }
                    let conn: f64 = (0..p).filter(|&e| assignment[e] == part).map(|e| s.get(e, cand)).sum();
                    if best.is_none_or(|(_, bc)| conn > bc) {
                        best = Some((cand, conn));
                    }
                }
                match best {
                    Some((cand, conn)) if conn > 0.0 || load[part] == 0 => {
                        assignment[cand] = part;
                        load[part] += 1;
                    }
                    _ => break,
                }
            }
        }
        for e in 0..p {
            if assignment[e] == usize::MAX {
                let part = best_part(&s, &assignment, &load, e, costs, target, capacity);
                assignment[e] = part;
                load[part] += 1;
            }
        }

        refine(&s, &mut assignment, &mut load, costs, capacity);
        Ok(assignment)
    }

    fn best_part(
        s: &CommMatrix,
        assignment: &[usize],
        load: &[usize],
        entity: usize,
        costs: &PartCosts,
        target: usize,
        capacity: usize,
    ) -> usize {
        let k = load.len();
        let limit = if load.iter().all(|&l| l >= target) { capacity } else { target };
        let mut best: Option<(usize, f64)> = None;
        for q in 0..k {
            if load[q] >= limit {
                continue;
            }
            let mut score = 0.0;
            for (e, &part) in assignment.iter().enumerate() {
                if part == usize::MAX {
                    continue;
                }
                let v = s.get(e, entity);
                if v != 0.0 {
                    score -= v * costs.cost(part, q);
                }
            }
            let better = match best {
                None => true,
                Some((bq, bs)) => score > bs || (score == bs && (load[q], q) < (load[bq], bq)),
            };
            if better {
                best = Some((q, score));
            }
        }
        best.map(|(q, _)| q).expect("capacity assertion guarantees a part with room")
    }

    fn refine(
        s: &CommMatrix,
        assignment: &mut [usize],
        load: &mut [usize],
        costs: &PartCosts,
        capacity: usize,
    ) {
        let p = s.order();
        let k = load.len();
        let cost_in = |assignment: &[usize], e: usize, q: usize| -> f64 {
            let mut c = 0.0;
            for (other, &part) in assignment.iter().enumerate().take(p) {
                if other == e {
                    continue;
                }
                let v = s.get(e, other);
                if v != 0.0 {
                    c += v * costs.cost(q, part);
                }
            }
            c
        };

        for _pass in 0..2 * p.max(4) {
            let mut best_gain = GAIN_THRESHOLD;
            let mut best_action: Option<(usize, Option<usize>, usize)> = None;
            for a in 0..p {
                let pa = assignment[a];
                let here = cost_in(assignment, a, pa);
                for (q, &part_load) in load.iter().enumerate().take(k) {
                    if q == pa || part_load >= capacity {
                        continue;
                    }
                    let gain = here - cost_in(assignment, a, q);
                    if gain > best_gain {
                        best_gain = gain;
                        best_action = Some((a, None, q));
                    }
                }
                for b in (a + 1)..p {
                    let pb = assignment[b];
                    if pb == pa {
                        continue;
                    }
                    let before = here + cost_in(assignment, b, pb);
                    let after = cost_in(assignment, a, pb)
                        + cost_in(assignment, b, pa)
                        + 2.0 * s.get(a, b) * costs.cost(pa, pb);
                    let gain = before - after;
                    if gain > best_gain {
                        best_gain = gain;
                        best_action = Some((a, Some(b), pb));
                    }
                }
            }
            match best_action {
                Some((a, None, q)) => {
                    load[assignment[a]] -= 1;
                    assignment[a] = q;
                    load[q] += 1;
                }
                Some((a, Some(b), _)) => {
                    assignment.swap(a, b);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::patterns;
    use proptest::prelude::*;

    #[test]
    fn uniform_costs_have_zero_diagonal() {
        let c = PartCosts::uniform(3);
        assert_eq!(c.n_parts(), 3);
        for a in 0..3 {
            assert_eq!(c.cost(a, a), 0.0);
            for b in 0..3 {
                if a != b {
                    assert_eq!(c.cost(a, b), 1.0);
                }
            }
        }
    }

    #[test]
    fn from_fn_symmetrises_and_zeroes_diagonal() {
        let c = PartCosts::from_fn(3, |a, b| (a + 2 * b) as f64);
        assert_eq!(c.cost(1, 1), 0.0);
        assert_eq!(c.cost(0, 1), c.cost(1, 0));
        assert_eq!(c.cost(0, 2), 3.0); // ((0+4) + (2+0)) / 2
    }

    #[test]
    fn clustered_pattern_is_cut_perfectly() {
        // 4 groups of 4 with heavy intra-group traffic: each group must land
        // in its own part, cutting only the light inter-group ring.
        let m = patterns::clustered(4, 4, 1000.0, 1.0);
        let assignment = partition(&m, &PartCosts::uniform(4), 4).unwrap();
        for g in 0..4 {
            let parts: std::collections::HashSet<usize> = (0..4).map(|i| assignment[g * 4 + i]).collect();
            assert_eq!(parts.len(), 1, "group {g} split across parts {parts:?}");
        }
        // Only the inter-group ring volume is cut.
        let cut = cut_bytes(&m, &assignment);
        let intra: f64 = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .filter(|&(i, j)| i / 4 == j / 4)
            .map(|(i, j)| m.get(i, j))
            .sum();
        assert!((cut - (m.total_volume() - intra)).abs() < 1e-9);
    }

    #[test]
    fn partition_respects_capacity() {
        let m = patterns::all_to_all(10, 1.0);
        let assignment = partition(&m, &PartCosts::uniform(4), 3).unwrap();
        let mut load = [0usize; 4];
        for &q in &assignment {
            assert!(q < 4);
            load[q] += 1;
        }
        assert!(load.iter().all(|&l| l <= 3), "capacity violated: {load:?}");
        assert_eq!(load.iter().sum::<usize>(), 10);
    }

    #[test]
    fn infeasible_capacity_is_a_typed_error_not_a_panic() {
        let m = patterns::chain(10, 1.0);
        assert_eq!(
            partition(&m, &PartCosts::uniform(2), 4).unwrap_err(),
            PartitionError::InsufficientCapacity { parts: 2, capacity: 4, entities: 10 }
        );
        let zero = partition(&m, &PartCosts::uniform(2), 0).unwrap_err();
        assert_eq!(zero, PartitionError::ZeroCapacity { entities: 10 });
        // The errors carry a human-readable story.
        assert!(zero.to_string().contains("capacity is 0"));
        assert!(partition(&m, &PartCosts::uniform(2), 4)
            .unwrap_err()
            .to_string()
            .contains("cannot hold 10 entities"));
    }

    #[test]
    fn capacities_exactly_met_fill_every_slot() {
        // 12 entities into 3 parts of exactly 4: a perfectly tight fit must
        // succeed with every part filled to the brim.
        let m = patterns::all_to_all(12, 1.0);
        let assignment = partition(&m, &PartCosts::uniform(3), 4).unwrap();
        let mut load = [0usize; 3];
        for &q in &assignment {
            load[q] += 1;
        }
        assert_eq!(load, [4, 4, 4]);
        // Same at capacity 1 with n parts: a forced perfect matching.
        let tiny = patterns::ring(3, 5.0);
        let forced = partition(&tiny, &PartCosts::uniform(3), 1).unwrap();
        let mut seen: Vec<usize> = forced.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn single_part_takes_everything_and_cuts_nothing() {
        let m = patterns::random_symmetric(6, 0.8, 50.0, 9);
        let assignment = partition(&m, &PartCosts::uniform(1), 6).unwrap();
        assert!(assignment.iter().all(|&q| q == 0));
        assert_eq!(cut_bytes(&m, &assignment), 0.0);
        // A single part below the entity count is infeasible, not a hang.
        assert_eq!(
            partition(&m, &PartCosts::uniform(1), 5).unwrap_err(),
            PartitionError::InsufficientCapacity { parts: 1, capacity: 5, entities: 6 }
        );
    }

    #[test]
    fn chain_is_split_into_contiguous_runs() {
        // A heavy chain of 8 into 2 parts of 4: the optimal cut severs one
        // edge, i.e. the parts are {0..3} and {4..7}.
        let m = patterns::chain(8, 100.0);
        let assignment = partition(&m, &PartCosts::uniform(2), 4).unwrap();
        // The optimal cut severs exactly one chain link (both directions).
        let one_link = m.get(3, 4) + m.get(4, 3);
        assert_eq!(cut_bytes(&m, &assignment), one_link, "assignment {assignment:?}");
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[4], assignment[7]);
        assert_ne!(assignment[0], assignment[7]);
    }

    #[test]
    fn weighted_costs_pull_spill_towards_cheap_parts() {
        // 3 groups of 2 on 3 parts of capacity 2; parts 0-1 are "same rack"
        // (cost 1), part 2 is far (cost 10 from both).  The pattern is a
        // heavy pair per group plus a medium 0↔2 bridge between the first
        // two groups and a light 0↔4 link to the third: the bridge endpoints
        // should stay on the near parts.
        let m = CommMatrix::from_edges(
            6,
            &[(0, 1, 1000.0), (2, 3, 1000.0), (4, 5, 1000.0), (0, 2, 50.0), (0, 4, 1.0)],
        );
        let costs = PartCosts::from_fn(3, |a, b| if a.max(b) == 2 { 10.0 } else { 1.0 });
        let assignment = partition(&m, &costs, 2).unwrap();
        // Pairs stay together.
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[2], assignment[3]);
        assert_eq!(assignment[4], assignment[5]);
        // The bridged groups occupy the two near parts; the light group is
        // pushed to the far part.
        let far = assignment[4];
        assert_eq!(costs.cost(assignment[0], far).max(costs.cost(assignment[2], far)), 10.0);
        assert_eq!(costs.cost(assignment[0], assignment[2]), 1.0);
    }

    #[test]
    fn cut_cost_matches_cut_bytes_under_uniform_costs() {
        let m = patterns::stencil_2d(&patterns::StencilSpec {
            rows: 4,
            cols: 4,
            edge_volume: 64.0,
            corner_volume: 8.0,
        });
        let assignment = partition(&m, &PartCosts::uniform(4), 4).unwrap();
        let uniform = PartCosts::uniform(4);
        assert!((cut_cost(&m, &assignment, &uniform) - cut_bytes(&m, &assignment)).abs() < 1e-9);
        // The stencil partition keeps at least half of the traffic local.
        assert!(cut_bytes(&m, &assignment) < 0.5 * m.total_volume());
    }

    #[test]
    fn empty_matrix_yields_empty_assignment() {
        // Even with zero capacity: there is nothing to place, so the empty
        // assignment is the (vacuously feasible) answer.
        assert!(partition(&CommMatrix::zeros(0), &PartCosts::uniform(2), 1).unwrap().is_empty());
        assert!(partition(&CommMatrix::zeros(0), &PartCosts::uniform(2), 0).unwrap().is_empty());
    }

    #[test]
    fn refinement_is_deterministic() {
        let m = patterns::random_symmetric(12, 0.5, 100.0, 42);
        let a = partition(&m, &PartCosts::uniform(3), 4).unwrap();
        let b = partition(&m, &PartCosts::uniform(3), 4).unwrap();
        assert_eq!(a, b);
    }

    /// Regression pin: exact outputs of the pre-optimisation partitioner on
    /// fixed seeded matrices.
    #[test]
    fn partition_outputs_are_pinned() {
        let pins: [(u64, Vec<usize>); 2] = [
            (3, vec![2, 1, 0, 3, 2, 0, 3, 0, 1, 1, 1, 1, 0, 2, 3, 0, 3, 2, 1, 0, 3, 2, 3, 2]),
            (11, vec![3, 1, 1, 3, 3, 3, 0, 0, 0, 2, 1, 3, 1, 3, 0, 2, 2, 0, 2, 0, 1, 1, 2, 2]),
        ];
        for (seed, expected) in pins {
            let m = patterns::random_symmetric(24, 0.6, 100.0, seed);
            assert_eq!(partition(&m, &PartCosts::uniform(4), 6).unwrap(), expected, "seed {seed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The screened incremental partitioner is output-identical to the
        // retained naive reference on random float-valued matrices, across
        // part counts, capacities (incl. infeasible ones) and weighted
        // part-distance matrices.
        #[test]
        fn incremental_matches_naive_reference(
            n in 1usize..22,
            k in 1usize..6,
            extra_cap in 0usize..4,
            seed in 0u64..400,
        ) {
            let m = patterns::random_symmetric(n, 0.6, 987.654321, seed);
            let capacity = n.div_ceil(k) + extra_cap;
            let costs = PartCosts::from_fn(k, |a, b| 1.0 + ((a * 7 + b * 3) % 5) as f64 / 3.0);
            prop_assert_eq!(
                partition(&m, &costs, capacity),
                naive::partition(&m, &costs, capacity)
            );
            let uniform = PartCosts::uniform(k);
            prop_assert_eq!(
                partition(&m, &uniform, capacity),
                naive::partition(&m, &uniform, capacity)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Same identity on the structured shapes the cluster sweep runs
        // (stencils with inexact volumes, power-law graphs).
        #[test]
        fn incremental_matches_naive_on_structured_patterns(side in 2usize..6, k in 2usize..5, seed in 0u64..100) {
            let stencil = patterns::stencil_2d(&patterns::StencilSpec {
                rows: side,
                cols: side + 1,
                edge_volume: 4096.0 * 0.2,
                corner_volume: 64.0 * 0.2,
            });
            let n = stencil.order();
            let costs = PartCosts::uniform(k);
            prop_assert_eq!(
                partition(&stencil, &costs, n.div_ceil(k)),
                naive::partition(&stencil, &costs, n.div_ceil(k))
            );
            let pl = patterns::power_law(n, 3, 1.0e6, seed);
            prop_assert_eq!(
                partition(&pl, &costs, n.div_ceil(k)),
                naive::partition(&pl, &costs, n.div_ceil(k))
            );
        }
    }
}
