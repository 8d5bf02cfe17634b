//! The `GroupProcesses` step of Algorithm 1.
//!
//! Given a communication matrix of order `p` and the arity `a` of the
//! current topology level, partition the `p` entities into `⌈p/a⌉` groups of
//! at most `a` members so that as much communication volume as possible
//! stays *inside* groups.  Entities grouped together will later be assigned
//! to the children of a single topology node (the same cache, the same NUMA
//! node, …), so intra-group volume is the volume the placement keeps local.
//!
//! Finding the optimal partition is NP-hard (it generalises graph
//! partitioning); like TreeMatch we use a constructive greedy phase followed
//! by a local-refinement phase (pairwise swaps à la Kernighan–Lin), which is
//! exact on the small instances the unit tests check and close to optimal on
//! stencil-like matrices.
//!
//! # Incremental gain structures over the sparse view
//!
//! Both phases are hot: placement runs *online* (every adaptive
//! re-placement epoch) and at every tree level.  Every inner loop walks the
//! rows of the symmetrised matrix through [`SparseComm`], so it costs the
//! non-zero entries it touches rather than `p`; the naive
//! recompute-everything formulation is `O(p² · a)` per level.  The
//! implementation maintains
//!
//! * a per-candidate *connectivity-to-the-growing-group* accumulator during
//!   greedy construction, extended by one adopted member's row at a time —
//!   the **same ordered additions** the naive sum would perform, minus the
//!   exact zeros, so every comparison sees bit-identical values — and picks
//!   the next member among the candidates that row walk has touched;
//! * a per-entity per-group connectivity table in the swap-refinement
//!   phase, used as a *sound `O(1)` screen*: pairs whose screened gain
//!   cannot reach the acceptance threshold are skipped, and only
//!   near-threshold pairs fall back to the naive ordered-sum gain, which
//!   remains the sole basis of accept/reject decisions.
//!
//! Groups are therefore **exactly identical** to the naive implementation's
//! (pinned by the regression tests below and the proptests in this file and
//! in `sparse_identity.rs`): greedy decisions compare bit-identical floats,
//! and refinement decisions are always taken on the naive gain.  Volumes
//! must be non-negative — what makes a skipped `+ 0.0` exact and the
//! screens sound.

use orwl_comm::aggregate::Groups;
use orwl_comm::matrix::CommMatrix;
use orwl_comm::sparse::SparseComm;

/// Gain a swap must exceed to be accepted (strictly positive so refinement
/// terminates: intra-group volume strictly increases at every swap).
const GAIN_THRESHOLD: f64 = 1e-12;

/// Relative slack of the refinement screen: the screened gain is trusted to
/// be within `SCREEN_EPS × (sum of the magnitudes involved)` of the naive
/// gain.  f64 rounding contributes at most `ops · 2⁻⁵³ ≈ ops · 1.1e-16`
/// relative error, so `1e-9` leaves ≈ 10⁷ error-compounding operations of
/// headroom — far beyond the per-pass rebuild horizon.  Communication
/// volumes are non-negative, which makes the magnitude sum a sound error
/// scale.
const SCREEN_EPS: f64 = 1e-9;

/// Reusable buffers of the grouping phases; owned by
/// [`crate::algorithm::PlacementScratch`] so placements running per tree
/// level (or per adaptive epoch) stop allocating.
#[derive(Debug, Default, Clone)]
pub(crate) struct GroupingScratch {
    /// Per-entity total traffic (seed-sort keys).
    traffic: Vec<f64>,
    /// Seed visit order.
    order: Vec<usize>,
    /// Greedy: connectivity of each candidate to the group under
    /// construction; all zeros between groups.
    conn: Vec<f64>,
    /// Greedy: the entities whose `conn` the current group has touched.
    touched: Vec<usize>,
    /// Refinement: `gconn[g * p + x]` ≈ connectivity of entity `x` to
    /// group `g`.
    gconn: Vec<f64>,
    /// Refinement: `gg[ga * n_groups + gb]` ≈ total connectivity between
    /// the members of two groups (the block filter).
    gg: Vec<f64>,
    /// Refinement: owning group of each entity.
    owner: Vec<usize>,
    /// Refinement: the diagonal `s[x][x]`.
    diag: Vec<f64>,
    /// Refinement: the last pass that changed each group.
    changed_in: Vec<usize>,
    /// Greedy: which entities are already grouped.
    assigned: Vec<bool>,
}

/// Partitions the `m.order()` entities into groups of at most `arity`
/// members, maximising intra-group communication volume.
///
/// The returned groups are ordered by their smallest member, and members are
/// sorted within each group, so the result is deterministic.
///
/// # Panics
/// Panics when `arity == 0`.
pub fn group_processes(m: &CommMatrix, arity: usize) -> Groups {
    group_processes_sparse(m.sparse(), arity, &mut GroupingScratch::default())
}

/// [`group_processes`] on an already-built view, with shared scratch
/// buffers; same output.
pub(crate) fn group_processes_sparse(s: &SparseComm, arity: usize, scratch: &mut GroupingScratch) -> Groups {
    assert!(arity > 0, "arity must be at least 1");
    let p = s.order();
    if p == 0 {
        return Vec::new();
    }
    // Grouping only cares about the total volume between two entities, not
    // its direction: it reads the symmetrised rows of the view.
    let n_groups = p.div_ceil(arity);

    let mut groups = greedy_grouping(s, arity, n_groups, scratch);
    // Swapping between singleton groups gains exactly nothing.
    if arity > 1 {
        orwl_obs::time_phase(orwl_obs::SolvePhase::Refine, || {
            refine_by_swaps(s, &mut groups, scratch);
        });
    }

    // Canonical order: sort members, then groups by first member.
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g.first().copied().unwrap_or(usize::MAX));
    groups
}

/// `traffic_of` on the symmetrised matrix: the transposed entry is bitwise
/// equal (`s[i][j] = m[i][j] + m[j][i]` and IEEE addition is commutative),
/// so the row-plus-column walk of the naive sum is a doubled read of the
/// row entry — same bits per addition, hence a bit-identical total.
pub(crate) fn symmetric_traffic_of(s: &SparseComm, i: usize) -> f64 {
    let mut t = 0.0;
    for (_, v) in s.sym_row(i) {
        t += v + v;
    }
    t
}

/// Greedy construction: seed each group with the heaviest-traffic unassigned
/// entity, then repeatedly add the unassigned entity with the strongest
/// connection to the group.
///
/// `scratch.conn[cand]` carries each candidate's connectivity to the group
/// under construction, accumulated one `+= s[member][cand]` per adoption
/// over the member's non-zero row — the exact ordered additions of the naive
/// per-candidate rescan.  The next member is the touched candidate with the
/// largest connectivity (lowest index among equals, as a scan of `0..p`
/// finds it); when the group has no connected candidate left, every
/// remaining connectivity is an exact zero and that scan would return the
/// lowest unassigned index, which a cursor tracks.
fn greedy_grouping(s: &SparseComm, arity: usize, n_groups: usize, scratch: &mut GroupingScratch) -> Groups {
    let p = s.order();
    let assigned = &mut scratch.assigned;
    assigned.clear();
    assigned.resize(p, false);
    // Heaviest communicators first so they get to pick their partners; the
    // sort keys are precomputed once.
    scratch.traffic.clear();
    scratch.traffic.extend((0..p).map(|i| symmetric_traffic_of(s, i)));
    let traffic = &scratch.traffic;
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..p);
    order.sort_by(|&a, &b| {
        traffic[b].partial_cmp(&traffic[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });

    let conn = &mut scratch.conn;
    conn.clear();
    conn.resize(p, 0.0);
    let touched = &mut scratch.touched;
    touched.clear();
    // Every entity below the cursor is assigned.
    let mut lowest_free = 0;
    let mut groups: Groups = Vec::with_capacity(n_groups);
    for &seed in order.iter() {
        if assigned[seed] {
            continue;
        }
        if groups.len() == n_groups {
            break;
        }
        let mut group = vec![seed];
        assigned[seed] = true;
        let mut adopted = seed;
        while group.len() < arity {
            // The adopted member's row extends every candidate's ordered
            // connectivity sum.
            for (x, v) in s.sym_row(adopted) {
                if conn[x] == 0.0 {
                    touched.push(x);
                }
                conn[x] += v;
            }
            // Entity with maximum connectivity to the current group.
            let mut best: Option<(usize, f64)> = None;
            for &cand in touched.iter().filter(|&&cand| !assigned[cand]) {
                if best.is_none_or(|(b, bconn)| conn[cand] > bconn || (conn[cand] == bconn && cand < b)) {
                    best = Some((cand, conn[cand]));
                }
            }
            adopted = match best {
                Some((cand, c)) if c > 0.0 => cand,
                _ => {
                    while lowest_free < p && assigned[lowest_free] {
                        lowest_free += 1;
                    }
                    if lowest_free == p {
                        break;
                    }
                    lowest_free
                }
            };
            assigned[adopted] = true;
            group.push(adopted);
        }
        for x in touched.drain(..) {
            conn[x] = 0.0;
        }
        groups.push(group);
    }
    // Any leftovers (can happen when the greedy loop filled n_groups early)
    // go into the emptiest groups that still have room.
    for (e, taken) in assigned.iter_mut().enumerate() {
        if !*taken {
            let slot = groups.iter_mut().filter(|g| g.len() < arity).min_by_key(|g| g.len());
            match slot {
                Some(g) => g.push(e),
                None => groups.push(vec![e]),
            }
            *taken = true;
        }
    }
    groups
}

/// Local refinement: repeatedly swap a pair of entities between two groups
/// when the swap increases the total intra-group volume.  Terminates because
/// the intra-group volume strictly increases at every accepted swap.
///
/// # Pass semantics
///
/// Each pass scans group pairs `(ga < gb)` and member **positions**
/// `(ia, ib)` in increasing order.  An accepted swap immediately replaces
/// the entities at those positions, and the *same* pass continues scanning
/// the updated membership: the next `(ia, ib)` iteration re-reads
/// `groups[ga][ia]` / `groups[gb][ib]`, so an entity swapped into position
/// `ia` is itself a candidate for the remaining `ib`s of the pass.  Passes
/// repeat (at most [`MAX_PASSES`](const@Self)) until one full pass accepts
/// no swap.  These semantics are pinned by `refinement_pass_semantics_are_pinned`
/// below — the incremental screen must never change them.
///
/// # Screening
///
/// `gconn[g · p + x]` approximates entity `x`'s connectivity to group `g`;
/// it is built once before the pass loop from the members' non-zero rows,
/// and on every accepted swap the two affected rows are rebuilt wholesale
/// from the new memberships (never delta-updated — see the maintenance
/// comment below; this is what keeps every screened value a
/// cancellation-free sum of non-negative volumes).  Sound filters sit in
/// front of the naive gain:
///
/// 1. a **group-pair block filter** — a swap can only gain when it moves
///    cross-connectivity inside, and the gain is bounded by
///    `max_a conn(a, gb) + max_b conn(b, ga)`; most group pairs (distant
///    stencil blocks, disjoint clusters) fail this bound outright and skip
///    the whole `|ga| × |gb|` inner loop;
/// 2. a **row filter** — what `a` gains by crossing over plus the most any
///    member of `gb` gains by crossing back bounds every swap of `a`;
/// 3. a **per-pair screen** on the approximated gain, first on the bound
///    that leaves the pair's own link `s[a][b] ≥ 0` out (no lookup), then
///    with it.
///
/// A group pair neither of whose groups changed since its last scan is not
/// scanned at all: the scan reads nothing but the two member lists, found
/// no swap then, and would find none now.
///
/// The filters carry a rounding slack of `SCREEN_EPS × (the magnitudes
/// involved)`: volumes are non-negative, so current magnitudes bound the
/// reordering error.  Pairs that survive are decided by the naive
/// ordered-sum [`swap_gain`], keeping accepted swaps (and therefore the
/// final groups) exactly those of the naive implementation.
fn refine_by_swaps(s: &SparseComm, groups: &mut Groups, scratch: &mut GroupingScratch) {
    const MAX_PASSES: usize = 8;
    let p = s.order();
    let n_groups = groups.len();
    if n_groups < 2 {
        return;
    }
    let GroupingScratch { gconn, gg, owner, diag, changed_in, .. } = scratch;
    diag.clear();
    diag.extend((0..p).map(|x| s.sym_get(x, x)));
    // Build the connectivity table once — gconn[g][x] = Σ s[x][m] over the
    // members of g in list order, reading the symmetric matrix by rows
    // (`s[m][x]` is bitwise `s[x][m]`, see [`symmetric_traffic_of`]) — and
    // recompute the two affected rows wholesale on every accepted swap.
    // Maintenance therefore never subtracts: every table value stays a
    // fresh ordered sum of non-negative volumes, an exact zero when the
    // true connectivity is zero, and within `SCREEN_EPS` relative error of
    // any reordering — which is what makes the purely relative slack of
    // the filters sound.
    gconn.clear();
    gconn.resize(n_groups * p, 0.0);
    owner.clear();
    owner.resize(p, usize::MAX);
    for (g, members) in groups.iter().enumerate() {
        let row = &mut gconn[g * p..(g + 1) * p];
        for &m in members {
            owner[m] = g;
            for (x, v) in s.sym_row(m) {
                row[x] += v;
            }
        }
    }
    // Aggregate group-to-group connectivity for the block filter:
    // `gg[ga][gb]` = Σ s[x][y] over x in ga, y in gb.
    gg.clear();
    gg.resize(n_groups * n_groups, 0.0);
    for (ga, members) in groups.iter().enumerate() {
        add_group_connectivity(s, members, ga, owner, gg, n_groups);
    }
    // changed_in[g]: the last pass (1-based, 0 = before the first) that
    // swapped a member of g.  A group pair's scan reads nothing but the two
    // member lists, so a pair neither of whose groups changed since its last
    // scan — which found no swap — would find none again.
    changed_in.clear();
    changed_in.resize(n_groups, 0);
    for pass in 1..=MAX_PASSES {
        let mut improved = false;
        for ga in 0..n_groups {
            for gb in (ga + 1)..n_groups {
                if changed_in[ga] + 1 < pass && changed_in[gb] + 1 < pass {
                    continue;
                }
                // Block filter: every pair's naive gain is bounded by
                // conn(a, gb) + conn(b, ga) — the subtracted home terms are
                // ordered sums of non-negative volumes, hence ≥ 0 exactly —
                // and those bounds sum to at most the aggregate group-pair
                // connectivity.  Distant blocks (zero cross traffic) skip
                // their whole |ga| × |gb| inner loop in O(1).
                let gg_ab = gg[ga * n_groups + gb];
                let gg_ba = gg[gb * n_groups + ga];
                if gg_ab + gg_ba + SCREEN_EPS * (gg_ab + gg_ba) <= GAIN_THRESHOLD {
                    continue;
                }
                // Row filter: what `a` gains by crossing over plus the most
                // any member of gb gains by crossing back bounds every swap
                // of `a` (the pair's own link `s[a][b] ≥ 0` only lowers it),
                // so most members skip their |gb| partners in O(1).
                let crossing = |gconn: &[f64], x: usize, from: usize, to: usize| {
                    let (home, away) = (gconn[from * p + x], gconn[to * p + x]);
                    (away - (home - diag[x]), home + away + diag[x])
                };
                let best_return = |gconn: &[f64], members: &[usize]| {
                    members
                        .iter()
                        .map(|&b| crossing(gconn, b, gb, ga))
                        .fold((f64::NEG_INFINITY, 0.0f64), |(gain, scale), (g, m)| {
                            (gain.max(g), scale.max(m))
                        })
                };
                let (mut best_back, mut best_back_scale) = best_return(gconn, &groups[gb]);
                for ia in 0..groups[ga].len() {
                    let (over, over_scale) = crossing(gconn, groups[ga][ia], ga, gb);
                    if over + best_back + SCREEN_EPS * (over_scale + best_back_scale) <= GAIN_THRESHOLD {
                        continue; // certain reject of the whole row
                    }
                    for ib in 0..groups[gb].len() {
                        let a = groups[ga][ia];
                        let b = groups[gb][ib];
                        let ((over, over_scale), (back, back_scale)) =
                            (crossing(gconn, a, ga, gb), crossing(gconn, b, gb, ga));
                        let slack = SCREEN_EPS * (over_scale + back_scale);
                        if over + back + slack <= GAIN_THRESHOLD {
                            continue; // certain reject: naive gain cannot pass
                        }
                        // `s[a][b]` and `s[b][a]` are bitwise equal on the
                        // symmetric matrix.
                        let v = s.sym_get(a, b);
                        if over + back - 2.0 * v + slack + SCREEN_EPS * 2.0 * v <= GAIN_THRESHOLD {
                            continue;
                        }
                        let gain = swap_gain(s, &groups[ga], &groups[gb], a, b);
                        if gain > GAIN_THRESHOLD {
                            groups[ga][ia] = b;
                            groups[gb][ib] = a;
                            owner[a] = gb;
                            owner[b] = ga;
                            changed_in[ga] = pass;
                            changed_in[gb] = pass;
                            // Rebuild the two affected rows from the new
                            // memberships (no deltas — see above).  A row is
                            // non-zero only where a member's row is, so
                            // clearing under the old and new members' rows
                            // clears it all.
                            for (g, left) in [(ga, a), (gb, b)] {
                                let row = &mut gconn[g * p..(g + 1) * p];
                                for &m in groups[g].iter().chain(std::iter::once(&left)) {
                                    for (x, _) in s.sym_row(m) {
                                        row[x] = 0.0;
                                    }
                                }
                                for &m in &groups[g] {
                                    for (x, v) in s.sym_row(m) {
                                        row[x] += v;
                                    }
                                }
                            }
                            // Refresh the aggregate rows/columns the swap
                            // touched: ga/gb's memberships changed and every
                            // group's connectivity towards ga/gb shifted.
                            for g in [ga, gb] {
                                for h in 0..n_groups {
                                    gg[g * n_groups + h] = 0.0;
                                    gg[h * n_groups + g] = 0.0;
                                }
                                add_group_connectivity(s, &groups[g], g, owner, gg, n_groups);
                                for h in (0..n_groups).filter(|&h| h != g) {
                                    gg[h * n_groups + g] = gg[g * n_groups + h];
                                }
                            }
                            (best_back, best_back_scale) = best_return(gconn, &groups[gb]);
                            improved = true;
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// Adds the rows of `members` (the members of group `g`) into row `g` of
/// the group-to-group table: `gg[g][owner[y]] += s[m][y]`.
fn add_group_connectivity(
    s: &SparseComm,
    members: &[usize],
    g: usize,
    owner: &[usize],
    gg: &mut [f64],
    n_groups: usize,
) {
    let row = &mut gg[g * n_groups..(g + 1) * n_groups];
    for &m in members {
        for (y, v) in s.sym_row(m) {
            row[owner[y]] += v;
        }
    }
}

/// Increase in intra-group volume obtained by swapping `a` (in `ga`) with
/// `b` (in `gb`).  This is the naive ordered-sum gain every accepted swap
/// is decided on (see [`refine_by_swaps`]).
fn swap_gain(s: &SparseComm, ga: &[usize], gb: &[usize], a: usize, b: usize) -> f64 {
    let conn = |x: usize, group: &[usize], exclude: usize| -> f64 {
        group.iter().filter(|&&g| g != exclude).map(|&g| s.sym_get(x, g)).sum()
    };
    let before = conn(a, ga, a) + conn(b, gb, b);
    let after = conn(a, gb, b) + conn(b, ga, a);
    after - before
}

/// Total intra-group volume of a grouping (the objective maximised by
/// [`group_processes`]).
#[cfg(test)]
pub(crate) fn intra_volume(m: &CommMatrix, groups: &Groups) -> f64 {
    orwl_comm::aggregate::intra_group_volume(&m.symmetrized(), groups) / 2.0
}

/// The pre-optimisation implementation, retained verbatim as the reference
/// the incremental one is pinned against (proptests below): recompute every
/// candidate connectivity and swap gain from scratch.
#[cfg(test)]
pub(crate) mod naive {
    use super::*;

    pub(crate) fn group_processes(m: &CommMatrix, arity: usize) -> Groups {
        assert!(arity > 0, "arity must be at least 1");
        let p = m.order();
        if p == 0 {
            return Vec::new();
        }
        let s = m.symmetrized();
        let n_groups = p.div_ceil(arity);
        let mut groups = greedy_grouping(&s, arity, n_groups);
        refine_by_swaps(&s, &mut groups);
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_by_key(|g| g.first().copied().unwrap_or(usize::MAX));
        groups
    }

    fn greedy_grouping(s: &CommMatrix, arity: usize, n_groups: usize) -> Groups {
        let p = s.order();
        let mut assigned = vec![false; p];
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| {
            s.traffic_of(b).partial_cmp(&s.traffic_of(a)).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });

        let mut groups: Groups = Vec::with_capacity(n_groups);
        for &seed in &order {
            if assigned[seed] {
                continue;
            }
            if groups.len() == n_groups {
                break;
            }
            let mut group = vec![seed];
            assigned[seed] = true;
            while group.len() < arity {
                let mut best: Option<(usize, f64)> = None;
                for (cand, &taken) in assigned.iter().enumerate() {
                    if taken {
                        continue;
                    }
                    let conn: f64 = group.iter().map(|&g| s.get(g, cand)).sum();
                    match best {
                        Some((_, bconn)) if conn <= bconn => {}
                        _ => best = Some((cand, conn)),
                    }
                }
                match best {
                    Some((cand, _)) => {
                        assigned[cand] = true;
                        group.push(cand);
                    }
                    None => break,
                }
            }
            groups.push(group);
        }
        for (e, taken) in assigned.iter_mut().enumerate() {
            if !*taken {
                let slot = groups.iter_mut().filter(|g| g.len() < arity).min_by_key(|g| g.len());
                match slot {
                    Some(g) => g.push(e),
                    None => groups.push(vec![e]),
                }
                *taken = true;
            }
        }
        groups
    }

    fn swap_gain(s: &CommMatrix, ga: &[usize], gb: &[usize], a: usize, b: usize) -> f64 {
        let conn = |x: usize, group: &[usize], exclude: usize| -> f64 {
            group.iter().filter(|&&g| g != exclude).map(|&g| s.get(x, g)).sum()
        };
        let before = conn(a, ga, a) + conn(b, gb, b);
        let after = conn(a, gb, b) + conn(b, ga, a);
        after - before
    }

    fn refine_by_swaps(s: &CommMatrix, groups: &mut Groups) {
        const MAX_PASSES: usize = 8;
        for _ in 0..MAX_PASSES {
            let mut improved = false;
            for ga in 0..groups.len() {
                for gb in (ga + 1)..groups.len() {
                    for ia in 0..groups[ga].len() {
                        for ib in 0..groups[gb].len() {
                            let a = groups[ga][ia];
                            let b = groups[gb][ib];
                            let gain = swap_gain(s, &groups[ga], &groups[gb], a, b);
                            if gain > GAIN_THRESHOLD {
                                groups[ga][ia] = b;
                                groups[gb][ib] = a;
                                improved = true;
                            }
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orwl_comm::patterns;
    use proptest::prelude::*;

    fn group_of(groups: &Groups, x: usize) -> usize {
        groups.iter().position(|g| g.contains(&x)).unwrap()
    }

    #[test]
    fn chain_pairs_adjacent_entities() {
        // 0-1-2-3 chain, arity 2: optimal grouping is {0,1},{2,3}.
        let m = patterns::chain(4, 1.0);
        let groups = group_processes(&m, 2);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn clustered_matrix_recovers_clusters() {
        // 4 clusters of 4 with strong intra traffic: grouping with arity 4
        // must recover the clusters exactly.
        let m = patterns::clustered(4, 4, 100.0, 1.0);
        let groups = group_processes(&m, 4);
        assert_eq!(groups.len(), 4);
        for c in 0..4 {
            let members: Vec<usize> = (0..4).map(|i| c * 4 + i).collect();
            let g = group_of(&groups, members[0]);
            for &x in &members {
                assert_eq!(group_of(&groups, x), g, "cluster {c} split across groups: {groups:?}");
            }
        }
    }

    #[test]
    fn group_count_is_ceil_p_over_a() {
        for (p, a) in [(8, 2), (8, 3), (7, 3), (5, 8), (1, 1), (9, 4)] {
            let m = patterns::random_symmetric(p, 0.6, 10.0, 3);
            let groups = group_processes(&m, a);
            assert_eq!(groups.len(), p.div_ceil(a), "p={p} a={a}");
            assert!(groups.iter().all(|g| g.len() <= a));
            // Every entity appears exactly once.
            let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..p).collect::<Vec<_>>());
        }
    }

    #[test]
    fn arity_one_gives_singletons() {
        let m = patterns::all_to_all(5, 3.0);
        let groups = group_processes(&m, 1);
        assert_eq!(groups, (0..5).map(|i| vec![i]).collect::<Groups>());
    }

    #[test]
    fn arity_larger_than_order_gives_single_group() {
        let m = patterns::chain(3, 1.0);
        let groups = group_processes(&m, 10);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn empty_matrix_gives_no_groups() {
        let m = CommMatrix::zeros(0);
        assert!(group_processes(&m, 4).is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_arity_panics() {
        group_processes(&CommMatrix::zeros(4), 0);
    }

    #[test]
    fn grouping_beats_naive_split_on_stencil() {
        // 4×4 stencil grouped by 4: affinity grouping must keep at least as
        // much volume internal as the naive row-major split.
        let spec = patterns::StencilSpec { rows: 4, cols: 4, edge_volume: 100.0, corner_volume: 1.0 };
        let m = patterns::stencil_2d(&spec);
        let groups = group_processes(&m, 4);
        let naive: Groups = (0..4).map(|g| (0..4).map(|i| g * 4 + i).collect()).collect();
        assert!(intra_volume(&m, &groups) >= intra_volume(&m, &naive));
    }

    #[test]
    fn grouping_is_deterministic() {
        let m = patterns::random_symmetric(12, 0.5, 50.0, 11);
        let a = group_processes(&m, 3);
        let b = group_processes(&m, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn asymmetric_matrix_uses_total_volume() {
        // Directed edges only: 0→1 heavy, 2→3 heavy, 1→2 light.
        let m = CommMatrix::from_edges(4, &[(0, 1, 100.0), (2, 3, 100.0), (1, 2, 1.0)]);
        let groups = group_processes(&m, 2);
        assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn scratch_reuse_across_different_orders_is_clean() {
        let mut scratch = GroupingScratch::default();
        for (p, a) in [(12, 3), (5, 2), (20, 4), (12, 3)] {
            let m = patterns::random_symmetric(p, 0.5, 100.0, 17);
            let view = SparseComm::from_dense(&m);
            assert_eq!(group_processes_sparse(&view, a, &mut scratch), group_processes(&m, a), "p={p} a={a}");
        }
    }

    /// Regression pin: exact outputs of the pre-optimisation implementation
    /// on fixed seeded matrices, locking both the grouping decisions and
    /// the in-pass swap semantics documented on [`refine_by_swaps`].
    #[test]
    fn grouping_outputs_are_pinned() {
        let pins: [(u64, Groups); 3] = [
            (
                3,
                vec![
                    vec![0, 5, 13, 18],
                    vec![1, 3, 15, 17],
                    vec![2, 8, 10, 16],
                    vec![4, 21, 22, 23],
                    vec![6, 7, 14, 20],
                    vec![9, 11, 12, 19],
                ],
            ),
            (
                11,
                vec![
                    vec![0, 6, 14, 17],
                    vec![1, 3, 9, 10],
                    vec![2, 4, 15, 19],
                    vec![5, 8, 18, 21],
                    vec![7, 20, 22, 23],
                    vec![11, 12, 13, 16],
                ],
            ),
            (
                42,
                vec![
                    vec![0, 1, 7, 21],
                    vec![2, 10, 16, 22],
                    vec![3, 11, 17, 18],
                    vec![4, 6, 12, 23],
                    vec![5, 13, 14, 19],
                    vec![8, 9, 15, 20],
                ],
            ),
        ];
        for (seed, expected) in pins {
            let m = patterns::random_symmetric(24, 0.5, 100.0, seed);
            assert_eq!(group_processes(&m, 4), expected, "seed {seed}");
        }
    }

    /// The in-pass update semantics: an accepted swap is visible to the
    /// remainder of the same pass (positions are re-read), pinned on the
    /// anisotropic rotating-sweep matrices whose values are *not* exactly
    /// representable sums — the case where screening must still reproduce
    /// the naive decisions.
    #[test]
    fn refinement_pass_semantics_are_pinned() {
        let (before, after) = patterns::rotating_sweep_matrices(6, 4096.0, 64.0);
        assert_eq!(
            group_processes(&before, 8),
            vec![
                vec![0, 1, 6, 7, 8, 9, 10, 11],
                vec![2, 3, 4, 5, 24, 25, 30, 31],
                vec![12, 13, 14, 15, 18, 19, 20, 21],
                vec![16, 17, 22, 23, 26, 27, 28, 29],
                vec![32, 33, 34, 35],
            ]
        );
        assert_eq!(
            group_processes(&after, 8),
            vec![
                vec![0, 1, 6, 7, 13, 19, 25, 31],
                vec![2, 3, 8, 9, 14, 20, 26, 32],
                vec![4, 5, 10, 11, 16, 17, 22, 23],
                vec![12, 15, 18, 21, 24, 27, 30, 33],
                vec![28, 29, 34, 35],
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The incremental implementation is output-identical to the
        // retained naive reference on random *float-valued* matrices
        // (inexact sums — the screening path) across densities and arities.
        #[test]
        fn incremental_matches_naive_reference(
            n in 1usize..28,
            arity in 1usize..6,
            density in 0.0f64..1.0,
            seed in 0u64..500,
        ) {
            let m = patterns::random_symmetric(n, density, 987.654321, seed);
            prop_assert_eq!(group_processes(&m, arity), naive::group_processes(&m, arity));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Same identity on structured patterns (stencil, clustered,
        // power-law) — the shapes the sweep actually runs.
        #[test]
        fn incremental_matches_naive_on_structured_patterns(side in 2usize..6, arity in 2usize..9, seed in 0u64..100) {
            let stencil = patterns::stencil_2d(&patterns::StencilSpec {
                rows: side,
                cols: side + 1,
                edge_volume: 4096.0 * 0.2, // inexact on purpose
                corner_volume: 64.0 * 0.2,
            });
            prop_assert_eq!(group_processes(&stencil, arity), naive::group_processes(&stencil, arity));
            let pl = patterns::power_law(side * (side + 1), 3, 1.0e6, seed);
            prop_assert_eq!(group_processes(&pl, arity), naive::group_processes(&pl, arity));
            let cl = patterns::clustered(side, side + 1, 1000.0, 1.0);
            prop_assert_eq!(group_processes(&cl, arity), naive::group_processes(&cl, arity));
        }
    }
}
