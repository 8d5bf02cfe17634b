//! Placement-at-scale harness: how fast is the (sparse, incremental-gain)
//! TreeMatch pipeline as the task count grows, and what locality does it
//! deliver?
//!
//! The grid is `p ∈ {64, 256, 512, 1024}` tasks × three matrix families —
//! `stencil` (the paper's LK23 decomposition), `power_law` (irregular
//! graph-analytics shape) and `clustered` (the pattern placement helps
//! most) — plus `p ∈ {2048, 4096}` for the two sparse families, each
//! placed on the paper's 192-PU SMP via flat TreeMatch.  Every cell records
//! the **placement wall time** and the quality metrics of the resulting
//! mapping.
//!
//! [`scaling_to_json`] lowers the cells into `BENCH_scaling.json`, shaped
//! as an `orwl-lab/v1` document (it passes `orwl_lab::report::validate`, so
//! the `artifact_diff` tool and the CI schema check apply as-is) with one extra
//! per-row column, `placement_wall_seconds`.  Unlike `BENCH_lab.json` the
//! artifact is *not* byte-reproducible — wall time is the point here — so
//! CI validates its schema and re-measures rather than `cmp`ing bytes.

use orwl_comm::matrix::CommMatrix;
use orwl_comm::metrics::{hop_bytes, traffic_breakdown};
use orwl_comm::patterns;
use orwl_core::json::Json;
use orwl_topo::synthetic;
use orwl_treematch::{PlacementScratch, TreeMatchMapper};
use std::time::Instant;

/// The matrix families of the grid.
pub(crate) const FAMILIES: [&str; 3] = ["stencil", "power_law", "clustered"];

/// The task counts every family is measured at.
pub(crate) const FULL_SIZES: [usize; 4] = [64, 256, 512, 1024];

/// The larger task counts, measured for the sparse families only
/// (`stencil`, `power_law`): a `clustered` matrix of 8-task cliques says
/// nothing new past 1024 tasks, and a dense 4096² matrix is 128 MiB.
pub(crate) const LARGE_SIZES: [usize; 2] = [2048, 4096];

/// Placements timed per cell, each of a freshly built matrix; the fastest
/// is recorded.
pub(crate) const REPEATS: usize = 3;

/// One measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingCell {
    /// Matrix family name.
    pub family: &'static str,
    /// Task count.
    pub tasks: usize,
    /// Topology the placement targeted.
    pub topology: String,
    /// Wall-clock seconds of the placement computation (the quantity this
    /// harness regresses).
    pub wall_seconds: f64,
    /// Hop-bytes of the computed mapping.
    pub hop_bytes: f64,
    /// Fraction of the traffic kept NUMA-local by the mapping.
    pub local_fraction: f64,
}

/// The `(family, tasks)` cells of the grid.  The smoke grid stops every
/// family at 256 tasks except the stencil, whose 512- and 1024-task cells
/// are the ones the CI latches (wall-clock budget, doubling ratio) are
/// asserted on.
#[must_use]
pub(crate) fn grid(smoke: bool) -> Vec<(&'static str, usize)> {
    let mut cells = Vec::new();
    for family in FAMILIES {
        let large = if family == "clustered" { &[][..] } else { &LARGE_SIZES[..] };
        for &p in FULL_SIZES.iter().chain(large) {
            if !smoke || p < 512 || (p <= 1024 && family == "stencil") {
                cells.push((family, p));
            }
        }
    }
    cells
}

/// The communication matrix of a grid cell (deterministic for a seed).
///
/// # Panics
/// Panics on an unknown family name.
#[must_use]
pub(crate) fn matrix_for(family: &str, p: usize, seed: u64) -> CommMatrix {
    match family {
        "stencil" => {
            // Squarest rows × cols factorisation of p, rows ≤ cols.
            let rows = (1..=p).filter(|&r| p.is_multiple_of(r) && r * r <= p).max().unwrap_or(1);
            patterns::stencil_2d(&patterns::StencilSpec {
                rows,
                cols: p / rows,
                edge_volume: 8192.0,
                corner_volume: 8.0,
            })
        }
        "power_law" => patterns::power_law(p, 4, 1.0e6, seed),
        "clustered" => patterns::clustered(p.div_ceil(8), 8, 1000.0, 1.0),
        other => panic!("unknown scaling family {other:?}"),
    }
}

/// Runs the grid: flat-TreeMatch placements on the paper's 192-PU machine,
/// scratch shared across cells (the steady-state regime the adaptive engine
/// runs in).  A cell's wall time is the fastest of `REPEATS` placements —
/// the run the box's other tenants disturbed least — so that ratios between
/// cells of one run mean something.  Every timed placement gets its own
/// copy of the matrix, built outside the timer: a matrix keeps its sparse
/// view after its first solve, and the cells time cold solves, scan
/// included.
#[must_use]
pub fn run_scaling(smoke: bool, seed: u64) -> Vec<ScalingCell> {
    let topo = synthetic::cluster2016_smp192();
    let mapper = TreeMatchMapper::compute_only();
    let mut scratch = PlacementScratch::new();
    grid(smoke)
        .into_iter()
        .map(|(family, tasks)| {
            let (wall_seconds, placement) = (0..REPEATS)
                .map(|_| {
                    let m = matrix_for(family, tasks, seed);
                    let start = Instant::now();
                    let placement = mapper.compute_placement_with(&topo, &m, &mut scratch);
                    (start.elapsed().as_secs_f64(), placement)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("REPEATS is positive");
            let m = matrix_for(family, tasks, seed);
            let mapping = placement.compute_mapping_or_zero();
            ScalingCell {
                family,
                tasks,
                topology: topo.name().to_string(),
                wall_seconds,
                hop_bytes: hop_bytes(&m, &topo, &mapping),
                local_fraction: traffic_breakdown(&m, &topo, &mapping).local_fraction(),
            }
        })
        .collect()
}

/// Lowers the cells into the `BENCH_scaling.json` document — an
/// `orwl-lab/v1`-shaped artifact (validates against the lab schema) with
/// the extra `placement_wall_seconds` column.
#[must_use]
pub fn scaling_to_json(cells: &[ScalingCell], seed: u64) -> Json {
    let mut rows = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut row = Json::obj();
        row.push("section", "scaling")
            .push("scenario", format!("{}/p{}/s{seed}", cell.family, cell.tasks).as_str())
            .push("family", cell.family)
            .push("tasks", cell.tasks)
            .push("backend", "threads")
            .push("topology", cell.topology.as_str())
            .push("nodes", Json::Null)
            .push("oversubscription", Json::Null)
            .push("policy", "treematch")
            .push("mode", "static")
            .push("hop_bytes", cell.hop_bytes)
            .push("sim_seconds", Json::Null)
            .push("local_fraction", cell.local_fraction)
            .push("inter_node_hop_bytes", Json::Null)
            .push("inter_node_fraction", Json::Null)
            .push("adapt_epochs", Json::Null)
            .push("adapt_replacements", Json::Null)
            .push("adapt_node_reshards", Json::Null)
            .push("vs_scatter", Json::Null)
            .push("vs_flat_treematch", Json::Null)
            .push("placement_wall_seconds", cell.wall_seconds);
        rows.push(row);
    }
    let mut doc = Json::obj();
    doc.push("schema", orwl_lab::SCHEMA_VERSION)
        .push("seed", seed)
        .push("n_rows", cells.len())
        .push("families", Json::Arr(FAMILIES.iter().copied().map(Json::from).collect()))
        .push("backends", Json::Arr(vec![Json::from("threads")]))
        .push("rows", Json::Arr(rows));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_the_documented_cells() {
        let full = grid(false);
        assert_eq!(full.len(), FAMILIES.len() * FULL_SIZES.len() + 2 * LARGE_SIZES.len());
        assert!(full.contains(&("power_law", 4096)) && !full.contains(&("clustered", 2048)));
        let smoke = grid(true);
        assert!(smoke.len() < full.len());
        for latched in [("stencil", 512), ("stencil", 1024)] {
            assert!(smoke.contains(&latched), "the CI latches read {latched:?}");
        }
        assert!(smoke.iter().all(|&(family, p)| p <= 256 || family == "stencil"));
        assert!(smoke.iter().all(|cell| full.contains(cell)));
    }

    #[test]
    fn matrices_have_the_requested_order_and_are_deterministic() {
        // (The 2048- and 4096-task matrices are 32 and 128 MiB: left to the bin.)
        for (family, p) in grid(false).into_iter().filter(|&(_, p)| p <= 1024) {
            let m = matrix_for(family, p, 42);
            assert_eq!(m.order(), p, "{family}/{p}");
            assert_eq!(m.as_slice(), matrix_for(family, p, 42).as_slice(), "{family}/{p}");
        }
    }

    #[test]
    fn emitted_document_passes_the_lab_schema() {
        let cells = run_scaling(true, 42)
            .into_iter()
            .filter(|c| c.tasks <= 64) // keep the unit test fast
            .collect::<Vec<_>>();
        assert!(!cells.is_empty());
        for cell in &cells {
            assert!(cell.wall_seconds >= 0.0);
            assert!(cell.hop_bytes.is_finite() && cell.hop_bytes > 0.0);
            assert!((0.0..=1.0).contains(&cell.local_fraction));
        }
        let doc = scaling_to_json(&cells, 42);
        orwl_lab::report::validate(&doc).unwrap();
        // The extra column survives the round trip.
        let reparsed = Json::parse(&doc.pretty()).unwrap();
        let rows = reparsed.get("rows").unwrap().as_arr().unwrap();
        assert!(rows.iter().all(|r| r.get("placement_wall_seconds").and_then(Json::as_f64).is_some()));
    }
}
