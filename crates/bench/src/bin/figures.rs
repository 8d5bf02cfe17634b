//! `figures` — the paper's Figure 1, the A1–A3 ablations and the C1
//! cluster-scaling table as one checked artifact (`BENCH_figure1.json`,
//! experiments E1/E2).
//!
//! ```sh
//! cargo run --release -p orwl-bench --bin figures                               # print the tables
//! cargo run --release -p orwl-bench --bin figures -- --out BENCH_figure1.json
//! cargo run --release -p orwl-bench --bin figures -- --check BENCH_figure1.json
//! ```
//!
//! Every number is simulator or placement output — a pure function of the
//! parameters below, so the document carries no timing and `--check`
//! demands byte identity with a fresh regeneration.  The ordering and the
//! two headline ratios are asserted by `tests/figure1_shape.rs`.
//! Exit status: `0` ok, `1` drift, `2` usage or I/O errors.

use orwl_bench::ablations::{control_mode_ablation, oversubscription_ablation, policy_ablation};
use orwl_bench::figure1::{default_socket_counts, figure1_sweep, headline};
use orwl_cluster::{hierarchical_placement, simulate_cluster, ClusterMachine};
use orwl_comm::patterns::{stencil_2d, StencilSpec};
use orwl_lk23::sim_model::Lk23Workload;
use orwl_numasim::exec::NoopSimMonitor;
use orwl_numasim::taskgraph::TaskGraph;
use orwl_obs::json::Json;
use orwl_topo::synthetic;
use orwl_treematch::policies::Policy;
use std::process::ExitCode;

const USAGE: &str = "usage: figures [--out PATH | --check PATH]";
/// Steady-state iterations simulated per Figure 1 point (scaled to the
/// paper's 100) and the NoBind scheduler seed.
const FIGURE1_ITERATIONS: usize = 10;
const FIGURE1_SEED: u64 = 42;

fn rows(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(items.into_iter().collect())
}

/// E1/E2: the three LK23 implementations over 8 → 192 cores, plus the
/// 192-core headline the paper quotes (≈ 11 s, ≈ 5× vs OpenMP, ≈ 2.8× vs NoBind).
fn figure1() -> Json {
    let sweep = figure1_sweep(&default_socket_counts(), FIGURE1_ITERATIONS, FIGURE1_SEED);
    let h = headline(&sweep);
    let mut head = Json::obj();
    head.push("cores", h.cores)
        .push("orwl_bind_s", h.orwl_bind_seconds)
        .push("bind_vs_openmp", h.speedup_vs_openmp)
        .push("bind_vs_nobind", h.speedup_vs_nobind);
    let mut doc = Json::obj();
    doc.push("machine", "simulated 24-socket x 8-core SMP, LK23 16384^2, scaled to 100 iterations")
        .push("iterations", FIGURE1_ITERATIONS)
        .push("seed", FIGURE1_SEED)
        .push(
            "rows",
            rows(sweep.iter().map(|r| {
                let mut row = Json::obj();
                row.push("cores", r.cores)
                    .push("openmp_s", r.openmp)
                    .push("orwl_nobind_s", r.orwl_nobind)
                    .push("orwl_bind_s", r.orwl_bind)
                    .push("bind_vs_openmp", r.speedup_vs_openmp())
                    .push("bind_vs_nobind", r.speedup_vs_nobind());
                row
            })),
        )
        .push("headline", head);
    doc
}

/// A1: every placement policy on 64 cores (LK23 8192², 64 blocks); the
/// cost column is also given relative to TreeMatch (≥ 1 means worse).
fn policies() -> Json {
    let topo = synthetic::cluster2016_subset(8).expect("8 of 24 sockets");
    let results = policy_ablation(&topo, &Lk23Workload::new(8192, 8, 8, 5), 5);
    let treematch = results
        .iter()
        .find(|r| r.policy == Policy::TreeMatch.name())
        .expect("the ablation covers every policy")
        .mapping_cost
        .max(1e-12);
    rows(results.into_iter().map(|r| {
        let mut row = Json::obj();
        row.push("policy", r.policy)
            .push("mapping_cost", r.mapping_cost)
            .push("cost_vs_treematch", r.mapping_cost / treematch)
            .push("simulated_s", r.simulated_time);
        row
    }))
}

/// A2: which of Algorithm 1's three control-thread modes each machine gets.
fn control_threads() -> Json {
    let cases = [
        (synthetic::dual_socket_smt(), 32, 4),
        (synthetic::cluster2016_subset(2).expect("2 of 24 sockets"), 8, 4),
        (synthetic::cluster2016_subset(1).expect("1 of 24 sockets"), 8, 2),
    ];
    rows(control_mode_ablation(&cases).into_iter().map(|r| {
        let mut row = Json::obj();
        row.push("machine", r.machine)
            .push("n_compute", r.n_compute)
            .push("n_control", r.n_control)
            .push("mode", format!("{:?}", r.mode))
            .push("bound_control_fraction", r.bound_control_fraction);
        row
    }))
}

/// A3: 1×, 2×, 4×, 8× tasks per core on 32 cores.
fn oversubscription() -> Json {
    rows(oversubscription_ablation(4, &[1, 2, 4, 8], 3).into_iter().map(|r| {
        let mut row = Json::obj();
        row.push("tasks_per_core", r.tasks_per_core)
            .push("n_tasks", r.n_tasks)
            .push("simulated_s", r.simulated_time);
        row
    }))
}

/// C1: the two-level placement and one simulated step at 2, 4 and 8 nodes
/// (one 9-point-stencil task per PU).
fn cluster_scaling() -> Json {
    rows([2usize, 4, 8].into_iter().map(|n_nodes| {
        let machine = ClusterMachine::paper(n_nodes);
        let side = (machine.n_pus() as f64).sqrt().round() as usize;
        let matrix = stencil_2d(&StencilSpec::nine_point_blocks(side, 1024, 8));
        let graph = TaskGraph::from_matrix(&matrix, 16384.0, 131072.0);
        let placement = hierarchical_placement(&machine, &graph.comm_matrix().symmetrized());
        let mapping = placement.global_mapping(&machine);
        let step = simulate_cluster(&machine, &graph, &mapping, 1, &mut NoopSimMonitor);
        let mut row = Json::obj();
        row.push("nodes", n_nodes)
            .push("tasks", graph.n_tasks())
            .push("intra_node_bytes", step.intra_node_bytes)
            .push("inter_node_bytes", step.inter_node_bytes)
            .push("fabric_messages", step.fabric_messages)
            .push("step_s", step.total_time);
        row
    }))
}

fn document() -> Json {
    let mut doc = Json::obj();
    doc.push("schema", "orwl-figures/v1")
        .push("figure1", figure1())
        .push("policies", policies())
        .push("control_threads", control_threads())
        .push("oversubscription", oversubscription())
        .push("cluster_scaling", cluster_scaling());
    doc
}

/// One table per array of flat objects: the first row's keys head the columns.
fn print_table(title: &str, table: &Json) {
    let items = table.as_arr().expect("a table is an array");
    let Some(Json::Obj(first)) = items.first() else { return };
    println!("=== {title} ===");
    println!("{}", first.iter().map(|(k, _)| format!("{k:>24}")).collect::<String>());
    for item in items {
        let Json::Obj(cells) = item else { continue };
        let line: String = cells
            .iter()
            .map(|(_, v)| match v {
                Json::Num(x) if *x != x.trunc() && (x.abs() >= 1e5 || x.abs() < 1e-2) => {
                    format!("{x:>24.3e}")
                }
                Json::Num(x) if *x != x.trunc() => format!("{x:>24.3}"),
                Json::Str(s) => format!("{s:>24}"),
                other => format!("{:>24}", other.to_string()),
            })
            .collect();
        println!("{line}");
    }
    println!();
}

fn print_tables(doc: &Json) {
    let section = |key: &str| doc.get(key).expect("document() wrote every section");
    let fig = section("figure1");
    print_table("E1/E2: Figure 1, processing time [s] by core count", fig.get("rows").expect("rows"));
    print_table(
        "headline (paper: ~11 s, ~5x vs OpenMP, ~2.8x vs NoBind)",
        &rows([fig.get("headline").expect("headline").clone()]),
    );
    print_table("A1: placement policies on 64 cores (LK23 8192^2, 64 blocks)", section("policies"));
    print_table("A2: control-thread handling", section("control_threads"));
    print_table("A3: oversubscription on 32 cores", section("oversubscription"));
    print_table("C1: two-level placement and one simulated step per node count", section("cluster_scaling"));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            print_tables(&document());
            ExitCode::SUCCESS
        }
        [flag, path] if flag == "--out" => {
            if let Err(e) = std::fs::write(path, document().pretty()) {
                eprintln!("figures: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("figures: wrote {path}");
            ExitCode::SUCCESS
        }
        [flag, path] if flag == "--check" => match std::fs::read_to_string(path) {
            Ok(committed) if committed == document().pretty() => {
                println!("figures: {path} regenerates byte-identically");
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!("figures: {path} does not match the regenerated document");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("figures: cannot read {path}: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
