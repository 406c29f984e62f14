//! Golden cutsize-identity tests for the hot-loop kernels.
//!
//! The connectivity/gain/coarsening kernel rewrites (DESIGN.md §5.10) are
//! required to be *behavior-preserving*: every structure was redesigned for
//! locality, not for different decisions, so the engine must reproduce the
//! exact per-seed objectives it produced before the rewrite. These
//! constants were captured from the pre-rewrite engine on the synthetic
//! catalog analogues; any drift means a kernel changed tie-breaking or
//! gain arithmetic, not just speed — treat a failure here as a
//! correctness regression, never re-record without understanding why.
//!
//! Beside the fine-grain single-run rows, the table pins the graph
//! baseline and both 1D hypergraph models, and the multi-seed best-pick
//! (`runs = 4` under a two-thread fan-out) on a hypergraph and on the
//! graph substrate, so the shared seed fan-out is guarded too. The
//! multi-seed rows use disjoint seed windows (`base..base + 4`).

use fgh_core::{
    decompose_workload, DecomposeConfig, Model, Parallelism, Workload, WorkloadOutcome,
};
use fgh_sparse::catalog::by_name;
use Model::{FineGrain2D, Graph1D, Hypergraph1DColNet, Hypergraph1DRowNet};
use Parallelism::{Auto, Threads};

/// (catalog name, model, scale, k, runs, parallelism, [(seed, objective); 3])
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const GOLDEN: &[(&str, Model, u32, u32, usize, Parallelism, [(u64, u64); 3])] = &[
    ("sherman3", FineGrain2D, 8, 8, 1, Auto, [(1, 84), (2, 105), (3, 91)]),
    ("bcspwr10", FineGrain2D, 8, 8, 1, Auto, [(1, 338), (2, 363), (3, 358)]),
    ("ken-11", FineGrain2D, 16, 4, 1, Auto, [(1, 619), (2, 617), (3, 624)]),
    ("sherman3", Graph1D, 8, 8, 1, Auto, [(1, 104), (2, 116), (3, 106)]),
    ("sherman3", Hypergraph1DColNet, 8, 8, 1, Auto, [(1, 102), (2, 97), (3, 97)]),
    ("bcspwr10", Hypergraph1DRowNet, 8, 8, 1, Auto, [(1, 412), (2, 407), (3, 396)]),
    ("sherman3", FineGrain2D, 8, 8, 4, Threads(2), [(1, 84), (5, 90), (9, 90)]),
    ("bcspwr10", Graph1D, 8, 8, 4, Threads(2), [(1, 454), (5, 454), (9, 444)]),
];

fn objective(
    name: &str,
    model: Model,
    scale: u32,
    k: u32,
    runs: usize,
    parallelism: Parallelism,
    seed: u64,
) -> u64 {
    let entry = by_name(name).unwrap_or_else(|| panic!("{name} not in catalog"));
    let a = entry.generate_scaled(scale, 42);
    let cfg = DecomposeConfig::new(model, k)
        .with_seed(seed)
        .with_runs(runs)
        .with_parallelism(parallelism);
    let out = decompose_workload(Workload::Spmv(&a), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    out.objective
}

#[test]
fn per_seed_objectives_match_pre_rewrite_engine() {
    let mut failures = Vec::new();
    for &(name, model, scale, k, runs, parallelism, seeds) in GOLDEN {
        let label = format!("{name} scale {scale} {model} k {k} runs {runs} {parallelism:?}");
        for (seed, want) in seeds {
            let got = objective(name, model, scale, k, runs, parallelism, seed);
            println!("golden: {label} seed {seed} => {got}");
            if got != want {
                failures.push(format!("{label} seed {seed}: got {got}, recorded {want}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "objective drift:\n{}",
        failures.join("\n")
    );
}
