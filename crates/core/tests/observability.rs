//! End-to-end observability contracts: the `fgh-metrics/1` document
//! validates for every model, per-phase durations account for the
//! measured elapsed time, and span nesting matches the documented phase
//! hierarchy under both serial and fork-join execution.

use fgh_core::{
    decompose_workload, metrics_json, validate_metrics_value, DecomposeConfig, Model, Parallelism,
    Workload, WorkloadAny, WorkloadKind, WorkloadOutcome,
};
use fgh_sparse::catalog::by_name;
use fgh_sparse::{AnyCsrMatrix, CsrMatrix};
use fgh_trace::json::parse;
use fgh_trace::TraceNode;

fn matrix() -> CsrMatrix {
    by_name("sherman3")
        .expect("catalog name")
        .generate_scaled(16, 1)
}

/// Golden-snapshot check: for every model the `--metrics-json` document
/// round-trips through the parser and validates against the documented
/// schema, with a non-null embedded trace whose root is `decompose`.
/// SpGEMM-workload models run `A·A`; everything else runs SpMV. The
/// decomposition runs on the `u32` matrix (the composite 2D models are
/// `u32`-only, also under `force-u64`).
#[test]
fn metrics_json_validates_for_all_models() {
    let a = matrix();
    let any = AnyCsrMatrix::U32(a.clone());
    for model in Model::ALL {
        let cfg = DecomposeConfig::new(model, 4)
            .with_epsilon(0.1)
            .with_trace(true);
        let (typed, workload) = match model.workload() {
            WorkloadKind::Spmv => (Workload::Spmv(&a), WorkloadAny::Spmv(&any)),
            WorkloadKind::Spgemm => (Workload::Spgemm(&a, &a), WorkloadAny::Spgemm(&any, &any)),
        };
        let out = decompose_workload(typed, &cfg).unwrap_or_else(|e| panic!("{model}: {e}"));
        let text = metrics_json(workload, &cfg, &out, None);
        let v = parse(&text).unwrap_or_else(|e| panic!("{model}: bad JSON: {e}"));
        validate_metrics_value(&v).unwrap_or_else(|e| panic!("{model}: {e}"));
        assert_eq!(v.get("model").unwrap().as_str(), Some(model.name()));
        assert_eq!(
            v.get("workload").unwrap().as_str(),
            Some(model.workload().name())
        );
        let trace = v.get("trace").unwrap();
        assert!(!trace.is_null(), "{model}: trace was requested");
        let root = &trace.as_arr().unwrap()[0];
        assert_eq!(root.get("name").unwrap().as_str(), Some("decompose"));
    }
}

/// `engine.phase_ns` in the metrics document mirrors the partitioner's
/// per-phase stage timers (fgh-core builds fgh-partition with `stats`,
/// so the counters are live), and in a serial run the three phases fit
/// inside the measured elapsed window.
#[test]
fn metrics_phase_ns_mirrors_engine_stats() {
    let a = matrix();
    let cfg = DecomposeConfig::new(Model::FineGrain2D, 8).with_parallelism(Parallelism::Serial);
    let out = decompose_workload(Workload::Spmv(&a), &cfg).unwrap();
    let any = AnyCsrMatrix::U32(a);
    let v = parse(&metrics_json(WorkloadAny::Spmv(&any), &cfg, &out, None)).unwrap();
    let out = out.into_spmv().unwrap();
    validate_metrics_value(&v).unwrap();
    let phase = v.get("engine").unwrap().get("phase_ns").unwrap();
    for (name, ns) in [
        ("coarsen", out.engine.coarsen_nanos),
        ("initial", out.engine.initial_nanos),
        ("refine", out.engine.refine_nanos),
    ] {
        assert_eq!(
            phase.get(name).unwrap().as_u64(),
            Some(ns),
            "phase_ns.{name} diverges from EngineStats"
        );
        assert!(ns > 0, "{name} nanos not populated despite stats feature");
    }
    let total = out.engine.coarsen_nanos + out.engine.initial_nanos + out.engine.refine_nanos;
    assert!(
        total <= out.elapsed.as_nanos() as u64,
        "serial phase nanos ({total}) exceed the elapsed window"
    );
}

/// The root `decompose` span covers the same window as
/// `DecompositionOutcome::elapsed`, and the per-phase child durations sum
/// to within 5% of it — the trace accounts for where the time went.
#[test]
fn phase_durations_sum_to_elapsed() {
    let a = matrix();
    let cfg = DecomposeConfig::new(Model::FineGrain2D, 8)
        .with_runs(2)
        .with_trace(true);
    let out = decompose_workload(Workload::Spmv(&a), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .unwrap();
    let trace = out.trace.as_ref().expect("trace was requested");
    let root = &trace.roots[0];
    assert_eq!(root.name, "decompose");

    let elapsed = out.elapsed.as_nanos() as u64;
    let tolerance = elapsed / 20; // 5%
    let drift = root.duration_ns.abs_diff(elapsed);
    assert!(
        drift <= tolerance,
        "root span {} ns vs elapsed {elapsed} ns (drift {drift})",
        root.duration_ns
    );
    let children_sum: u64 = root.children.iter().map(|c| c.duration_ns).sum();
    assert!(
        children_sum <= root.duration_ns,
        "children overlap the root: {children_sum} > {}",
        root.duration_ns
    );
    assert!(
        root.duration_ns - children_sum <= tolerance,
        "unattributed time: phases sum to {children_sum} of {} ns",
        root.duration_ns
    );
}

/// A trace-tree shape with timing and counters erased (arena reuse
/// counts legitimately depend on thread scheduling; the tree shape must
/// not). Fork-join `domain` wrapper spans are flattened into their
/// parent, so a forked branch compares equal to the same branch run
/// inline.
#[derive(Debug, PartialEq)]
struct Shape {
    name: String,
    index: Option<u64>,
    children: Vec<Shape>,
}

fn shape(n: &TraceNode) -> Shape {
    fn collect(n: &TraceNode, out: &mut Vec<Shape>) {
        for c in &n.children {
            if c.name == "domain" {
                collect(c, out);
            } else {
                out.push(shape(c));
            }
        }
    }
    let mut children = Vec::new();
    collect(n, &mut children);
    // Children are ordered (name, index, start_ns); flattened fork
    // branches re-enter that order minus the wall-clock tiebreak, which
    // scheduling owns.
    children.sort_by(|a, b| (&a.name, a.index).cmp(&(&b.name, b.index)));
    Shape {
        name: n.name.to_string(),
        index: n.index,
        children,
    }
}

fn assert_phase_hierarchy(root: &TraceNode, runs: usize, label: &str) {
    assert_eq!(root.name, "decompose", "{label}");
    for phase in ["model-build", "partition", "decode"] {
        assert!(root.child(phase).is_some(), "{label}: missing {phase}");
    }
    let partition = shape(root.child("partition").unwrap());
    let run_spans: Vec<&Shape> = partition
        .children
        .iter()
        .filter(|c| c.name == "run")
        .collect();
    assert_eq!(run_spans.len(), runs, "{label}: one span per seed");
    for (i, run) in run_spans.iter().enumerate() {
        assert_eq!(run.index, Some(i as u64), "{label}: run ordinal");
        let bisect = run
            .children
            .iter()
            .find(|c| c.name == "bisect")
            .unwrap_or_else(|| panic!("{label}: run[{i}] has no bisect"));
        let kid = |name: &str| bisect.children.iter().find(|c| c.name == name);
        assert!(kid("coarsen").is_some(), "{label}: no coarsen");
        assert!(kid("initial").is_some(), "{label}: no initial");
        let refine = kid("refine").unwrap_or_else(|| panic!("{label}: bisect has no refine"));
        assert!(
            refine.children.iter().any(|c| c.name == "fm-pass"),
            "{label}: no fm-pass"
        );
    }
}

/// The span tree nests exactly along the documented phase hierarchy
/// (`decompose → partition → run[i] → bisect → coarsen/initial/refine →
/// fm-pass`), and fork-join execution stitches per-domain spans into a
/// tree whose shape — with `domain` wrappers flattened — is identical to
/// the serial one.
#[test]
fn span_nesting_matches_phase_hierarchy_serial_and_threaded() {
    let a = matrix();
    let runs = 4;
    let mut trees = Vec::new();
    for (par, label) in [
        (Parallelism::Serial, "serial"),
        (Parallelism::Threads(4), "threads(4)"),
    ] {
        let cfg = DecomposeConfig::new(Model::FineGrain2D, 4)
            .with_runs(runs)
            .with_parallelism(par)
            .with_trace(true);
        let out = decompose_workload(Workload::Spmv(&a), &cfg)
            .and_then(WorkloadOutcome::into_spmv)
            .unwrap();
        let trace = out.trace.expect("trace was requested");
        assert_eq!(trace.roots.len(), 1, "{label}: single root");
        assert_phase_hierarchy(&trace.roots[0], runs, label);
        trees.push(trace);
    }

    // Same algorithm, same seeds: modulo the fork wrappers, the two
    // trees must have the same shape node for node.
    assert_eq!(
        shape(&trees[0].roots[0]),
        shape(&trees[1].roots[0]),
        "serial and threads(4) trace shapes diverge"
    );
}
