//! One job of each file-driven workload, from a `.mtx` file to a
//! verified answer.
//!
//! Each job exists in two forms. The untraced form calls the library the
//! way a user of `fgh_core` does, through `decompose_workload_any`; the
//! end-to-end metrics time it. The staged form makes the calls that
//! `decompose_workload_any` makes internally (model build, partition,
//! decode, objective), one public call at a time and each in its own
//! span, so traced mode can attribute the job's time to layers. Both
//! forms compute the same partition for the same seed, and traced mode
//! checks that they do.

use std::path::Path;
use std::sync::Arc;

use fgh_core::models::spgemm::{SpgemmCommStats, SpgemmDecomposition};
use fgh_core::models::{FineGrainModel, SpgemmModel};
use fgh_core::{
    decompose_workload_any, ArenaPool, CommStats, DecomposeConfig, Decomposition,
    DecompositionStatus, EngineStats, Model, Parallelism, WorkloadAny, WorkloadOutcome,
};
use fgh_hypergraph::Hypergraph;
use fgh_partition::{partition_hypergraph_best_traced_in, PartitionConfig, PartitionResult};
use fgh_sparse::{io, AnyCsrMatrix, CsrMatrix};
use fgh_spmv::{DistributedSpmv, MachineModel};
use fgh_trace::SpanHandle;

use crate::spans::within;
use crate::util::{seeded_vector, timed};

/// Relative tolerance of every numeric check against a serial reference.
pub const REL_TOL: f64 = 1e-9;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn config(model: Model, k: u32, seed: u64, par: Parallelism) -> DecomposeConfig {
    DecomposeConfig::new(model, k)
        .with_runs(1)
        .with_seed(seed)
        .with_parallelism(par)
}

fn require_full(status: &DecompositionStatus) -> Result<(), String> {
    match status {
        DecompositionStatus::Full => Ok(()),
        other => Err(format!("degraded decomposition: {other:?}")),
    }
}

fn as_u32(a: &AnyCsrMatrix) -> Result<&CsrMatrix<u32>, String> {
    a.as_u32()
        .ok_or_else(|| "benchmark inputs take the u32 index path".to_string())
}

/// Reads a `.mtx` file into CSR, as every job does first.
pub fn read_csr(path: &Path, scope: &SpanHandle) -> Result<AnyCsrMatrix, String> {
    let coo = within(scope, "sparse.parse", || io::read_matrix_market_any(path)).map_err(err)?;
    within(scope, "sparse.to_csr", || coo.try_into_csr()).map_err(err)
}

/// `max |got - want| <= REL_TOL * max(1, max |want|)`.
pub fn check_close(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} != {}", got.len(), want.len()));
    }
    let scale = want.iter().fold(1.0f64, |m, w| m.max(w.abs()));
    let worst = got
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
    if worst <= REL_TOL * scale {
        Ok(())
    } else {
        Err(format!("{what}: max error {worst:e} at scale {scale:e}"))
    }
}

/// What a decomposition job reports besides its time.
#[derive(Debug, Clone, Default)]
pub struct JobOut {
    pub volume: u64,
    pub imbalance_pct: f64,
    pub msgs_total: u64,
    pub max_proc_words: u64,
    pub engine: EngineStats,
    pub pins: u64,
    pub nnz: u64,
    /// SpMV plan facts (SpMV jobs only).
    pub plan_words: u64,
    pub plan_msgs: u64,
    pub abg_predicted_s: f64,
    /// The owner of every nonzero (or every multiply task), for the
    /// Serial ≡ Threads(n) check.
    pub owners: Vec<u32>,
}

impl JobOut {
    /// The quality facts of an SpMV decomposition.
    fn spmv(stats: &CommStats, engine: EngineStats, nnz: usize, owners: &[u32]) -> JobOut {
        JobOut {
            volume: stats.total_volume(),
            imbalance_pct: stats.load_imbalance_percent(),
            msgs_total: stats.total_messages(),
            max_proc_words: stats.max_sent_recv_words(),
            engine,
            nnz: nnz as u64,
            owners: owners.to_vec(),
            ..Default::default()
        }
    }

    /// The quality facts of an SpGEMM decomposition.
    fn spgemm(stats: &SpgemmCommStats, engine: EngineStats, nnz: usize, owners: &[u32]) -> JobOut {
        JobOut {
            volume: stats.total_volume(),
            imbalance_pct: stats.load_imbalance_percent(),
            msgs_total: stats.total_messages(),
            max_proc_words: stats.max_sent_recv_words(),
            engine,
            nnz: nnz as u64,
            owners: owners.to_vec(),
            ..Default::default()
        }
    }
}

/// The partitioner on `hg`, one run, as `decompose_workload_any` calls it.
fn partition(hg: &Hypergraph, k: u32, pcfg: &PartitionConfig) -> Result<PartitionResult, String> {
    let pool = Arc::new(ArenaPool::new());
    partition_hypergraph_best_traced_in(hg, k, pcfg, 1, &pool, &SpanHandle::noop()).map_err(err)
}

fn check_objective(objective: u64, cutsize: u64) -> Result<(), String> {
    if objective == cutsize {
        Ok(())
    } else {
        Err(format!("objective {objective} != cutsize {cutsize}"))
    }
}

/// A fine-grain SpMV decomposition made in stages, one public call per
/// span: model build, partition, decode, objective.
struct StagedFineGrain {
    d: Decomposition,
    stats: CommStats,
    cutsize: u64,
    engine: EngineStats,
    pins: u64,
}

fn staged_fine_grain(
    a: &CsrMatrix<u32>,
    k: u32,
    seed: u64,
    par: Parallelism,
    scope: &SpanHandle,
) -> Result<StagedFineGrain, String> {
    let pcfg = config(Model::FineGrain2D, k, seed, par).partition_config();
    let model = within(scope, "core.model_build", || FineGrainModel::build(a)).map_err(err)?;
    let r = within(scope, "partition.partition", || {
        partition(model.hypergraph(), k, &pcfg)
    })?;
    let d = within(scope, "core.decode", || model.decode(a, &r.partition)).map_err(err)?;
    let stats = within(scope, "core.objective", || CommStats::compute(a, &d)).map_err(err)?;
    check_objective(stats.total_volume(), r.cutsize)?;
    Ok(StagedFineGrain {
        d,
        stats,
        cutsize: r.cutsize,
        engine: r.stats,
        pins: model.hypergraph().num_pins() as u64,
    })
}

/// Builds the plan of `d`, checks the replayed traffic against the
/// objective, and checks one distributed `y = Ax` against serial.
fn verify_spmv(
    a: &CsrMatrix<u32>,
    d: &Decomposition,
    objective: u64,
    x_seed: u64,
    scope: &SpanHandle,
    out: &mut JobOut,
) -> Result<(), String> {
    let plan = within(scope, "spmv.plan_build", || DistributedSpmv::build(a, d)).map_err(err)?;
    within(scope, "spmv.validate", || plan.validate_cutsize(objective)).map_err(err)?;
    let x = within(scope, "bench.rhs", || {
        seeded_vector(x_seed, a.nrows() as usize)
    });
    let (y, comm) = {
        let s = scope.child("spmv.multiply");
        plan.multiply_traced(&x, &s.handle()).map_err(err)?
    };
    let want = within(scope, "sparse.spmv", || a.spmv(&x)).map_err(err)?;
    within(scope, "bench.verify", || {
        check_close("distributed spmv", &y, &want)
    })?;
    if comm.total_words() != objective {
        return Err(format!(
            "multiply moved {} words, objective {objective}",
            comm.total_words()
        ));
    }
    out.plan_words = comm.total_words();
    out.plan_msgs = comm.total_messages();
    out.abg_predicted_s = fgh_spmv::estimate(&plan, &MachineModel::modern_cluster()).t_parallel();
    Ok(())
}

/// decompose-spmv, untraced: file → `decompose_workload_any` → plan →
/// `validate_cutsize` → one checked multiply.
pub fn spmv_job(path: &Path, k: u32, seed: u64, par: Parallelism) -> Result<JobOut, String> {
    let noop = SpanHandle::noop();
    let a = read_csr(path, &noop)?;
    let cfg = config(Model::FineGrain2D, k, seed, par);
    let o = decompose_workload_any(WorkloadAny::Spmv(&a), &cfg)
        .and_then(WorkloadOutcome::into_spmv)
        .map_err(err)?;
    require_full(&o.status)?;
    let a32 = as_u32(&a)?;
    let mut out = JobOut::spmv(
        &o.stats,
        o.engine,
        a32.nnz(),
        &o.decomposition.nonzero_owner,
    );
    verify_spmv(a32, &o.decomposition, o.objective, seed, &noop, &mut out)?;
    Ok(out)
}

/// decompose-spmv, staged: the same job one public call per span.
pub fn spmv_job_staged(
    path: &Path,
    k: u32,
    seed: u64,
    par: Parallelism,
    scope: &SpanHandle,
) -> Result<JobOut, String> {
    let a = read_csr(path, scope)?;
    let a32 = as_u32(&a)?;
    let s = staged_fine_grain(a32, k, seed, par, scope)?;
    let mut out = JobOut::spmv(&s.stats, s.engine, a32.nnz(), &s.d.nonzero_owner);
    out.pins = s.pins;
    verify_spmv(a32, &s.d, s.cutsize, seed, scope, &mut out)?;
    Ok(out)
}

/// The SpGEMM checks: the storage-traffic replay moves exactly the
/// objective's words, and the partitioned numeric product equals the
/// serial one.
fn verify_spgemm(
    a: &CsrMatrix<u32>,
    d: &SpgemmDecomposition,
    objective: u64,
    scope: &SpanHandle,
) -> Result<(), String> {
    let report =
        within(scope, "traffic.simulate", || fgh_traffic::simulate(a, a, d)).map_err(err)?;
    if report.total_remote() != objective {
        return Err(format!(
            "simulated remote words {} != objective {objective}",
            report.total_remote()
        ));
    }
    within(scope, "traffic.verify", || {
        fgh_traffic::verify_numeric(a, a, d, REL_TOL)
    })
    .map_err(err)
}

/// decompose-spgemm, untraced: file → `decompose_workload_any` (A·A) →
/// traffic replay → numeric check.
pub fn spgemm_job(path: &Path, k: u32, seed: u64, par: Parallelism) -> Result<JobOut, String> {
    let noop = SpanHandle::noop();
    let a = read_csr(path, &noop)?;
    let cfg = config(Model::SpgemmFineGrain, k, seed, par);
    let o = decompose_workload_any(WorkloadAny::Spgemm(&a, &a), &cfg)
        .and_then(WorkloadOutcome::into_spgemm)
        .map_err(err)?;
    require_full(&o.status)?;
    let a32 = as_u32(&a)?;
    verify_spgemm(a32, &o.decomposition, o.objective, &noop)?;
    Ok(JobOut::spgemm(
        &o.stats,
        o.engine,
        a32.nnz(),
        &o.decomposition.task_owner,
    ))
}

/// decompose-spgemm, staged.
pub fn spgemm_job_staged(
    path: &Path,
    k: u32,
    seed: u64,
    par: Parallelism,
    scope: &SpanHandle,
) -> Result<JobOut, String> {
    let a = read_csr(path, scope)?;
    let a32 = as_u32(&a)?;
    let pcfg = config(Model::SpgemmFineGrain, k, seed, par).partition_config();
    let model = within(scope, "core.model_build", || SpgemmModel::build(a32, a32)).map_err(err)?;
    let r = within(scope, "partition.partition", || {
        partition(model.hypergraph(), k, &pcfg)
    })?;
    let d = within(scope, "core.decode", || model.decode(&r.partition)).map_err(err)?;
    let stats = within(scope, "core.objective", || {
        SpgemmCommStats::compute_with(model.structure(), &d)
    })
    .map_err(err)?;
    check_objective(stats.total_volume(), r.cutsize)?;
    verify_spgemm(a32, &d, r.cutsize, scope)?;
    let mut out = JobOut::spgemm(&stats, r.stats, a32.nnz(), &d.task_owner);
    out.pins = model.hypergraph().num_pins() as u64;
    Ok(out)
}

/// Reads `path`, builds `model`'s hypergraph for it (of A·A for
/// SpGEMM) and hands it to `f`.
fn with_hypergraph<T>(
    path: &Path,
    model: Model,
    f: impl FnOnce(&Hypergraph) -> Result<T, String>,
) -> Result<T, String> {
    let a = read_csr(path, &SpanHandle::noop())?;
    let a32 = as_u32(&a)?;
    match model {
        Model::SpgemmFineGrain => f(SpgemmModel::build(a32, a32).map_err(err)?.hypergraph()),
        _ => f(FineGrainModel::build(a32).map_err(err)?.hypergraph()),
    }
}

/// The partitioner alone on the hypergraph of `path`'s model, at `k`
/// parts under `par`, in seconds — the serial baseline and
/// first-bisection rows.
pub fn partition_only(
    path: &Path,
    model: Model,
    k: u32,
    seed: u64,
    par: Parallelism,
) -> Result<f64, String> {
    let pcfg = config(model, k, seed, par).partition_config();
    with_hypergraph(path, model, |hg| {
        let (r, t) = timed(|| partition(hg, k, &pcfg));
        r.map(|_| t)
    })
}

/// The whole `decompose_workload_any` call alone, in seconds.
pub fn time_decompose(
    path: &Path,
    model: Model,
    k: u32,
    seed: u64,
    par: Parallelism,
) -> Result<f64, String> {
    let a = read_csr(path, &SpanHandle::noop())?;
    let cfg = config(model, k, seed, par);
    let t = std::time::Instant::now();
    let o = match model {
        Model::SpgemmFineGrain => decompose_workload_any(WorkloadAny::Spgemm(&a, &a), &cfg),
        _ => decompose_workload_any(WorkloadAny::Spmv(&a), &cfg),
    }
    .map_err(err)?;
    let s = t.elapsed().as_secs_f64();
    require_full(o.status())?;
    Ok(s)
}

/// Pins of the hypergraph `model` builds for the matrix in `path`.
pub fn model_pins(path: &Path, model: Model) -> Result<u64, String> {
    with_hypergraph(path, model, |hg| Ok(hg.num_pins() as u64))
}

/// The cg-solve workload's prepared system: the matrix, its distributed
/// plan, and the quality facts of its decomposition.
pub struct CgSystem {
    pub a: CsrMatrix<u32>,
    pub plan: DistributedSpmv,
    pub out: JobOut,
}

/// cg-solve set-up: file → staged fine-grain decomposition → plan,
/// checked by `validate_cutsize`.
pub fn cg_setup(
    path: &Path,
    k: u32,
    seed: u64,
    par: Parallelism,
    scope: &SpanHandle,
) -> Result<CgSystem, String> {
    let a = read_csr(path, scope)?;
    let a32 = as_u32(&a)?.clone();
    let s = staged_fine_grain(&a32, k, seed, par, scope)?;
    let plan = within(scope, "spmv.plan_build", || {
        DistributedSpmv::build(&a32, &s.d)
    })
    .map_err(err)?;
    within(scope, "spmv.validate", || plan.validate_cutsize(s.cutsize)).map_err(err)?;
    let mut out = JobOut::spmv(&s.stats, s.engine, a32.nnz(), &[]);
    out.pins = s.pins;
    Ok(CgSystem { a: a32, plan, out })
}

/// CG stops at this relative residual.
pub const CG_TOL: f64 = 1e-8;
/// The solution must be this close to the manufactured one.
pub const CG_MAX_ERROR: f64 = 1e-6;

/// One cg-solve job: a manufactured solution `x*`, `b = A x*`, a CG
/// solve on the distributed plan, and the error check. Returns the
/// iteration count.
pub fn cg_job(sys: &CgSystem, rhs_seed: u64, scope: &SpanHandle) -> Result<usize, String> {
    let n = sys.a.nrows() as usize;
    let x_star = within(scope, "bench.rhs", || seeded_vector(rhs_seed, n));
    let b = within(scope, "sparse.spmv", || sys.a.spmv(&x_star)).map_err(err)?;
    let sol = within(scope, "spmv.solve", || {
        fgh_spmv::solver::conjugate_gradient(&sys.plan, &b, CG_TOL, 10 * n)
    })
    .map_err(err)?;
    within(scope, "bench.verify", || {
        let scale = x_star.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let worst = sol
            .x
            .iter()
            .zip(&x_star)
            .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
        if worst <= CG_MAX_ERROR * scale {
            Ok(sol.iterations)
        } else {
            Err(format!(
                "cg solution error {:e} (relative) after {} iterations",
                worst / scale,
                sol.iterations
            ))
        }
    })
}
