//! The workload-generic decomposition API: one entry point, one pipeline
//! and one outcome type for every workload the models decompose.
//!
//! [`Workload`] names *what* runs in parallel — an SpMV `y = Ax` over one
//! square matrix, or an SpGEMM `C = A · B` over a conformable pair — and
//! [`decompose_workload`] runs it through the one decomposition pipeline
//! under one [`DecomposeConfig`]. The pipeline is the paper's method
//! whatever the workload: vertices are work units, nets are the words
//! that move, connectivity−1 is the exact volume. It validates the
//! request, opens the `decompose` trace span and the `elapsed` window,
//! serves empty inputs a trivial decomposition, runs the model, falls
//! back to round-robin when a degenerate K defeats it, computes the
//! exact statistics and attributes the status; only the model attempt,
//! the work units and the statistics differ between the two workload
//! families. The config's [`Model`](crate::Model) is coupled to the
//! workload family via [`Model::workload`](crate::Model::workload): an
//! SpMV model on a SpGEMM workload (or vice versa) is a typed
//! [`FghError::InvalidInput`], never a silent reinterpretation.
//!
//! There are three entry points. [`decompose_workload`] is width-generic
//! ([`Workload`] over `u32`/`u64` indices). [`decompose_workload_any`]
//! is width-erased ([`WorkloadAny`]): it auto-upgrades `u32` carriers
//! when the model's hypergraph would overflow 32-bit ids — for SpGEMM
//! that is driven by the *flop count*, which overflows long before either
//! matrix's own indices do. [`decompose_workload_any_in`] is the same
//! with partitioner scratch drawn from a caller-owned [`ArenaPool`], for
//! long-lived callers such as [`crate::EngineSession`]. Every entry point
//! returns a [`WorkloadOutcome`], whose variants are the one generic
//! [`Outcome`] at each family's decomposition and statistics types.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fgh_partition::{ArenaPool, EngineStats};
use fgh_sparse::{AnyCsrMatrix, CsrMatrix, IndexWidth};
use fgh_trace::{SpanHandle, Trace, Tracer};

use crate::api::{
    attach_coords, hypergraph_arm, DecomposeConfig, DecomposeIndex, SpmvFamily, WorkloadKind,
};
use crate::decomp::Decomposition;
use crate::metrics::{CommStats, CommSummary};
use crate::models::spgemm::{spgemm_flops, SpgemmCommStats, SpgemmDecomposition, SpgemmModel};
use crate::status::{DecompositionStatus, DegradedReason};
use crate::FghError;

/// A decomposition workload at a fixed index width: the matrices whose
/// computation is being distributed across `K` processors.
#[derive(Debug, Clone, Copy)]
pub enum Workload<'a, I: DecomposeIndex> {
    /// Sparse matrix-vector multiply `y = A x` (the paper's workload).
    /// `A` must be square.
    Spmv(&'a CsrMatrix<I>),
    /// Sparse matrix-matrix multiply `C = A · B`. Rectangular matrices
    /// are fine; only the inner dimensions must agree.
    Spgemm(&'a CsrMatrix<I>, &'a CsrMatrix<I>),
}

impl<I: DecomposeIndex> Workload<'_, I> {
    /// Which workload family this is.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            Workload::Spmv(_) => WorkloadKind::Spmv,
            Workload::Spgemm(..) => WorkloadKind::Spgemm,
        }
    }
}

/// A [`Workload`] over width-erased carriers (as produced by streaming
/// Matrix Market input) — the input to [`decompose_workload_any`].
#[derive(Debug, Clone, Copy)]
pub enum WorkloadAny<'a> {
    /// Sparse matrix-vector multiply `y = A x`.
    Spmv(&'a AnyCsrMatrix),
    /// Sparse matrix-matrix multiply `C = A · B`.
    Spgemm(&'a AnyCsrMatrix, &'a AnyCsrMatrix),
}

impl<'a> WorkloadAny<'a> {
    /// Which workload family this is.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            WorkloadAny::Spmv(_) => WorkloadKind::Spmv,
            WorkloadAny::Spgemm(..) => WorkloadKind::Spgemm,
        }
    }

    /// The operands: `A`, and `B` for a SpGEMM workload.
    pub(crate) fn operands(&self) -> (&'a AnyCsrMatrix, Option<&'a AnyCsrMatrix>) {
        match *self {
            WorkloadAny::Spmv(a) => (a, None),
            WorkloadAny::Spgemm(a, b) => (a, Some(b)),
        }
    }

    /// The index width [`decompose_workload_any`] runs this workload at:
    /// wide when the `force-u64` build routes everything wide, when any
    /// carrier is already wide, when any operand's own shape needs it
    /// ([`IndexWidth::select`] sizes the fine-grain hypergraph: nnz +
    /// dummies vertices, `2M` nets), or — for SpGEMM — when the flop count
    /// (task-hypergraph vertices) or the net-count bound (used A + used B
    /// + nnz(C) ≤ nnz(A) + nnz(B) + flops) would overflow `u32` ids.
    fn index_width(&self) -> IndexWidth {
        let (a, b) = self.operands();
        let wide = |m: &AnyCsrMatrix| {
            m.width() == IndexWidth::U64
                || IndexWidth::select(m.nrows(), m.ncols(), m.nnz() as u64) == IndexWidth::U64
        };
        if cfg!(feature = "force-u64") || wide(a) || b.is_some_and(wide) {
            return IndexWidth::U64;
        }
        let Some(b) = b else {
            return IndexWidth::U32;
        };
        let flops = match (a.as_u32(), b.as_u32()) {
            (Some(a), Some(b)) => spgemm_flops(a, b),
            // Unreachable (wide carriers returned above), but total.
            _ => u64::MAX,
        };
        let nets_bound = flops
            .saturating_add(a.nnz() as u64)
            .saturating_add(b.nnz() as u64);
        if nets_bound >= u32::MAX as u64 {
            IndexWidth::U64
        } else {
            IndexWidth::U32
        }
    }
}

/// The result of a decomposition, for either workload family: the
/// decoded mapping `D`, its exact communication statistics `S`, the
/// model's objective, wall-clock time, status, and what the engine did.
/// [`DecompositionOutcome`] and [`SpgemmOutcome`] name its two
/// instances.
#[derive(Debug, Clone)]
pub struct Outcome<D, S> {
    /// The decoded decomposition.
    pub decomposition: D,
    /// Exact communication statistics, replayed from the decomposition —
    /// ground truth independent of any model's objective.
    pub stats: S,
    /// The objective the partitioner minimized: edge cut for
    /// [`Model::Graph1D`](crate::Model::Graph1D), connectivity−1 cutsize
    /// for the hypergraph models (equal to `stats.total_volume()` — the
    /// models' exactness property), the exact decoded volume for the
    /// composite 2D models.
    pub objective: u64,
    /// Partitioning wall-clock time (model build + partitioning + decode).
    pub elapsed: Duration,
    /// Full or degraded, with the reason when degraded.
    pub status: DecompositionStatus,
    /// The index width the decomposition ran at: `U32` for the fast path,
    /// `U64` for the big path (via [`decompose_workload_any`]'s
    /// auto-upgrade or a caller's own wide matrix).
    pub width: IndexWidth,
    /// Multilevel engine statistics, including budget-truncation counters.
    /// For the single-partition models this is the winning run's stats;
    /// for the composite models ([`Model::Mondriaan2D`],
    /// [`Model::Jagged2D`], [`Model::CheckerboardHg2D`]) it is the
    /// **aggregate** over every internal engine run (merged counters —
    /// [`Model::CheckerboardHg2D`]'s phase-2 multi-constraint partitioner
    /// reports its placement and refinement work in the same vocabulary,
    /// with coarsening counters untouched). Zeroed
    /// only for [`Model::Checkerboard2D`], which builds its decomposition
    /// directly without any partitioner.
    ///
    /// [`Model::Mondriaan2D`]: crate::Model::Mondriaan2D
    /// [`Model::Jagged2D`]: crate::Model::Jagged2D
    /// [`Model::CheckerboardHg2D`]: crate::Model::CheckerboardHg2D
    /// [`Model::Checkerboard2D`]: crate::Model::Checkerboard2D
    pub engine: EngineStats,
    /// Structured execution trace, recorded when
    /// [`DecomposeConfig::trace`] was set: a tree of per-phase spans
    /// (monotonic start + duration, engine counters) rooted at
    /// `decompose`. `None` when tracing was off.
    pub trace: Option<Trace>,
}

/// The outcome of an SpMV decomposition.
pub type DecompositionOutcome = Outcome<Decomposition, CommStats>;

/// The outcome of a SpGEMM decomposition (task, A, B, and C owners). Its
/// flop count is `decomposition.task_owner.len()`.
pub type SpgemmOutcome = Outcome<SpgemmDecomposition, SpgemmCommStats>;

impl<D, S> Outcome<D, S> {
    /// Strict-mode check: returns the outcome unchanged when
    /// [`DecompositionStatus::Full`], otherwise converts the degradation
    /// into a typed error — [`FghError::BudgetExhausted`] when a budget
    /// limit truncated the run, [`FghError::Cancelled`] when a cancel
    /// token stopped it, [`FghError::Infeasible`] otherwise.
    pub fn into_strict(self) -> std::result::Result<Self, FghError> {
        match &self.status {
            DecompositionStatus::Full => Ok(self),
            DecompositionStatus::Degraded { reason } => match reason {
                DegradedReason::BudgetExhausted { .. } => {
                    Err(FghError::BudgetExhausted(reason.to_string()))
                }
                DegradedReason::Cancelled => Err(FghError::Cancelled(reason.to_string())),
                _ => Err(FghError::Infeasible(reason.to_string())),
            },
        }
    }
}

/// The result of [`decompose_workload`]: one variant per workload family.
/// A [`Workload::Spmv`] input always produces the `Spmv` variant and a
/// [`Workload::Spgemm`] input the `Spgemm` variant — the accessors exist
/// so callers that know their workload can unwrap without a panic path.
#[derive(Debug, Clone)]
pub enum WorkloadOutcome {
    /// Outcome of an SpMV decomposition.
    Spmv(DecompositionOutcome),
    /// Outcome of a SpGEMM decomposition.
    Spgemm(SpgemmOutcome),
}

impl WorkloadOutcome {
    /// Which workload family produced this outcome.
    pub fn kind(&self) -> WorkloadKind {
        match self {
            WorkloadOutcome::Spmv(_) => WorkloadKind::Spmv,
            WorkloadOutcome::Spgemm(_) => WorkloadKind::Spgemm,
        }
    }

    /// Full or degraded, for either family.
    pub fn status(&self) -> &DecompositionStatus {
        match self {
            WorkloadOutcome::Spmv(o) => &o.status,
            WorkloadOutcome::Spgemm(o) => &o.status,
        }
    }

    /// Unwraps the SpMV outcome; a typed error (never a panic) when the
    /// outcome belongs to another family.
    pub fn into_spmv(self) -> std::result::Result<DecompositionOutcome, FghError> {
        match self {
            WorkloadOutcome::Spmv(o) => Ok(o),
            other => Err(FghError::InvalidInput(format!(
                "expected an SpMV outcome, got {}",
                other.kind()
            ))),
        }
    }

    /// Unwraps the SpGEMM outcome; a typed error (never a panic) when
    /// the outcome belongs to another family.
    pub fn into_spgemm(self) -> std::result::Result<SpgemmOutcome, FghError> {
        match self {
            WorkloadOutcome::Spgemm(o) => Ok(o),
            other => Err(FghError::InvalidInput(format!(
                "expected a SpGEMM outcome, got {}",
                other.kind()
            ))),
        }
    }

    /// [`Outcome::into_strict`] for either family.
    pub fn into_strict(self) -> std::result::Result<Self, FghError> {
        match self {
            WorkloadOutcome::Spmv(o) => o.into_strict().map(WorkloadOutcome::Spmv),
            WorkloadOutcome::Spgemm(o) => o.into_strict().map(WorkloadOutcome::Spgemm),
        }
    }
}

/// Decomposes a workload for `cfg.k` processors with the configured
/// model.
///
/// Dispatch is total: a [`Workload::Spmv`] input runs the SpMV models and
/// returns [`WorkloadOutcome::Spmv`]; a [`Workload::Spgemm`] input
/// builds the fine-grain SpGEMM task hypergraph, partitions it with the
/// same multilevel engine, and returns [`WorkloadOutcome::Spgemm`].
///
/// # Failure semantics
///
/// * Malformed requests (`K = 0`, non-finite or negative ε, a non-square
///   SpMV matrix, non-conformable SpGEMM operands, a model whose
///   [`Model::workload`](crate::Model::workload) differs from the
///   workload's family) return a typed [`FghError`] — never a panic.
/// * The composite 2D models on a `u64` matrix return
///   [`FghError::UnsupportedWidth`] (see
///   [`Model::supports_wide_indices`](crate::Model::supports_wide_indices)).
/// * Pathological-but-valid inputs (empty matrix or product, `K` above
///   the work units) return a best-effort decomposition tagged
///   [`DecompositionStatus::Degraded`].
/// * When [`DecomposeConfig::budget`] trips (wall clock, level, FM-pass,
///   or byte caps), the best partition found so far is returned, the
///   truncation is visible in the outcome's `engine` counters, and the
///   outcome is `Degraded` — never an OOM abort. Strict callers reject
///   these via [`WorkloadOutcome::into_strict`].
pub fn decompose_workload<I: DecomposeIndex>(
    workload: Workload<'_, I>,
    cfg: &DecomposeConfig,
) -> std::result::Result<WorkloadOutcome, FghError> {
    decompose_in(workload, cfg, &Arc::new(ArenaPool::new()))
}

/// [`decompose_workload`] over width-erased carriers, choosing the index
/// width automatically:
///
/// * a `u64` carrier runs the big path directly;
/// * a `u32` SpMV carrier normally runs the fast path, but is upgraded to
///   `u64` first when [`IndexWidth::select`] says the fine-grain
///   hypergraph (nnz + dummies vertices, `2M` nets) would overflow
///   32-bit ids — the matrix itself fitting `u32` is not sufficient;
/// * a SpGEMM pair additionally upgrades when the flop count — the
///   task-hypergraph vertex count — would overflow `u32` ids;
/// * building with the `force-u64` cargo feature upgrades every carrier,
///   which CI uses to route the whole test suite through the big path.
///
/// The outcome's `width` records which path actually ran.
pub fn decompose_workload_any(
    workload: WorkloadAny<'_>,
    cfg: &DecomposeConfig,
) -> std::result::Result<WorkloadOutcome, FghError> {
    decompose_workload_any_in(workload, cfg, &Arc::new(ArenaPool::new()))
}

/// [`decompose_workload_any`] drawing all partitioner scratch arenas from
/// a caller-supplied [`ArenaPool`]. A long-lived caller passes the same
/// pool to every request so warm buffers survive across whole
/// decompositions (the engine-backed models benefit; the composite 2D
/// models keep run-internal pools).
pub fn decompose_workload_any_in(
    workload: WorkloadAny<'_>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<WorkloadOutcome, FghError> {
    match workload.index_width() {
        IndexWidth::U32 => decompose_at::<u32>(workload, cfg, pool),
        IndexWidth::U64 => decompose_at::<u64>(workload, cfg, pool),
    }
}

/// Runs a width-erased workload at index width `I`, converting carriers
/// that are not already at it.
fn decompose_at<I: DecomposeIndex>(
    workload: WorkloadAny<'_>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<WorkloadOutcome, FghError> {
    match workload {
        WorkloadAny::Spmv(a) => decompose_in(Workload::Spmv(&*I::from_any(a)?), cfg, pool),
        WorkloadAny::Spgemm(a, b) => {
            let (a, b) = (I::from_any(a)?, I::from_any(b)?);
            decompose_in(Workload::Spgemm(&*a, &*b), cfg, pool)
        }
    }
}

fn decompose_in<I: DecomposeIndex>(
    workload: Workload<'_, I>,
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
) -> std::result::Result<WorkloadOutcome, FghError> {
    match workload {
        Workload::Spmv(a) => {
            run_pipeline(cfg, pool, |_| SpmvFamily::new(a)).map(WorkloadOutcome::Spmv)
        }
        Workload::Spgemm(a, b) => run_pipeline(cfg, pool, |scope| {
            let _span = scope.child("model-build");
            Ok(SpgemmFamily(SpgemmModel::build(a, b)?))
        })
        .map(WorkloadOutcome::Spgemm),
    }
}

/// One workload family's side of [`run_pipeline`]: everything the shared
/// skeleton does not know.
pub(crate) trait Family {
    /// The workload family, checked against the config's model.
    const KIND: WorkloadKind;
    /// The index width the family's matrices are carried at.
    const WIDTH: IndexWidth;
    /// The decoded mapping.
    type Decomposition;
    /// Its exact communication statistics.
    type Stats: CommSummary;

    /// The units the K processors share: nonzeros (SpMV) or multiply
    /// tasks (SpGEMM).
    fn work_units(&self) -> u64;

    /// The trivial decomposition served when there are no work units.
    fn empty(&self, k: u32) -> std::result::Result<Self::Decomposition, FghError>;

    /// The configured model's build, partition and decode, recorded under
    /// `scope`: the decomposition, the model's objective and the engine
    /// statistics.
    fn attempt(
        &self,
        cfg: &DecomposeConfig,
        pool: &Arc<ArenaPool>,
        scope: &SpanHandle,
    ) -> std::result::Result<(Self::Decomposition, u64, EngineStats), FghError>;

    /// A valid round-robin decomposition for a degenerate K the model
    /// could not handle.
    fn round_robin(&self, k: u32) -> std::result::Result<Self::Decomposition, FghError>;

    /// Exact communication statistics of `d`.
    fn stats(&self, d: &Self::Decomposition) -> std::result::Result<Self::Stats, FghError>;
}

/// The decomposition pipeline both workload families run through.
/// `prepare` sets the family up (under the root `decompose` span, inside
/// the timed window); the skeleton validates the request, serves empty
/// inputs and degenerate K, and attributes the status. `elapsed` and the
/// root span cover model build, partition and decode; statistics are
/// computed outside both.
fn run_pipeline<F: Family>(
    cfg: &DecomposeConfig,
    pool: &Arc<ArenaPool>,
    prepare: impl FnOnce(&SpanHandle) -> std::result::Result<F, FghError>,
) -> std::result::Result<Outcome<F::Decomposition, F::Stats>, FghError> {
    if cfg.model.workload() != F::KIND {
        let family = match F::KIND {
            WorkloadKind::Spmv => "SpMV",
            WorkloadKind::Spgemm => "SpGEMM",
        };
        return Err(FghError::InvalidInput(format!(
            "model {} decomposes a {} workload, not {family}",
            cfg.model.name(),
            cfg.model.workload()
        )));
    }
    if cfg.k == 0 {
        return Err(FghError::InvalidInput("K must be >= 1".into()));
    }
    if !cfg.epsilon.is_finite() || cfg.epsilon < 0.0 {
        return Err(FghError::InvalidInput(format!(
            "epsilon must be finite and >= 0, got {}",
            cfg.epsilon
        )));
    }
    let (tracer, sink) = if cfg.trace {
        let (t, s) = Tracer::collecting();
        (t, Some(s))
    } else {
        (Tracer::disabled(), None)
    };
    let start = Instant::now();
    let root = tracer.span("decompose");
    let family = prepare(&root.handle())?;

    let units = family.work_units();
    // Degenerate inputs are served a trivial decomposition up front rather
    // than fed to partitioners that assume at least one unit of work.
    let (decomposition, objective, engine, forced_reason) = if units == 0 {
        let d = family.empty(cfg.k)?;
        (
            d,
            0,
            EngineStats::default(),
            Some(DegradedReason::EmptyMatrix),
        )
    } else {
        let degenerate = |fallback| DegradedReason::DegenerateK {
            k: cfg.k,
            nnz: units,
            fallback,
        };
        let forced = (cfg.k as u64 > units).then(|| degenerate(None));
        match family.attempt(cfg, pool, &root.handle()) {
            Ok((d, objective, engine)) => (d, objective, engine, forced),
            Err(e) if forced.is_some() => {
                // The model choked on the degenerate K; fall back instead
                // of failing, keeping the reason visible.
                let d = family.round_robin(cfg.k)?;
                let volume = family.stats(&d)?.total_volume();
                let reason = degenerate(Some(format!(
                    "{} failed on degenerate input: {e}",
                    cfg.model.name()
                )));
                (d, volume, EngineStats::default(), Some(reason))
            }
            Err(e) => return Err(e),
        }
    };
    let elapsed = start.elapsed();
    drop(root);
    let trace = sink.map(|s| s.build_trace());
    let stats = family.stats(&decomposition)?;
    let status = degradation_status(
        forced_reason,
        &engine,
        cfg,
        stats.load_imbalance_percent(),
        units,
    );
    Ok(Outcome {
        decomposition,
        stats,
        objective,
        elapsed,
        status,
        width: F::WIDTH,
        engine,
        trace,
    })
}

/// Status attribution: a forced reason (degenerate input) wins, then
/// cancellation, then budget truncation, then a missed balance target.
/// The balance tolerance adds one work unit of slack
/// (`100·K / work_units` percent) on top of ε — integer loads cannot hit
/// a fractional average exactly, and that granularity is not a
/// degradation. Cancellation wins the attribution over budget
/// truncation: a cancelled run is reported as cancelled, not a budget
/// accident.
fn degradation_status(
    forced_reason: Option<DegradedReason>,
    engine: &EngineStats,
    cfg: &DecomposeConfig,
    imbalance: f64,
    work_units: u64,
) -> DecompositionStatus {
    let allowed = cfg.epsilon * 100.0 + 100.0 * cfg.k as f64 / work_units.max(1) as f64 + 1e-9;
    if let Some(reason) = forced_reason {
        DecompositionStatus::Degraded { reason }
    } else if engine.cancelled() {
        DecompositionStatus::Degraded {
            reason: DegradedReason::Cancelled,
        }
    } else if engine.truncated() {
        DecompositionStatus::Degraded {
            reason: DegradedReason::BudgetExhausted {
                wall: engine.wall_truncations,
                levels: engine.level_truncations,
                fm_passes: engine.fm_truncations,
                bytes: engine.byte_truncations,
            },
        }
    } else if imbalance > allowed {
        DecompositionStatus::Degraded {
            reason: DegradedReason::BalanceInfeasible {
                epsilon: cfg.epsilon,
                achieved_percent: imbalance,
            },
        }
    } else {
        DecompositionStatus::Full
    }
}

/// The SpGEMM side of the pipeline: the task hypergraph of `A · B`, whose
/// multiply tasks are the work units. Its decode assigns every data
/// element to the owner of its first pin, which keeps the exact-volume
/// property for any task partition, round-robin included.
struct SpgemmFamily<I: DecomposeIndex>(SpgemmModel<I>);

impl<I: DecomposeIndex> Family for SpgemmFamily<I> {
    const KIND: WorkloadKind = WorkloadKind::Spgemm;
    const WIDTH: IndexWidth = I::WIDTH;
    type Decomposition = SpgemmDecomposition;
    type Stats = SpgemmCommStats;

    fn work_units(&self) -> u64 {
        self.0.structure().num_tasks() as u64
    }

    fn empty(&self, k: u32) -> std::result::Result<SpgemmDecomposition, FghError> {
        Ok(SpgemmDecomposition {
            k,
            task_owner: Vec::new(),
            a_owner: Vec::new(),
            b_owner: Vec::new(),
            c_owner: Vec::new(),
        })
    }

    fn attempt(
        &self,
        cfg: &DecomposeConfig,
        pool: &Arc<ArenaPool>,
        scope: &SpanHandle,
    ) -> std::result::Result<(SpgemmDecomposition, u64, EngineStats), FghError> {
        let model = &self.0;
        let mut pcfg = cfg.partition_config();
        // Tasks have natural (row, col) positions in the product.
        attach_coords(&mut pcfg, model.structure().num_tasks(), |t| {
            model.coords(t)
        });
        hypergraph_arm(cfg, &pcfg, pool, scope, model.hypergraph(), |r| {
            model.decode(&r.partition)
        })
    }

    fn round_robin(&self, k: u32) -> std::result::Result<SpgemmDecomposition, FghError> {
        let parts: Vec<u32> = (0..self.0.structure().num_tasks())
            .map(|t| (t % k as usize) as u32) // lint: checked-cast — value < k, a u32
            .collect();
        let p = fgh_hypergraph::Partition::new(k, parts)
            .map_err(fgh_partition::PartitionError::from)?;
        Ok(self.0.decode(&p)?)
    }

    fn stats(&self, d: &SpgemmDecomposition) -> std::result::Result<SpgemmCommStats, FghError> {
        Ok(SpgemmCommStats::compute_with(self.0.structure(), d)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Model;
    use fgh_sparse::gen::{self, ValueMode};
    use fgh_sparse::CooMatrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_matrix() -> CsrMatrix {
        gen::grid5(
            12,
            12,
            1.0,
            ValueMode::Ones,
            &mut SmallRng::seed_from_u64(5),
        )
    }

    fn spgemm_cfg(k: u32) -> DecomposeConfig {
        DecomposeConfig::new(Model::SpgemmFineGrain, k)
    }

    #[test]
    fn spgemm_outcome_is_exact_and_valid() {
        let a = test_matrix();
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(4))
            .unwrap()
            .into_spgemm()
            .unwrap();
        out.decomposition.validate(&a, &a).unwrap();
        assert_eq!(out.stats.k, 4);
        assert_eq!(
            out.objective,
            out.stats.total_volume(),
            "cutsize != replayed SpGEMM volume"
        );
        assert!(!out.decomposition.task_owner.is_empty());
        assert!(out.engine.bisections > 0, "engine-backed model");
    }

    #[test]
    fn spgemm_rectangular_pair_works() {
        // A: 6x4, B: 4x5 — only the inner dimension must agree.
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                6,
                4,
                vec![
                    (0, 0, 1.0),
                    (1, 1, 2.0),
                    (2, 2, 1.0),
                    (3, 3, 1.0),
                    (4, 0, 1.0),
                    (5, 2, 3.0),
                    (0, 3, 1.0),
                ],
            )
            .unwrap(),
        );
        let b: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                4,
                5,
                vec![
                    (0, 0, 1.0),
                    (0, 4, 1.0),
                    (1, 2, 1.0),
                    (2, 1, 1.0),
                    (3, 3, 1.0),
                ],
            )
            .unwrap(),
        );
        let out = decompose_workload(Workload::Spgemm(&a, &b), &spgemm_cfg(2))
            .unwrap()
            .into_spgemm()
            .unwrap();
        out.decomposition.validate(&a, &b).unwrap();
        assert_eq!(out.objective, out.stats.total_volume());
    }

    #[test]
    fn model_workload_mismatch_is_typed() {
        let a = test_matrix();
        // SpGEMM model on an SpMV workload.
        let r = decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::SpgemmFineGrain, 2),
        );
        assert!(matches!(r, Err(FghError::InvalidInput(_))), "{r:?}");
        // SpMV model on a SpGEMM workload.
        let r = decompose_workload(
            Workload::Spgemm(&a, &a),
            &DecomposeConfig::new(Model::FineGrain2D, 2),
        );
        assert!(matches!(r, Err(FghError::InvalidInput(_))), "{r:?}");
    }

    #[test]
    fn spgemm_rejects_bad_requests() {
        let a = test_matrix();
        assert!(decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(0)).is_err());
        let bad_eps = spgemm_cfg(2).with_epsilon(f64::NAN);
        assert!(decompose_workload(Workload::Spgemm(&a, &a), &bad_eps).is_err());
    }

    #[test]
    fn spgemm_empty_product_degrades() {
        // Disjoint support: A uses only column 0, B's row 0 is empty.
        let a: CsrMatrix =
            CsrMatrix::from_coo(CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0)]).unwrap());
        let b: CsrMatrix =
            CsrMatrix::from_coo(CooMatrix::from_triplets(2, 2, vec![(1, 1, 1.0)]).unwrap());
        let out = decompose_workload(Workload::Spgemm(&a, &b), &spgemm_cfg(2))
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert!(out.decomposition.task_owner.is_empty());
        assert_eq!(out.status.code(), Some("empty-matrix"));
        assert_eq!(out.stats.total_volume(), 0);
    }

    #[test]
    fn spgemm_degenerate_k_round_robins() {
        // K far above the flop count must degrade, not fail.
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 1.0)]).unwrap(),
        );
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(64))
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(out.status.code(), Some("degenerate-k"));
        out.decomposition.validate(&a, &a).unwrap();
        assert_eq!(out.objective, out.stats.total_volume());
    }

    #[test]
    fn spgemm_k1_costs_nothing() {
        let a = test_matrix();
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(1))
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(out.objective, 0);
        assert_eq!(out.stats.total_volume(), 0);
    }

    #[test]
    fn spgemm_wide_path_matches_fast_path() {
        let a = test_matrix();
        let a64: CsrMatrix<u64> = a.convert_width().unwrap();
        let cfg = spgemm_cfg(4);
        let narrow = decompose_workload(Workload::Spgemm(&a, &a), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        let wide = decompose_workload(Workload::Spgemm(&a64, &a64), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(wide.width, IndexWidth::U64);
        assert_eq!(narrow.decomposition, wide.decomposition);
        assert_eq!(narrow.objective, wide.objective);
    }

    #[test]
    fn workload_any_dispatches_spgemm() {
        let a = test_matrix();
        let cfg = spgemm_cfg(4);
        let typed = decompose_workload(Workload::Spgemm(&a, &a), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        let any = AnyCsrMatrix::from(a.clone());
        let erased = decompose_workload_any(WorkloadAny::Spgemm(&any, &any), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        if cfg!(feature = "force-u64") {
            assert_eq!(erased.width, IndexWidth::U64);
        } else {
            assert_eq!(erased.width, IndexWidth::U32);
        }
        assert_eq!(typed.decomposition, erased.decomposition);

        // A mixed-width pair runs wide.
        let wide = any.convert_width(IndexWidth::U64).unwrap();
        let mixed = decompose_workload_any(WorkloadAny::Spgemm(&any, &wide), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert_eq!(mixed.width, IndexWidth::U64);
        assert_eq!(typed.decomposition, mixed.decomposition);
    }

    #[test]
    fn spgemm_trace_and_strict_contract() {
        let a = test_matrix();
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(4).with_trace(true))
            .unwrap()
            .into_spgemm()
            .unwrap();
        let trace = out.trace.as_ref().expect("trace requested");
        let json = trace.to_json();
        assert!(json.contains("decompose") && json.contains("model-build"));
        assert!(out.clone().into_strict().is_ok());

        // Strict rejection of a budget-truncated run.
        let tight = spgemm_cfg(4).with_budget(crate::Budget::bytes(1));
        let out = decompose_workload(Workload::Spgemm(&a, &a), &tight)
            .unwrap()
            .into_spgemm()
            .unwrap();
        assert!(out.status.is_degraded());
        assert!(matches!(
            out.into_strict(),
            Err(FghError::BudgetExhausted(_))
        ));
    }

    #[test]
    fn outcome_accessors_are_total() {
        let a = test_matrix();
        let spmv = decompose_workload(Workload::Spmv(&a), &DecomposeConfig::new(Model::Graph1D, 2))
            .unwrap();
        assert_eq!(spmv.kind(), WorkloadKind::Spmv);
        assert!(matches!(
            spmv.clone().into_spgemm(),
            Err(FghError::InvalidInput(_))
        ));
        assert!(spmv.into_strict().is_ok());

        let spgemm = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(2)).unwrap();
        assert_eq!(spgemm.kind(), WorkloadKind::Spgemm);
        assert!(spgemm.clone().into_spgemm().is_ok());
        assert!(matches!(spgemm.into_spmv(), Err(FghError::InvalidInput(_))));
    }

    #[test]
    fn spgemm_balance_targets_flops() {
        // With default epsilon the task loads must be near-balanced.
        let a = test_matrix();
        let out = decompose_workload(Workload::Spgemm(&a, &a), &spgemm_cfg(4))
            .unwrap()
            .into_spgemm()
            .unwrap();
        let loads = out.decomposition.loads();
        let total: u64 = loads.iter().sum();
        assert_eq!(total, out.decomposition.task_owner.len() as u64);
        assert!(
            out.stats.load_imbalance_percent() <= 15.0,
            "imbalance {}%",
            out.stats.load_imbalance_percent()
        );
    }
}
