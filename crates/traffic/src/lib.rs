//! # fgh-traffic — storage-traffic simulator for partitioned SpGEMM
//!
//! Replays a partitioned `C = A · B` ([`fgh_core::models::SpgemmDecomposition`])
//! element-at-a-time and counts the storage traffic every matrix incurs,
//! in the per-matrix-counter shape of spada-sim's `OmegaTraffic` /
//! `CsrMatStorage` statistics:
//!
//! * **`A` / `B`** — `dram_reads` (the owner part streams the element out
//!   of its local storage the first time anyone needs it; later local
//!   uses hit the row buffer) and `remote_reads` (one word per *distinct
//!   non-owner part* with a multiply task reading the element — the
//!   expand traffic of the distributed algorithm).
//! * **`C`** — `remote_writes` (one partial-result word per distinct
//!   non-owner part producing into the element — the fold traffic) and
//!   `dram_writes` (the owner commits each final value exactly once).
//!
//! The point of the crate is the cross-check: for a decomposition decoded
//! from the fine-grain SpGEMM model, the simulator's **measured** remote
//! traffic equals the model's **predicted** communication volume — the
//! connectivity−1 cutsize — exactly, element class by element class
//! (`a.remote_reads + b.remote_reads` = expand volume, `c.remote_writes`
//! = fold volume). This mirrors the repo's cutsize == replayed-SpMV-volume
//! validation, one abstraction level lower: not "the model counts what
//! the statistics count" but "the model counts what a storage system
//! would actually move".
//!
//! [`verify_numeric`] closes the loop on correctness of the *computation*
//! itself: it executes the partitioned multiply numerically (per-part
//! partials folded to the owner) and compares against a serial Gustavson
//! reference row by row, with a relative tolerance because the two sum
//! the same products in different orders.

// Robustness contract: library (non-test) code must not panic; provably
// infallible sites carry a narrowly scoped `allow` with a justification.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

use fgh_core::models::{SpgemmDecomposition, SpgemmStructure};
use fgh_core::{DecomposeIndex, ModelError};
use fgh_sparse::{AnyCsrMatrix, CsrMatrix, IndexType, SparseError};
use fgh_trace::json::Value;

/// Errors from traffic simulation and numeric verification.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// Structure enumeration or decomposition validation failed.
    Model(ModelError),
    /// A width-erased operand could not be brought to the common width.
    Sparse(SparseError),
    /// The partitioned numeric replay diverged from the Gustavson
    /// reference beyond the allowed relative tolerance.
    NumericMismatch {
        /// Row and column of the worst-offending `C` element.
        row: u64,
        col: u64,
        /// The partitioned replay's value.
        got: f64,
        /// The serial reference value.
        want: f64,
    },
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::Model(e) => write!(f, "{e}"),
            TrafficError::Sparse(e) => write!(f, "{e}"),
            TrafficError::NumericMismatch {
                row,
                col,
                got,
                want,
            } => write!(
                f,
                "partitioned SpGEMM diverges from the serial reference at \
                 c[{row},{col}]: got {got}, want {want}"
            ),
        }
    }
}

impl std::error::Error for TrafficError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrafficError::Model(e) => Some(e),
            TrafficError::Sparse(e) => Some(e),
            TrafficError::NumericMismatch { .. } => None,
        }
    }
}

impl From<ModelError> for TrafficError {
    fn from(e: ModelError) -> Self {
        TrafficError::Model(e)
    }
}

impl From<SparseError> for TrafficError {
    fn from(e: SparseError) -> Self {
        TrafficError::Sparse(e)
    }
}

/// Read-side traffic of one operand matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadTraffic {
    /// Elements the owner part streamed out of its local storage
    /// (compulsory traffic: every used element is read exactly once).
    pub dram_reads: u64,
    /// Words served to non-owner parts — this matrix's share of the
    /// expand volume.
    pub remote_reads: u64,
}

/// Write-side traffic of the result matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteTraffic {
    /// Final values the owner committed (one per structural nonzero).
    pub dram_writes: u64,
    /// Partial-result words folded in from non-owner producers — the
    /// fold volume.
    pub remote_writes: u64,
}

/// Per-matrix storage-traffic counters of one partitioned SpGEMM replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Traffic of the `A` operand.
    pub a: ReadTraffic,
    /// Traffic of the `B` operand.
    pub b: ReadTraffic,
    /// Traffic of the `C` result.
    pub c: WriteTraffic,
}

impl TrafficReport {
    /// Total words crossing part boundaries — the quantity the model's
    /// connectivity−1 cutsize predicts exactly.
    pub fn total_remote(&self) -> u64 {
        self.a.remote_reads + self.b.remote_reads + self.c.remote_writes
    }

    /// Total local storage traffic (compulsory reads + final writes).
    pub fn total_dram(&self) -> u64 {
        self.a.dram_reads + self.b.dram_reads + self.c.dram_writes
    }

    /// The report as the `traffic` member of an `fgh-metrics/1` document
    /// (validated by [`fgh_core::validate_metrics_value`]).
    pub fn to_value(&self) -> Value {
        fn num(n: u64) -> Value {
            Value::Num(n as f64)
        }
        let mut a = BTreeMap::new();
        a.insert("dram_reads".into(), num(self.a.dram_reads));
        a.insert("remote_reads".into(), num(self.a.remote_reads));
        let mut b = BTreeMap::new();
        b.insert("dram_reads".into(), num(self.b.dram_reads));
        b.insert("remote_reads".into(), num(self.b.remote_reads));
        let mut c = BTreeMap::new();
        c.insert("dram_writes".into(), num(self.c.dram_writes));
        c.insert("remote_writes".into(), num(self.c.remote_writes));
        let mut t = BTreeMap::new();
        t.insert("a".into(), Value::Obj(a));
        t.insert("b".into(), Value::Obj(b));
        t.insert("c".into(), Value::Obj(c));
        t.insert("total_remote".into(), num(self.total_remote()));
        Value::Obj(t)
    }
}

/// Replays the partitioned product and returns its traffic counters.
/// Enumerates the canonical structure internally; use [`simulate_with`]
/// when the caller already has one.
pub fn simulate<I: IndexType>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    d: &SpgemmDecomposition,
) -> Result<TrafficReport, TrafficError> {
    let s = SpgemmStructure::build(a, b)?;
    simulate_with(&s, d)
}

/// [`simulate`] over width-erased carriers (what the CLI and the serve
/// daemon hold): a `u32` pair runs as is, any other pair at `u64`. The
/// counters do not depend on the width.
pub fn simulate_any(
    a: &AnyCsrMatrix,
    b: &AnyCsrMatrix,
    d: &SpgemmDecomposition,
) -> Result<TrafficReport, TrafficError> {
    match (a.as_u32(), b.as_u32()) {
        (Some(a), Some(b)) => simulate(a, b, d),
        _ => simulate(&*u64::from_any(a)?, &*u64::from_any(b)?, d),
    }
}

/// [`simulate`] against an already-built canonical structure.
pub fn simulate_with<I: IndexType>(
    s: &SpgemmStructure<I>,
    d: &SpgemmDecomposition,
) -> Result<TrafficReport, TrafficError> {
    d.validate_against(s)?;
    let k = d.k as usize;
    let mut report = TrafficReport::default();

    // A: consumers of element e are the owners of its contiguous tasks.
    // The owner's first touch streams the element from DRAM; every other
    // distinct part costs one remote word.
    let mut stamp = vec![usize::MAX; k];
    for (e, &owner) in d.a_owner.iter().enumerate() {
        if s.a_starts[e] == s.a_starts[e + 1] {
            continue; // defensively: used elements always have tasks
        }
        report.a.dram_reads += 1;
        stamp[owner as usize] = e;
        for t in s.a_starts[e]..s.a_starts[e + 1] {
            let p = d.task_owner[t] as usize;
            if stamp[p] != e {
                stamp[p] = e;
                report.a.remote_reads += 1;
            }
        }
    }

    // B consumers and C producers are scattered across the task order;
    // group tasks per element once, then replay element-at-a-time.
    let mut b_tasks: Vec<Vec<usize>> = vec![Vec::new(); s.b_elems.len()];
    let mut c_tasks: Vec<Vec<usize>> = vec![Vec::new(); s.c_elems.len()];
    for t in 0..s.tasks.len() {
        b_tasks[s.task_b[t]].push(t);
        c_tasks[s.task_c[t]].push(t);
    }

    let mut stamp = vec![usize::MAX; k];
    for (e, tasks) in b_tasks.iter().enumerate() {
        if tasks.is_empty() {
            continue;
        }
        report.b.dram_reads += 1;
        stamp[d.b_owner[e] as usize] = e;
        for &t in tasks {
            let p = d.task_owner[t] as usize;
            if stamp[p] != e {
                stamp[p] = e;
                report.b.remote_reads += 1;
            }
        }
    }

    let mut stamp = vec![usize::MAX; k];
    for (e, tasks) in c_tasks.iter().enumerate() {
        if tasks.is_empty() {
            continue;
        }
        report.c.dram_writes += 1;
        stamp[d.c_owner[e] as usize] = e;
        for &t in tasks {
            let p = d.task_owner[t] as usize;
            if stamp[p] != e {
                stamp[p] = e;
                report.c.remote_writes += 1;
            }
        }
    }

    Ok(report)
}

/// Executes the partitioned multiply numerically: each part accumulates
/// its tasks' products locally (canonical order within the part), then
/// the partials fold to the owner in ascending part order. Returns the
/// values of `C` in the canonical `c_elems` order (row-major, columns
/// ascending).
pub fn replay_numeric<I: IndexType>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    d: &SpgemmDecomposition,
) -> Result<Vec<f64>, TrafficError> {
    let s = SpgemmStructure::build(a, b)?;
    d.validate_against(&s)?;
    let k = d.k as usize;

    // Per-part partials per C element, stamp-reset between elements.
    let mut partial = vec![0.0f64; k];
    let mut touched = vec![usize::MAX; k];

    // Products per task, canonical order: walk the same enumeration the
    // structure was built from so values line up with task ids.
    let mut products = Vec::with_capacity(s.tasks.len());
    let m = a.nrows().index();
    for iu in 0..m {
        let i = I::from_index(iu);
        let cols = a.row_cols(i);
        let vals = a.row_vals(i);
        for (pos, &ki) in cols.iter().enumerate() {
            if b.row_nnz(ki) == 0 {
                continue;
            }
            let av = vals[pos];
            for &bv in b.row_vals(ki) {
                products.push(av * bv);
            }
        }
    }
    debug_assert_eq!(products.len(), s.tasks.len());

    let mut c_tasks: Vec<Vec<usize>> = vec![Vec::new(); s.c_elems.len()];
    for t in 0..s.tasks.len() {
        c_tasks[s.task_c[t]].push(t);
    }
    let mut out = Vec::with_capacity(s.c_elems.len());
    for (e, tasks) in c_tasks.iter().enumerate() {
        for &t in tasks {
            let p = d.task_owner[t] as usize;
            if touched[p] != e {
                touched[p] = e;
                partial[p] = 0.0;
            }
            partial[p] += products[t];
        }
        let mut v = 0.0f64;
        for p in 0..k {
            if touched[p] == e {
                v += partial[p];
            }
        }
        out.push(v);
    }
    Ok(out)
}

/// Serial Gustavson `C = A · B`, values in the canonical `c_elems` order
/// — the reference [`verify_numeric`] compares the partitioned replay
/// against.
pub fn reference_product<I: IndexType>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
) -> Result<Vec<f64>, TrafficError> {
    if a.ncols() != b.nrows() {
        return Err(TrafficError::Model(ModelError::Invalid(format!(
            "SpGEMM inner dimensions disagree: A is {} x {}, B is {} x {}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        ))));
    }
    let n = b.ncols().index();
    let mut acc = vec![0.0f64; n];
    let mut seen = vec![usize::MAX; n];
    let mut out = Vec::new();
    let m = a.nrows().index();
    for iu in 0..m {
        let i = I::from_index(iu);
        let mut row_cols: Vec<usize> = Vec::new();
        let cols = a.row_cols(i);
        let vals = a.row_vals(i);
        for (pos, &ki) in cols.iter().enumerate() {
            let av = vals[pos];
            let bcols = b.row_cols(ki);
            let bvals = b.row_vals(ki);
            for (bpos, &j) in bcols.iter().enumerate() {
                let ju = j.index();
                if seen[ju] != iu {
                    seen[ju] = iu;
                    acc[ju] = 0.0;
                    row_cols.push(ju);
                }
                acc[ju] += av * bvals[bpos];
            }
        }
        row_cols.sort_unstable();
        for ju in row_cols {
            out.push(acc[ju]);
        }
    }
    Ok(out)
}

/// Runs the partitioned numeric replay and checks it against the serial
/// Gustavson reference with relative tolerance `rel_tol` (the two sum
/// identical products in different orders, so exact equality is not
/// guaranteed in floating point). Returns the worst mismatch as a typed
/// error.
pub fn verify_numeric<I: IndexType>(
    a: &CsrMatrix<I>,
    b: &CsrMatrix<I>,
    d: &SpgemmDecomposition,
    rel_tol: f64,
) -> Result<(), TrafficError> {
    let got = replay_numeric(a, b, d)?;
    let want = reference_product(a, b)?;
    if got.len() != want.len() {
        return Err(TrafficError::Model(ModelError::Invalid(format!(
            "replay produced {} C elements, reference {}",
            got.len(),
            want.len()
        ))));
    }
    let s = SpgemmStructure::build(a, b)?;
    for (e, (&g, &w)) in got.iter().zip(want.iter()).enumerate() {
        let scale = w.abs().max(g.abs()).max(1.0);
        if (g - w).abs() > rel_tol * scale {
            let (i, j) = s.c_elems[e];
            return Err(TrafficError::NumericMismatch {
                row: i.as_u64(),
                col: j.as_u64(),
                got: g,
                want: w,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_core::models::{SpgemmCommStats, SpgemmModel};
    use fgh_core::CommSummary;
    use fgh_hypergraph::{cutsize_connectivity, Partition};
    use fgh_sparse::gen::{self, ValueMode};
    use fgh_sparse::CooMatrix;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid(seed: u64) -> CsrMatrix {
        gen::grid5(
            10,
            10,
            1.0,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(seed),
        )
    }

    fn salted_decomposition(
        m: &SpgemmModel,
        k: u32,
        salt: u32,
    ) -> (Partition, SpgemmDecomposition) {
        let nv = m.hypergraph().num_vertices() as usize;
        let parts: Vec<u32> = (0..nv as u32)
            .map(|t| (t.wrapping_mul(13) + salt) % k)
            .collect();
        let p = Partition::new(k, parts).unwrap();
        let d = m.decode(&p).unwrap();
        (p, d)
    }

    #[test]
    fn measured_traffic_equals_predicted_volume() {
        // The tentpole cross-check: simulator-measured remote traffic ==
        // model cutsize == replayed communication volume, per phase.
        let a = grid(1);
        let m = SpgemmModel::build(&a, &a).unwrap();
        for k in [2u32, 3, 5] {
            for salt in 0..3 {
                let (p, d) = salted_decomposition(&m, k, salt);
                let report = simulate(&a, &a, &d).unwrap();
                let stats = SpgemmCommStats::compute(&a, &a, &d).unwrap();
                assert_eq!(
                    report.a.remote_reads + report.b.remote_reads,
                    stats.expand_volume(),
                    "k={k} salt={salt}: expand"
                );
                assert_eq!(
                    report.c.remote_writes, stats.fold_volume,
                    "k={k} salt={salt}: fold"
                );
                assert_eq!(
                    report.total_remote(),
                    cutsize_connectivity(m.hypergraph(), &p),
                    "k={k} salt={salt}: cutsize"
                );
            }
        }
    }

    #[test]
    fn compulsory_traffic_is_element_counts() {
        let a = grid(2);
        let m = SpgemmModel::build(&a, &a).unwrap();
        let (_, d) = salted_decomposition(&m, 4, 0);
        let s = m.structure();
        let report = simulate_with(s, &d).unwrap();
        assert_eq!(report.a.dram_reads, s.a_elems.len() as u64);
        assert_eq!(report.b.dram_reads, s.b_elems.len() as u64);
        assert_eq!(report.c.dram_writes, s.c_elems.len() as u64);
    }

    #[test]
    fn one_part_has_zero_remote_traffic() {
        let a = grid(3);
        let m = SpgemmModel::build(&a, &a).unwrap();
        let p = Partition::trivial(m.hypergraph().num_vertices());
        let d = m.decode(&p).unwrap();
        let report = simulate(&a, &a, &d).unwrap();
        assert_eq!(report.total_remote(), 0);
        assert!(report.total_dram() > 0, "compulsory traffic remains");
    }

    #[test]
    fn numeric_replay_matches_reference() {
        let a = grid(4);
        let m = SpgemmModel::build(&a, &a).unwrap();
        for k in [1u32, 2, 4] {
            let (_, d) = salted_decomposition(&m, k, 1);
            verify_numeric(&a, &a, &d, 1e-12).unwrap();
        }
    }

    #[test]
    fn reference_matches_dense_product_on_small_case() {
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(2, 3, vec![(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)]).unwrap(),
        );
        let b: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                3,
                2,
                vec![(0, 0, 1.0), (0, 1, 4.0), (1, 0, 2.0), (2, 1, 5.0)],
            )
            .unwrap(),
        );
        // C = [[2, 13], [6, 0]] structurally: (0,0)=2, (0,1)=8+5=13, (1,0)=6.
        assert_eq!(reference_product(&a, &b).unwrap(), vec![2.0, 13.0, 6.0]);
    }

    #[test]
    fn numeric_mismatch_is_reported_with_position() {
        // Force a mismatch by lying about the tolerance on a real replay:
        // impossible — instead corrupt the decomposition path by checking
        // the error type via an absurd negative tolerance.
        let a = grid(5);
        let m = SpgemmModel::build(&a, &a).unwrap();
        let (_, d) = salted_decomposition(&m, 3, 0);
        let r = verify_numeric(&a, &a, &d, -1.0);
        assert!(matches!(r, Err(TrafficError::NumericMismatch { .. })));
    }

    #[test]
    fn report_value_validates_in_metrics_documents() {
        use fgh_core::{decompose_workload, DecomposeConfig, Model, Workload};
        let a = grid(6);
        let cfg = DecomposeConfig::new(Model::SpgemmFineGrain, 4);
        let out = decompose_workload(Workload::Spgemm(&a, &a), &cfg)
            .unwrap()
            .into_spgemm()
            .unwrap();
        let report = simulate(&a, &a, &out.decomposition).unwrap();
        // The partitioned outcome's remote traffic equals its objective.
        assert_eq!(report.total_remote(), out.objective);
        let any = AnyCsrMatrix::U32(a);
        // The width-erased replay agrees with the typed one.
        let wide = any.convert_width(fgh_sparse::IndexWidth::U64).unwrap();
        assert_eq!(
            simulate_any(&any, &wide, &out.decomposition).unwrap(),
            report
        );
        let doc = fgh_core::metrics_document(
            fgh_core::WorkloadAny::Spgemm(&any, &any),
            &cfg,
            &fgh_core::WorkloadOutcome::Spgemm(out),
            Some(&report.to_value()),
        );
        fgh_core::validate_metrics_value(&doc).unwrap();
    }

    #[test]
    fn rejects_malformed_decompositions() {
        let a = grid(7);
        let m = SpgemmModel::build(&a, &a).unwrap();
        let (_, mut d) = salted_decomposition(&m, 2, 0);
        d.task_owner.pop();
        assert!(matches!(simulate(&a, &a, &d), Err(TrafficError::Model(_))));
    }
}
