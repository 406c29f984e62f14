//! The coarse-grain **checkerboard hypergraph model** — Çatalyürek &
//! Aykanat's companion IPDPS 2001 paper ("A hypergraph-partitioning
//! approach for coarse-grain decomposition"), reimplemented here because
//! it brackets the fine-grain model from the coarse side.
//!
//! Two phases on a `P x Q` processor grid:
//!
//! 1. rows → `P` stripes with the 1D **column-net** model (minimizes
//!    expand volume),
//! 2. columns → `Q` groups with the **row-net** model under
//!    **multi-constraint** balance: each column vertex carries a `P`-vector
//!    of weights (its nonzeros per stripe) so that every
//!    `(stripe, group)` cell stays load balanced — this is what
//!    distinguishes it from the jagged model, whose column groups differ
//!    per stripe.
//!
//! Nonzero `(i, j)` goes to processor `(stripe(i), group(j))`. Expands
//! stay within processor *columns*, folds within processor *rows*:
//! messages ≤ `(P − 1) + (Q − 1)` per processor, volume minimized in both
//! phases (unlike the block checkerboard, which ignores volume entirely).

use fgh_hypergraph::HypergraphBuilder;
use fgh_partition::multiconstraint::{partition_multiconstraint, MultiWeights};
use fgh_partition::{partition_hypergraph_traced, EngineStats, PartitionConfig};
use fgh_sparse::CsrMatrix;
use fgh_trace::SpanHandle;

use crate::decomp::Decomposition;
use crate::models::checkerboard::grid_shape;
use crate::models::ColumnNetModel;
use crate::{ModelError, Result};

/// Coarse-grain checkerboard hypergraph decomposition on a `P x Q` grid.
#[derive(Debug, Clone)]
pub struct CheckerboardHgModel {
    p: u32,
    q: u32,
    epsilon: f64,
}

impl CheckerboardHgModel {
    /// Near-square grid for `k` processors.
    pub fn new(k: u32, epsilon: f64) -> Result<Self> {
        if k == 0 {
            return Err(ModelError::Invalid("K must be >= 1".into()));
        }
        let (p, q) = grid_shape(k);
        Ok(CheckerboardHgModel { p, q, epsilon })
    }

    /// Explicit grid.
    pub fn with_grid(p: u32, q: u32, epsilon: f64) -> Result<Self> {
        if p == 0 || q == 0 {
            return Err(ModelError::Invalid("grid dimensions must be >= 1".into()));
        }
        Ok(CheckerboardHgModel { p, q, epsilon })
    }

    /// Grid height P.
    pub fn p(&self) -> u32 {
        self.p
    }

    /// Grid width Q.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Decomposes `a` into a `P x Q` checkerboard [`Decomposition`], with
    /// engine instrumentation and trace recording. The returned
    /// [`EngineStats`] accumulate both phases: the multilevel counters of
    /// the phase-1 row partitioning, plus the phase-2 multi-constraint
    /// partitioner's counters in multilevel vocabulary (greedy placement as
    /// initial partitioning, refinement sweeps as FM passes, accepted moves
    /// as FM moves; coarsening counters stay untouched because the scheme
    /// is direct).
    /// Under an enabled `parent` scope the phases record as `rows` and
    /// `cols` spans, with the multilevel spans nested inside `rows`.
    pub fn decompose_traced(
        &self,
        a: &CsrMatrix,
        cfg: &PartitionConfig,
        parent: &SpanHandle,
    ) -> Result<(Decomposition, EngineStats)> {
        if !a.is_square() {
            return Err(ModelError::NotSquare {
                nrows: u64::from(a.nrows()),
                ncols: u64::from(a.ncols()),
            });
        }
        let n = a.nrows();
        let k = self.p * self.q;
        let mut stats = EngineStats::default();

        // Phase 1: row stripes (column-net model, single constraint).
        let stripe_of: Vec<u32> = if self.p == 1 {
            vec![0; n as usize]
        } else {
            let rspan = parent.child("rows");
            let colnet = ColumnNetModel::build(a)?;
            let r = partition_hypergraph_traced(colnet.hypergraph(), self.p, cfg, &rspan.handle())?;
            stats.merge(&r.stats);
            r.partition.parts().to_vec()
        };

        // Phase 2: column groups (row-net model, P constraints = the
        // column's nonzeros per stripe).
        let group_of: Vec<u32> = if self.q == 1 {
            vec![0; n as usize]
        } else {
            let _cspan = parent.child("cols");
            // Row-net hypergraph: vertices = columns, nets = rows.
            let mut builder = HypergraphBuilder::with_unit_vertices(n);
            for i in 0..n {
                let mut pins: Vec<u32> = a.row_cols(i).to_vec();
                if !pins.contains(&i) {
                    pins.push(i); // consistency pin, as in the row-net model
                }
                builder.add_net(pins);
            }
            let hg = builder.build()?;

            let c = self.p as usize;
            let mut flat = vec![0u32; n as usize * c];
            for (i, j, _) in a.iter() {
                let s = stripe_of[i as usize] as usize;
                flat[j as usize * c + s] += 1;
            }
            let weights = MultiWeights::new(c, flat);
            let r = partition_multiconstraint(&hg, &weights, self.q, self.epsilon, cfg.seed, 4)
                .map_err(|e| ModelError::Partition(e.to_string()))?;
            stats.merge(&r.stats);
            r.partition.parts().to_vec()
        };

        let mut nonzero_owner = Vec::with_capacity(a.nnz());
        for (i, j, _) in a.iter() {
            nonzero_owner.push(stripe_of[i as usize] * self.q + group_of[j as usize]);
        }
        let vec_owner: Vec<u32> = (0..n)
            .map(|j| stripe_of[j as usize] * self.q + group_of[j as usize])
            .collect();
        Ok((
            Decomposition::general(a, k, nonzero_owner, vec_owner)?,
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CommStats;
    use fgh_sparse::gen::{self, ValueMode};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn matrix() -> CsrMatrix {
        gen::scale_free(
            240,
            3.0,
            ValueMode::Laplacian,
            &mut SmallRng::seed_from_u64(6),
        )
    }

    #[test]
    fn decompose_valid() {
        let a = matrix();
        let m = CheckerboardHgModel::new(6, 0.15).unwrap();
        let d = m
            .decompose_traced(&a, &PartitionConfig::with_seed(1), &SpanHandle::noop())
            .unwrap()
            .0;
        d.validate(&a).unwrap();
        assert_eq!(d.k, 6);
    }

    #[test]
    fn phase_two_reports_engine_counters() {
        // With P = 1 the row phase is skipped entirely, so every counter
        // below comes from the phase-2 multi-constraint partitioner —
        // the gap this regression test pins closed.
        let a = matrix();
        let m = CheckerboardHgModel::with_grid(1, 4, 0.2).unwrap();
        let (d, stats) = m
            .decompose_traced(&a, &PartitionConfig::with_seed(9), &SpanHandle::noop())
            .unwrap();
        d.validate(&a).unwrap();
        assert!(stats.fm_passes > 0, "refinement sweeps not counted");
        assert!(stats.fm_moves > 0, "accepted moves not counted");
        assert_eq!(stats.fm_rollbacks, 0, "greedy scheme never rolls back");
        assert_eq!(stats.levels, 0, "direct scheme must not claim levels");
        // Two-phase runs accumulate, never overwrite: a P > 1 grid keeps
        // the multilevel phase-1 counters alongside phase 2's.
        let (_, both) = CheckerboardHgModel::with_grid(2, 2, 0.2)
            .unwrap()
            .decompose_traced(&a, &PartitionConfig::with_seed(9), &SpanHandle::noop())
            .unwrap();
        assert!(both.bisections > 0, "phase-1 multilevel counters lost");
        assert!(both.fm_passes > 0);
    }

    #[test]
    fn cartesian_structure() {
        // The owner of (i, j) must be stripe(i) * Q + group(j) for global
        // per-row stripes and per-column groups — i.e. all nonzeros of a
        // row share a processor row AND all nonzeros of a column share a
        // processor column.
        let a = matrix();
        let m = CheckerboardHgModel::with_grid(2, 3, 0.2).unwrap();
        let d = m
            .decompose_traced(&a, &PartitionConfig::with_seed(2), &SpanHandle::noop())
            .unwrap()
            .0;
        let q = 3u32;
        let mut stripe_of_row = vec![u32::MAX; a.nrows() as usize];
        let mut group_of_col = vec![u32::MAX; a.nrows() as usize];
        for (e, (i, j, _)) in a.iter().enumerate() {
            let (s, g) = (d.nonzero_owner[e] / q, d.nonzero_owner[e] % q);
            if stripe_of_row[i as usize] == u32::MAX {
                stripe_of_row[i as usize] = s;
            }
            if group_of_col[j as usize] == u32::MAX {
                group_of_col[j as usize] = g;
            }
            assert_eq!(stripe_of_row[i as usize], s, "row {i} split across stripes");
            assert_eq!(group_of_col[j as usize], g, "col {j} split across groups");
        }
    }

    #[test]
    fn message_bound_p_plus_q_minus_2() {
        let a = matrix();
        let m = CheckerboardHgModel::with_grid(3, 3, 0.2).unwrap();
        let d = m
            .decompose_traced(&a, &PartitionConfig::with_seed(3), &SpanHandle::noop())
            .unwrap()
            .0;
        let s = CommStats::compute(&a, &d).unwrap();
        let bound = (m.p() - 1 + m.q() - 1) as u64;
        assert!(
            s.max_messages_per_proc() <= bound,
            "max msgs {} > bound {bound}",
            s.max_messages_per_proc()
        );
    }

    #[test]
    fn cells_are_balanced() {
        let a = matrix();
        let m = CheckerboardHgModel::with_grid(2, 2, 0.20).unwrap();
        let d = m
            .decompose_traced(&a, &PartitionConfig::with_seed(4), &SpanHandle::noop())
            .unwrap()
            .0;
        // Two-phase balance compounds; just require sanity (< 60%).
        assert!(
            d.load_imbalance_percent() <= 60.0,
            "imbalance {}%",
            d.load_imbalance_percent()
        );
    }

    #[test]
    fn beats_block_checkerboard_on_volume() {
        // Same structured communication pattern, but volume-minimized:
        // should not lose to the volume-oblivious block checkerboard.
        let a = matrix();
        let m = CheckerboardHgModel::new(4, 0.2).unwrap();
        let d = m
            .decompose_traced(&a, &PartitionConfig::with_seed(5), &SpanHandle::noop())
            .unwrap()
            .0;
        let v_hg = CommStats::compute(&a, &d).unwrap().total_volume();
        let cb = crate::models::CheckerboardModel::build(&a, 4).unwrap();
        let v_cb = CommStats::compute(&a, &cb.decode(&a).unwrap())
            .unwrap()
            .total_volume();
        assert!(v_hg <= v_cb, "checkerboard-hg {v_hg} vs block {v_cb}");
    }

    #[test]
    fn k1_and_rectangular() {
        let a = matrix();
        let m = CheckerboardHgModel::new(1, 0.1).unwrap();
        let d = m
            .decompose_traced(&a, &PartitionConfig::default(), &SpanHandle::noop())
            .unwrap()
            .0;
        assert_eq!(CommStats::compute(&a, &d).unwrap().total_volume(), 0);
        let rect = CsrMatrix::from_coo(
            fgh_sparse::CooMatrix::from_triplets(2, 3, vec![(0, 0, 1.0)]).unwrap(),
        );
        assert!(CheckerboardHgModel::new(2, 0.1)
            .unwrap()
            .decompose_traced(&rect, &PartitionConfig::default(), &SpanHandle::noop())
            .is_err());
    }
}
