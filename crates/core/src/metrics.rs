//! Exact communication statistics of one parallel SpMV under a
//! decomposition — the quantities Table 2 of the paper reports.
//!
//! Unlike a model's objective function (edge cut, cutsize), these are
//! computed directly from the decoded decomposition, so they are the same
//! ground truth for every model:
//!
//! * **expand** (pre-communication): for each `j`, the owner of `x_j`
//!   sends one word to every *other* processor owning a nonzero of column
//!   `j`;
//! * **fold** (post-communication): for each `i`, every processor owning a
//!   nonzero of row `i` other than the owner of `y_i` sends one partial
//!   result word to that owner.
//!
//! A *message* is a (sender, receiver, phase) triple — two processors
//! exchanging words for many columns in the expand phase still exchange
//! one message. The paper's per-processor message bound is `K − 1` for 1D
//! models (single phase) and `2(K − 1)` for the fine-grain model.

use fgh_sparse::{CsrMatrix, IndexType};

use crate::decomp::Decomposition;
use crate::Result;

/// Per-processor communication breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Words this processor sends (expand + fold).
    pub sent_words: u64,
    /// Words this processor receives.
    pub recv_words: u64,
    /// Messages this processor sends.
    pub sent_messages: u64,
    /// Messages this processor receives.
    pub recv_messages: u64,
    /// Scalar multiplies (nonzeros) assigned to this processor.
    pub load: u64,
}

/// The communication counters every workload's statistics share: what
/// the decomposition pipeline's balance check and the `fgh-metrics/1`
/// `comm` member read. [`CommStats`] (SpMV) and
/// [`SpgemmCommStats`](crate::models::spgemm::SpgemmCommStats) implement
/// it; the derived counters are computed here once for both.
pub trait CommSummary {
    /// Words moved before the local multiplies (`x` for SpMV, `A` and `B`
    /// for SpGEMM).
    fn expand_volume(&self) -> u64;
    /// Partial-result words moved after them.
    fn fold_volume(&self) -> u64;
    /// Messages of the expand phase(s).
    fn expand_messages(&self) -> u64;
    /// Messages of the fold phase.
    fn fold_messages(&self) -> u64;
    /// Per-processor breakdown, one entry per part.
    fn per_proc(&self) -> &[ProcStats];

    /// Total words moved (expand + fold).
    fn total_volume(&self) -> u64 {
        self.expand_volume() + self.fold_volume()
    }

    /// Total messages across all phases.
    fn total_messages(&self) -> u64 {
        self.expand_messages() + self.fold_messages()
    }

    /// Maximum messages sent by a single processor.
    fn max_messages_per_proc(&self) -> u64 {
        self.per_proc()
            .iter()
            .map(|p| p.sent_messages)
            .max()
            .unwrap_or(0)
    }

    /// Maximum words sent + received by a single processor.
    fn max_sent_recv_words(&self) -> u64 {
        self.per_proc()
            .iter()
            .map(|p| p.sent_words + p.recv_words)
            .max()
            .unwrap_or(0)
    }

    /// Percent load imbalance `100 · (max − avg) / avg` over the
    /// per-processor loads (the paper's formula).
    fn load_imbalance_percent(&self) -> f64 {
        let per_proc = self.per_proc();
        let total: u64 = per_proc.iter().map(|p| p.load).sum();
        if total == 0 {
            return 0.0;
        }
        let avg = total as f64 / per_proc.len() as f64;
        let max = per_proc.iter().map(|p| p.load).max().unwrap_or(0) as f64;
        100.0 * (max - avg) / avg
    }
}

/// Exact communication requirements of one `y = Ax` under a decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct CommStats {
    /// Number of processors.
    pub k: u32,
    /// Matrix order (used for the paper's volume scaling; widened so
    /// `u64`-indexed matrices fit).
    pub n: u64,
    /// Total words moved in the expand (pre-communication) phase.
    pub expand_volume: u64,
    /// Total words moved in the fold (post-communication) phase.
    pub fold_volume: u64,
    /// Total messages in the expand phase.
    pub expand_messages: u64,
    /// Total messages in the fold phase.
    pub fold_messages: u64,
    /// Per-processor breakdown.
    pub per_proc: Vec<ProcStats>,
}

impl CommStats {
    /// Computes the exact statistics for decomposition `d` of matrix `a`.
    pub fn compute<I: IndexType>(a: &CsrMatrix<I>, d: &Decomposition) -> Result<Self> {
        d.validate(a)?;
        let k = d.k as usize;
        let n = a.nrows().index();

        let mut per_proc = vec![ProcStats::default(); k];
        for &p in &d.nonzero_owner {
            per_proc[p as usize].load += 1;
        }

        // Owners of nonzeros per column (CSR iteration is row-major, so
        // bucket by column) and per row (directly from CSR layout).
        let mut col_parts: Vec<Vec<u32>> = vec![Vec::new(); n];
        {
            let mut e = 0usize;
            for i in 0..n {
                for &j in a.row_cols(I::from_index(i)) {
                    col_parts[j.index()].push(d.nonzero_owner[e]);
                    e += 1;
                }
            }
        }

        // Message existence matrices, one per phase.
        let mut expand_msg = vec![false; k * k];
        let mut fold_msg = vec![false; k * k];
        let mut stamp = vec![u64::MAX; k];

        let mut expand_volume = 0u64;
        // Expand: owner(x_j) -> each distinct part with a nonzero in col j.
        for (j, cols) in col_parts.iter().enumerate().take(n) {
            let owner = d.vec_owner[j] as usize;
            let tick = j as u64;
            for &p in cols {
                let p = p as usize;
                if stamp[p] == tick || p == owner {
                    stamp[p] = tick;
                    continue;
                }
                stamp[p] = tick;
                expand_volume += 1;
                per_proc[owner].sent_words += 1;
                per_proc[p].recv_words += 1;
                expand_msg[owner * k + p] = true;
            }
        }
        drop(col_parts);

        let mut fold_volume = 0u64;
        let mut stamp = vec![u64::MAX; k];
        {
            let mut e = 0usize;
            for i in 0..n {
                let receiver = d.vec_owner[i] as usize;
                let tick = i as u64;
                for _ in a.row_cols(I::from_index(i)) {
                    let p = d.nonzero_owner[e] as usize;
                    e += 1;
                    if stamp[p] == tick || p == receiver {
                        stamp[p] = tick;
                        continue;
                    }
                    stamp[p] = tick;
                    fold_volume += 1;
                    per_proc[p].sent_words += 1;
                    per_proc[receiver].recv_words += 1;
                    fold_msg[p * k + receiver] = true;
                }
            }
        }

        let mut expand_messages = 0u64;
        let mut fold_messages = 0u64;
        for s in 0..k {
            for r in 0..k {
                if expand_msg[s * k + r] {
                    expand_messages += 1;
                    per_proc[s].sent_messages += 1;
                    per_proc[r].recv_messages += 1;
                }
                if fold_msg[s * k + r] {
                    fold_messages += 1;
                    per_proc[s].sent_messages += 1;
                    per_proc[r].recv_messages += 1;
                }
            }
        }

        Ok(CommStats {
            k: d.k,
            n: d.n,
            expand_volume,
            fold_volume,
            expand_messages,
            fold_messages,
            per_proc,
        })
    }

    /// Total communication volume in words (expand + fold) — the paper's
    /// primary metric ("tot", scaled by the matrix order when printed).
    pub fn total_volume(&self) -> u64 {
        CommSummary::total_volume(self)
    }

    /// Maximum words *sent* by a single processor — the paper's "max"
    /// column.
    pub fn max_sent_words(&self) -> u64 {
        self.per_proc
            .iter()
            .map(|p| p.sent_words)
            .max()
            .unwrap_or(0)
    }

    /// Maximum words sent + received by a single processor (extended
    /// metric, not in the paper's table).
    pub fn max_sent_recv_words(&self) -> u64 {
        CommSummary::max_sent_recv_words(self)
    }

    /// Total messages across both phases.
    pub fn total_messages(&self) -> u64 {
        CommSummary::total_messages(self)
    }

    /// Average number of messages *sent* per processor — the paper's
    /// "avg #msgs" column (bounded by `K−1` for 1D models, `2(K−1)` for
    /// the fine-grain model).
    pub fn avg_messages_per_proc(&self) -> f64 {
        self.total_messages() as f64 / self.k as f64
    }

    /// Maximum messages sent by a single processor.
    pub fn max_messages_per_proc(&self) -> u64 {
        CommSummary::max_messages_per_proc(self)
    }

    /// Total volume scaled by the matrix order, as printed in Table 2.
    pub fn scaled_total_volume(&self) -> f64 {
        self.total_volume() as f64 / self.n as f64
    }

    /// Max per-processor sent words scaled by the matrix order.
    pub fn scaled_max_volume(&self) -> f64 {
        self.max_sent_words() as f64 / self.n as f64
    }

    /// Percent computational imbalance (same formula as the paper).
    pub fn load_imbalance_percent(&self) -> f64 {
        CommSummary::load_imbalance_percent(self)
    }
}

impl CommSummary for CommStats {
    fn expand_volume(&self) -> u64 {
        self.expand_volume
    }

    fn fold_volume(&self) -> u64 {
        self.fold_volume
    }

    fn expand_messages(&self) -> u64 {
        self.expand_messages
    }

    fn fold_messages(&self) -> u64 {
        self.fold_messages
    }

    fn per_proc(&self) -> &[ProcStats] {
        &self.per_proc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_sparse::CooMatrix;

    /// 4x4 matrix, full diagonal plus (1,0), (3,1), (1,2).
    fn sample() -> CsrMatrix {
        CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                4,
                4,
                vec![
                    (0, 0, 1.0),
                    (1, 1, 1.0),
                    (2, 2, 1.0),
                    (3, 3, 1.0),
                    (1, 0, 1.0),
                    (3, 1, 1.0),
                    (1, 2, 1.0),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn no_communication_for_k1() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 1, vec![0; 4]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        assert_eq!(s.total_volume(), 0);
        assert_eq!(s.total_messages(), 0);
    }

    #[test]
    fn rowwise_has_no_fold() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        assert_eq!(s.fold_volume, 0, "row-wise SpMV folds nothing");
        // Expand: col 0 owned by P0, needed by P1 (row 1) -> 1 word.
        //         col 1 owned by P1, needed by P1 (rows 1,3) only -> 0.
        //         col 2 owned by P0, needed by P1 (row 1) -> 1 word.
        //         col 3 owned by P1, needed by P1 -> 0.
        assert_eq!(s.expand_volume, 2);
        assert_eq!(s.total_volume(), 2);
        // Both words travel P0 -> P1: one expand message.
        assert_eq!(s.expand_messages, 1);
        assert_eq!(s.max_sent_words(), 2);
    }

    #[test]
    fn columnwise_has_no_expand() {
        let a = sample();
        let d = Decomposition::columnwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        assert_eq!(s.expand_volume, 0, "column-wise SpMV expands nothing");
        // Fold: row 1 has nonzeros in cols 0(P0),1(P1),2(P0); y_1 on P1:
        //   P0 sends one partial word -> 1.
        // Row 3: cols 1(P1),3(P1); y_3 on P1 -> 0.
        assert_eq!(s.fold_volume, 1);
        assert_eq!(s.fold_messages, 1);
    }

    #[test]
    fn fine_grain_counts_both_phases() {
        let a = sample();
        // Nonzeros in CSR order: (0,0),(1,0),(1,1),(1,2),(2,2),(3,1),(3,3).
        // Put (1,0) and (1,2) on P1, everything else on P0; vectors on P0.
        let d = Decomposition::general(&a, 2, vec![0, 1, 0, 1, 0, 0, 0], vec![0, 0, 0, 0]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        // Expand: col 0 needed by P0,P1; owner P0 -> 1 word.
        //         col 2 needed by P0 (a_22), P1 (a_12); owner P0 -> 1 word.
        assert_eq!(s.expand_volume, 2);
        // Fold: row 1 computed on P0 (a_11) and P1; y_1 on P0 -> 1 word.
        assert_eq!(s.fold_volume, 1);
        assert_eq!(s.total_volume(), 3);
        // Messages: expand P0->P1 (one message), fold P1->P0 (one message).
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.avg_messages_per_proc(), 1.0);
        assert_eq!(s.per_proc[0].sent_words, 2);
        assert_eq!(s.per_proc[1].sent_words, 1);
        assert_eq!(s.max_sent_recv_words(), 3);
    }

    #[test]
    fn owner_without_local_nonzero_still_sends_to_all() {
        // x_0 owned by P2 which owns no nonzero of column 0: it must send
        // to every part in Λ.
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(
                3,
                3,
                vec![(0, 0, 1.0), (1, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
            )
            .unwrap(),
        );
        let d = Decomposition::general(&a, 3, vec![0, 1, 1, 2], vec![2, 1, 2]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        // Column 0 nonzeros on P0 and P1; owner P2 sends 2 words.
        assert_eq!(s.expand_volume, 2);
        assert!(s.per_proc[2].sent_words >= 2);
    }

    #[test]
    fn loads_match_decomposition() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        let loads: Vec<u64> = s.per_proc.iter().map(|p| p.load).collect();
        assert_eq!(loads, d.loads());
        assert_eq!(s.load_imbalance_percent(), d.load_imbalance_percent());
    }

    #[test]
    fn wide_stats_match_narrow() {
        let a = sample();
        let a64: fgh_sparse::CsrMatrix<u64> = a.convert_width().unwrap();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s32 = CommStats::compute(&a, &d).unwrap();
        let s64 = CommStats::compute(&a64, &d).unwrap();
        assert_eq!(s32, s64, "ground-truth stats must be width-independent");
    }

    #[test]
    fn scaled_metrics() {
        let a = sample();
        let d = Decomposition::rowwise(&a, 2, vec![0, 1, 0, 1]).unwrap();
        let s = CommStats::compute(&a, &d).unwrap();
        assert!((s.scaled_total_volume() - 2.0 / 4.0).abs() < 1e-12);
        assert!((s.scaled_max_volume() - 2.0 / 4.0).abs() < 1e-12);
    }
}
