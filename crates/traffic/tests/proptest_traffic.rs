//! Property-based cross-check over the matrix catalog: for arbitrary
//! catalog pairs and arbitrary (valid) task assignments, the
//! storage-traffic simulator's measured counters equal the fine-grain
//! SpGEMM model's predicted communication volume — expand and fold
//! phases separately, and in total the connectivity−1 cutsize — and the
//! partitioned numeric replay reproduces the serial Gustavson product.

use fgh_core::models::{spgemm_flops, SpgemmCommStats, SpgemmModel};
use fgh_core::CommSummary;
use fgh_hypergraph::{cutsize_connectivity, Partition};
use fgh_sparse::catalog::catalog;
use fgh_traffic::{simulate_with, verify_numeric};
use proptest::prelude::*;

proptest! {
    /// Measured remote traffic is exactly the model's predicted volume,
    /// per phase, for any part count and any assignment.
    #[test]
    fn traffic_equals_predicted_volume(
        entry in 0usize..catalog().len(),
        seed in 1u64..64,
        k in 2u32..8,
        salt in 0u32..1024,
    ) {
        // Scale 2 keeps generation cheap; the flops cap bounds the task
        // count so the densest catalog patterns don't dominate the sweep.
        let a = catalog()[entry].generate_scaled(2, seed);
        prop_assume!(spgemm_flops(&a, &a) < 100_000);
        let model = SpgemmModel::build(&a, &a).unwrap();
        let nv = model.hypergraph().num_vertices() as u32;
        prop_assume!(nv > 0);
        let parts: Vec<u32> = (0..nv)
            .map(|t| (t.wrapping_mul(2654435761).wrapping_add(salt)) % k)
            .collect();
        let p = Partition::new(k, parts).unwrap();
        let d = model.decode(&p).unwrap();

        let report = simulate_with(model.structure(), &d).unwrap();
        let stats = SpgemmCommStats::compute_with(model.structure(), &d).unwrap();
        prop_assert_eq!(
            report.a.remote_reads + report.b.remote_reads,
            stats.expand_volume()
        );
        prop_assert_eq!(report.c.remote_writes, stats.fold_volume);
        prop_assert_eq!(report.total_remote(), stats.total_volume());
        prop_assert_eq!(
            report.total_remote(),
            cutsize_connectivity(model.hypergraph(), &p)
        );

        // Compulsory traffic: one DRAM read per used element, one DRAM
        // write per structural result nonzero.
        let s = model.structure();
        prop_assert_eq!(report.a.dram_reads, s.a_elems.len() as u64);
        prop_assert_eq!(report.b.dram_reads, s.b_elems.len() as u64);
        prop_assert_eq!(report.c.dram_writes, s.c_elems.len() as u64);
    }

    /// The partitioned multiply computes the same product as the serial
    /// reference, whatever the assignment.
    #[test]
    fn partitioned_product_is_correct(
        entry in 0usize..catalog().len(),
        seed in 1u64..64,
        k in 1u32..6,
        salt in 0u32..1024,
    ) {
        let a = catalog()[entry].generate_scaled(2, seed);
        prop_assume!(spgemm_flops(&a, &a) < 100_000);
        let model = SpgemmModel::build(&a, &a).unwrap();
        let nv = model.hypergraph().num_vertices() as u32;
        prop_assume!(nv > 0);
        let parts: Vec<u32> = (0..nv)
            .map(|t| (t.wrapping_mul(2246822519).wrapping_add(salt)) % k)
            .collect();
        let p = Partition::new(k, parts).unwrap();
        let d = model.decode(&p).unwrap();
        verify_numeric(&a, &a, &d, 1e-9).unwrap();
    }
}
