//! Parallel determinism: the threaded partitioner must be a pure
//! wall-clock optimization. For every catalog matrix tried here,
//! `Parallelism::Threads(4)` has to reproduce the serial per-seed
//! `(cutsize, imbalance)` pairs exactly — every recursion node derives
//! its RNG stream from its own identity, so the schedule cannot leak
//! into the result.

use std::sync::Arc;

use fgh_core::models::FineGrainModel;
use fgh_partition::{partition_hypergraph_seeds, ArenaPool, Parallelism, PartitionConfig};
use fgh_trace::SpanHandle;

const SEEDS: usize = 8;

fn per_seed_outcomes(
    hg: &fgh_hypergraph::Hypergraph,
    k: u32,
    parallelism: Parallelism,
) -> Vec<(u64, f64)> {
    let cfg = PartitionConfig {
        seed: 0,
        parallelism,
        ..Default::default()
    };
    let pool = Arc::new(ArenaPool::new());
    partition_hypergraph_seeds(hg, k, &cfg, SEEDS, &pool, &SpanHandle::noop())
        .into_iter()
        .map(|r| {
            let r = r.expect("partition run failed");
            (r.cutsize, r.imbalance_percent)
        })
        .collect()
}

#[test]
fn threads4_matches_serial_per_seed_on_catalog_matrices() {
    for name in ["sherman3", "bcspwr10", "ken-11", "nl"] {
        let entry = fgh_sparse::catalog::by_name(name).expect("catalog name");
        let a = entry.generate_scaled(8, 1);
        let model = FineGrainModel::build(&a).expect("square catalog matrix");
        let hg = model.hypergraph();

        let serial = per_seed_outcomes(hg, 8, Parallelism::Serial);
        let threaded = per_seed_outcomes(hg, 8, Parallelism::Threads(4));
        assert_eq!(serial.len(), SEEDS);
        assert_eq!(
            serial, threaded,
            "{name}: Threads(4) per-seed (cutsize, imbalance) diverged from Serial"
        );
    }
}
