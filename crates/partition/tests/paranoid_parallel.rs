//! Thread-safety audit: runs the parallel driver with the `paranoid`
//! feature's invariant validators live at every engine checkpoint. A
//! cross-thread arena aliasing bug (two domains sharing scratch, a
//! recycled buffer leaking between subtrees) corrupts the extracted
//! sub-hypergraphs, which these validators reject by panicking — so a
//! clean pass is evidence the per-domain arena discipline holds under
//! real fork-join concurrency.
//!
//! Build with `cargo test -p fgh-partition --features paranoid`.
#![cfg(feature = "paranoid")]

use std::sync::Arc;

use fgh_hypergraph::Hypergraph;
use fgh_partition::{partition_hypergraph_seeds, ArenaPool, Parallelism, PartitionConfig};
use fgh_trace::SpanHandle;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random hypergraph: `nv` vertices, `nn` nets of 2..=6 pins.
fn random_hypergraph(nv: u32, nn: u32, seed: u64) -> Hypergraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut nets = Vec::with_capacity(nn as usize);
    for _ in 0..nn {
        let size = rng.gen_range(2..=6).min(nv as usize);
        let mut pins: Vec<u32> = Vec::with_capacity(size);
        while pins.len() < size {
            let v = rng.gen_range(0..nv);
            if !pins.contains(&v) {
                pins.push(v);
            }
        }
        nets.push(pins);
    }
    Hypergraph::from_nets(nv, &nets).expect("valid test hypergraph")
}

#[test]
fn parallel_driver_passes_invariant_validators() {
    let hg = random_hypergraph(600, 1400, 42);
    let cfg = PartitionConfig {
        seed: 3,
        parallelism: Parallelism::Threads(4),
        ..Default::default()
    };
    // 4 seeds x K=8 forks both the multi-seed fan-out and the in-tree
    // recursive-bisection parallelism, with paranoid checkpoints armed.
    let pool = Arc::new(ArenaPool::new());
    let results = partition_hypergraph_seeds(&hg, 8, &cfg, 4, &pool, &SpanHandle::noop());
    assert_eq!(results.len(), 4);
    for r in results {
        let r = r.expect("paranoid parallel run failed");
        assert_eq!(r.partition.k(), 8);
        r.partition.validate(&hg, false).expect("valid partition");
    }
}
