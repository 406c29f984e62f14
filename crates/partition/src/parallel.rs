//! Multi-seed fan-out: run the partitioner under several seeds, possibly
//! concurrently, and keep the best result (the paper's 50-seed protocol,
//! run by PaToH for the hypergraph models and by MeTiS for the graph
//! model). One fan-out serves every substrate: [`best_of_seeds`] takes
//! the per-seed run as a closure over a [`MultilevelDriver`].
//!
//! Parallelism is config-gated through [`crate::Parallelism`] and changes
//! wall-clock only: each seed derives its own RNG streams, so per-seed
//! results are bit-identical whether the seeds run serially, fanned out
//! here, or both this fan-out *and* the recursive-bisection forks inside
//! each seed share one pool's threads. Every concurrency domain checks a
//! scratch arena out of a shared [`ArenaPool`], keeping the multilevel
//! hot loops free of synchronization.

use std::sync::Arc;

use fgh_hypergraph::Hypergraph;
use fgh_trace::SpanHandle;

use crate::arena::{ArenaIndex, ArenaPool, ArenaStats};
use crate::config::PartitionConfig;
use crate::engine::MultilevelDriver;
use crate::error::{panic_message, PartitionError};
use crate::level::EngineStats;
use crate::recursive::{partition_hypergraph_with, PartitionResult};

/// What the seed fan-out reads from one run's result: the objective the
/// best-pick minimizes, the balance it checks first, and the engine
/// counters it records onto the run's span.
pub trait SeedRun: Send {
    /// The minimized objective: connectivity−1 cutsize for hypergraphs,
    /// edge cut for graphs.
    fn cut(&self) -> u64;
    /// Percent load imbalance `100 (W_max − W_avg) / W_avg`.
    fn imbalance_percent(&self) -> f64;
    /// Engine instrumentation of the run.
    fn stats(&self) -> &EngineStats;
}

impl SeedRun for PartitionResult {
    fn cut(&self) -> u64 {
        self.cutsize
    }

    fn imbalance_percent(&self) -> f64 {
        self.imbalance_percent
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

/// Partitions `hg` once per seed `cfg.seed + i` for `i in 0..runs` and
/// returns the results in seed order (`runs` is clamped to at least 1).
/// Each seed draws its scratch arena from `pool` and records under a
/// `run[i]` child span of `parent` (see [`best_of_seeds`]).
pub fn partition_hypergraph_seeds<I: ArenaIndex>(
    hg: &Hypergraph<I>,
    k: u32,
    cfg: &PartitionConfig,
    runs: usize,
    pool: &Arc<ArenaPool>,
    parent: &SpanHandle,
) -> Vec<Result<PartitionResult, PartitionError>> {
    fan_out(cfg, runs, pool, parent, &|d: &mut MultilevelDriver| {
        partition_hypergraph_with(d, hg, k, None)
    })
}

/// Runs `run` once per seed `cfg.seed + i` for `i in 0..runs` (`runs` is
/// clamped to at least 1) and keeps the best result: balanced results
/// first, then the lowest [`SeedRun::cut`], the earliest seed winning
/// ties. A panicking or failing seed leaves the others unaffected; only
/// when every seed fails is the first error returned.
///
/// Under a parallel `cfg.parallelism`, the seed range fans out over a
/// bounded fork-join pool by binary splitting; when the caller is already
/// inside a pool, its threads are reused instead of building a nested
/// one. Each seed runs on its own [`MultilevelDriver`] over `pool`, under
/// a `run[offset]` child span of `parent` carrying the run's engine and
/// arena counters, with the multilevel phase spans nested inside.
pub fn best_of_seeds<R, F>(
    cfg: &PartitionConfig,
    runs: usize,
    pool: &Arc<ArenaPool>,
    parent: &SpanHandle,
    run: F,
) -> Result<R, PartitionError>
where
    R: SeedRun,
    F: Fn(&mut MultilevelDriver) -> Result<R, PartitionError> + Sync,
{
    let balanced = |r: &R| r.imbalance_percent() <= cfg.epsilon * 100.0 + 1e-9;
    let mut best: Option<R> = None;
    let mut first_err: Option<PartitionError> = None;
    for r in fan_out(cfg, runs, pool, parent, &run) {
        match r {
            Ok(res) => {
                let better = best.as_ref().is_none_or(|b| {
                    (balanced(&res), std::cmp::Reverse(res.cut()))
                        > (balanced(b), std::cmp::Reverse(b.cut()))
                });
                if better {
                    best = Some(res);
                }
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    best.ok_or_else(|| {
        first_err.unwrap_or_else(|| PartitionError::Worker("no seed produced a result".into()))
    })
}

/// The fan-out behind [`best_of_seeds`] and
/// [`partition_hypergraph_seeds`]: every seed's result, in seed order.
fn fan_out<R, F>(
    cfg: &PartitionConfig,
    runs: usize,
    pool: &Arc<ArenaPool>,
    parent: &SpanHandle,
    run: &F,
) -> Vec<Result<R, PartitionError>>
where
    R: SeedRun,
    F: Fn(&mut MultilevelDriver) -> Result<R, PartitionError> + Sync,
{
    let runs = runs.max(1);
    let threads = cfg.parallelism.resolved();
    if threads > 1 && rayon::current_thread_index().is_none() {
        if let Ok(tp) = rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
            return tp.install(|| run_range(cfg, 0, runs, pool, parent, run));
        }
    }
    run_range(cfg, 0, runs, pool, parent, run)
}

/// Runs seed offsets `lo..hi`, halving the range across `rayon::join`
/// until single seeds remain. Results concatenate back in seed order.
fn run_range<R, F>(
    cfg: &PartitionConfig,
    lo: usize,
    hi: usize,
    pool: &Arc<ArenaPool>,
    span: &SpanHandle,
    run: &F,
) -> Vec<Result<R, PartitionError>>
where
    R: SeedRun,
    F: Fn(&mut MultilevelDriver) -> Result<R, PartitionError> + Sync,
{
    if hi - lo <= 1 {
        return vec![run_seeded(cfg, lo, pool, span, run)];
    }
    let mid = lo + (hi - lo) / 2;
    let (mut left, mut right) = rayon::join(
        || run_range(cfg, lo, mid, pool, span, run),
        || run_range(cfg, mid, hi, pool, span, run),
    );
    left.append(&mut right);
    left
}

/// Records a finished run's engine and arena counters onto its span (a
/// no-op for noop scopes).
pub(crate) fn record_run_counters(scope: &SpanHandle, stats: &EngineStats, arena: ArenaStats) {
    if !scope.is_enabled() {
        return;
    }
    scope.counter("bisections", stats.bisections);
    scope.counter("levels", stats.levels);
    scope.counter("fm_passes", stats.fm_passes);
    scope.counter("fm_moves", stats.fm_moves);
    scope.counter("fm_rollbacks", stats.fm_rollbacks);
    scope.counter("parallel_forks", stats.parallel_forks);
    scope.counter(
        "budget_truncations",
        stats.wall_truncations
            + stats.level_truncations
            + stats.fm_truncations
            + stats.byte_truncations,
    );
    scope.counter("cancel_truncations", stats.cancel_truncations);
    scope.counter("arena_fresh", arena.fresh);
    scope.counter("arena_reused", arena.reused);
    scope.counter("gain_resizes", arena.bucket_grows);
}

/// One seed: a fresh driver over the shared arena pool, panics contained
/// to this seed's slot. The engine is panic-free by design; the catch is
/// defense in depth so a defect in one seed cannot sink a 50-seed sweep.
fn run_seeded<R, F>(
    cfg: &PartitionConfig,
    offset: usize,
    pool: &Arc<ArenaPool>,
    span: &SpanHandle,
    run: &F,
) -> Result<R, PartitionError>
where
    R: SeedRun,
    F: Fn(&mut MultilevelDriver) -> Result<R, PartitionError> + Sync,
{
    let mut c = cfg.clone();
    c.seed = cfg.seed.wrapping_add(offset as u64);
    let rspan = span.child_indexed("run", offset as u64);
    let scope = rspan.handle();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut driver = MultilevelDriver::with_pool(c, Arc::clone(pool));
        driver.set_trace_parent(scope.clone());
        let r = run(&mut driver);
        if let Ok(res) = &r {
            record_run_counters(&scope, res.stats(), driver.arena_stats());
        }
        r
    }))
    .unwrap_or_else(|p| Err(PartitionError::Worker(panic_message(p))))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Parallelism;
    use crate::recursive::partition_hypergraph;
    use crate::testutil::random_hypergraph;

    fn seeds(
        hg: &Hypergraph,
        k: u32,
        cfg: &PartitionConfig,
        runs: usize,
    ) -> Vec<Result<PartitionResult, PartitionError>> {
        let pool = Arc::new(ArenaPool::new());
        partition_hypergraph_seeds(hg, k, cfg, runs, &pool, &SpanHandle::noop())
    }

    #[test]
    fn seeds_come_back_in_order_and_match_single_runs() {
        let hg = random_hypergraph(250, 400, 5, 31);
        let cfg = PartitionConfig::with_seed(5);
        let fanned = seeds(&hg, 4, &cfg, 4);
        assert_eq!(fanned.len(), 4);
        for (i, r) in fanned.iter().enumerate() {
            let mut c = cfg.clone();
            c.seed = cfg.seed + i as u64;
            let single = partition_hypergraph(&hg, 4, &c).unwrap();
            let r = r.as_ref().unwrap();
            assert_eq!(
                r.partition.parts(),
                single.partition.parts(),
                "seed offset {i} differs from a standalone run"
            );
            assert_eq!(r.cutsize, single.cutsize);
        }
    }

    #[test]
    fn parallel_fanout_matches_serial_per_seed() {
        let hg = random_hypergraph(300, 500, 6, 7);
        let serial_cfg = PartitionConfig {
            parallelism: Parallelism::Serial,
            ..PartitionConfig::with_seed(9)
        };
        let par_cfg = PartitionConfig {
            parallelism: Parallelism::Threads(4),
            ..PartitionConfig::with_seed(9)
        };
        let serial = seeds(&hg, 8, &serial_cfg, 6);
        let par = seeds(&hg, 8, &par_cfg, 6);
        for (i, (s, p)) in serial.iter().zip(par.iter()).enumerate() {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.cutsize, p.cutsize, "seed offset {i}");
            assert_eq!(s.imbalance_percent, p.imbalance_percent, "seed offset {i}");
            assert_eq!(s.partition.parts(), p.partition.parts(), "seed offset {i}");
        }
    }

    #[test]
    fn zero_runs_clamps_to_one() {
        let hg = random_hypergraph(100, 150, 4, 2);
        let out = seeds(&hg, 2, &PartitionConfig::with_seed(1), 0);
        assert_eq!(out.len(), 1);
        assert!(out.first().is_some_and(|r| r.is_ok()));
    }

    /// A synthetic run result: the best-pick only reads these fields.
    struct Fake {
        seed: u64,
        cut: u64,
        imbalance: f64,
        stats: EngineStats,
    }

    impl SeedRun for Fake {
        fn cut(&self) -> u64 {
            self.cut
        }

        fn imbalance_percent(&self) -> f64 {
            self.imbalance
        }

        fn stats(&self) -> &EngineStats {
            &self.stats
        }
    }

    #[test]
    fn best_pick_prefers_balance_then_cut_then_earliest_seed() {
        // Seeds 10..16: (cut, imbalance %) per offset. Offset 0 has the
        // lowest cut but is unbalanced; offsets 2 and 4 tie on the lowest
        // balanced cut, so the earlier one (seed 12) must win; offset 5
        // fails outright.
        let table = [(1, 9.0), (7, 1.0), (5, 2.0), (6, 0.0), (5, 0.5), (0, 0.0)];
        for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
            let cfg = PartitionConfig {
                parallelism,
                ..PartitionConfig::with_seed(10)
            };
            let pool = Arc::new(ArenaPool::new());
            let best = best_of_seeds(&cfg, table.len(), &pool, &SpanHandle::noop(), |d| {
                let seed = d.cfg().seed;
                let (cut, imbalance) = table[(seed - 10) as usize];
                if seed == 15 {
                    return Err(PartitionError::Worker("injected".into()));
                }
                Ok(Fake {
                    seed,
                    cut,
                    imbalance,
                    stats: EngineStats::default(),
                })
            })
            .unwrap();
            assert_eq!((best.seed, best.cut), (12, 5), "{parallelism:?}");
        }
    }

    #[test]
    fn best_pick_contains_panics_and_reports_first_error() {
        let cfg = PartitionConfig::with_seed(0);
        let pool = Arc::new(ArenaPool::new());
        let all_fail = best_of_seeds::<Fake, _>(&cfg, 3, &pool, &SpanHandle::noop(), |d| {
            if d.cfg().seed == 0 {
                panic!("seed 0 blows up");
            }
            Err(PartitionError::Worker(format!("seed {}", d.cfg().seed)))
        });
        match all_fail {
            Err(PartitionError::Worker(m)) => assert!(m.contains("seed 0 blows up"), "{m}"),
            Err(e) => panic!("unexpected error {e}"),
            Ok(_) => panic!("every seed failed"),
        }
    }
}
