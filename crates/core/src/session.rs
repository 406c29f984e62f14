//! Reusable decomposition engine handle: [`EngineSession`] holds the
//! state worth keeping *across* requests (the scratch-arena pool, the
//! thread policy, a budget ceiling), while a plain [`DecomposeConfig`]
//! carries what varies *per* request. `fgh serve` builds one session at
//! startup and runs every accepted job through it; embedders
//! batch-processing many matrices get the same warm-arena reuse without a
//! server.
//!
//! A job runs as
//! `decompose_workload_any_in(workload, &session.configure(cfg), session.pool())`:
//! [`EngineSession::configure`] applies the session's policy to the
//! request, and the one entry point is shared with one-shot callers, so
//! the session path and the one-shot path cannot drift apart.

use std::sync::Arc;

use fgh_partition::{ArenaPool, Budget, Parallelism};

use crate::api::DecomposeConfig;

/// A long-lived decomposition engine handle.
///
/// Owns the [`ArenaPool`] every request draws scratch from (warm buffers
/// survive across whole decompositions), the thread fan-out policy, and
/// an optional budget ceiling that clamps every request. `Clone` is
/// cheap and shares the pool, so one session serves many worker threads
/// concurrently — the pool hands each concurrency domain its own arena.
#[derive(Debug, Clone)]
pub struct EngineSession {
    pool: Arc<ArenaPool>,
    parallelism: Parallelism,
    budget_ceiling: Budget,
}

impl EngineSession {
    /// A session with a fresh pool, [`Parallelism::Auto`], and no budget
    /// ceiling.
    pub fn new() -> Self {
        EngineSession {
            pool: Arc::new(ArenaPool::new()),
            parallelism: Parallelism::Auto,
            budget_ceiling: Budget::UNLIMITED,
        }
    }

    /// The same session with a thread fan-out policy attached.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The same session with a budget ceiling every request is clamped
    /// under (see [`Budget::intersect`]).
    pub fn with_budget_ceiling(mut self, ceiling: Budget) -> Self {
        self.budget_ceiling = ceiling;
        self
    }

    /// The shared scratch-arena pool.
    pub fn pool(&self) -> &Arc<ArenaPool> {
        &self.pool
    }

    /// Arenas currently parked in the pool — an RSS observability hook
    /// for services (counts warm buffers awaiting reuse).
    pub fn idle_arenas(&self) -> usize {
        self.pool.idle()
    }

    /// Applies this session's policy to one request: the session's
    /// thread fan-out replaces the request's, and the budget becomes the
    /// intersection of the request's and the session ceiling — a request
    /// can tighten but never loosen the session limit.
    pub fn configure(&self, cfg: DecomposeConfig) -> DecomposeConfig {
        DecomposeConfig {
            budget: self.budget_ceiling.intersect(&cfg.budget),
            parallelism: self.parallelism,
            ..cfg
        }
    }
}

impl Default for EngineSession {
    fn default() -> Self {
        EngineSession::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Model;
    use crate::workload::{decompose_workload_any_in, Workload, WorkloadAny};
    use crate::DecompositionOutcome;
    use fgh_partition::CancelToken;
    use fgh_sparse::gen::{self, ValueMode};
    use fgh_sparse::{AnyCsrMatrix, CsrMatrix};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn test_matrix() -> CsrMatrix {
        gen::grid5(
            12,
            12,
            1.0,
            ValueMode::Ones,
            &mut SmallRng::seed_from_u64(7),
        )
    }

    /// One SpMV job through `session`, the way the serve worker runs it.
    fn run(session: &EngineSession, a: &CsrMatrix, cfg: DecomposeConfig) -> DecompositionOutcome {
        let a = AnyCsrMatrix::U32(a.clone());
        decompose_workload_any_in(
            WorkloadAny::Spmv(&a),
            &session.configure(cfg),
            session.pool(),
        )
        .unwrap()
        .into_spmv()
        .unwrap()
    }

    #[test]
    fn session_matches_one_shot_api() {
        let a = test_matrix();
        let session = EngineSession::new();
        let s = run(&session, &a, DecomposeConfig::new(Model::FineGrain2D, 4));
        let o = crate::decompose_workload(
            Workload::Spmv(&a),
            &DecomposeConfig::new(Model::FineGrain2D, 4),
        )
        .unwrap()
        .into_spmv()
        .unwrap();
        assert_eq!(s.decomposition, o.decomposition);
        assert_eq!(s.objective, o.objective);
    }

    #[test]
    fn session_runs_spgemm_workloads() {
        let a = test_matrix();
        let any = AnyCsrMatrix::U32(a.clone());
        let session = EngineSession::new();
        let out = decompose_workload_any_in(
            WorkloadAny::Spgemm(&any, &any),
            &session.configure(DecomposeConfig::new(Model::SpgemmFineGrain, 4)),
            session.pool(),
        )
        .unwrap()
        .into_spgemm()
        .unwrap();
        out.decomposition.validate(&a, &a).unwrap();
        assert_eq!(out.objective, out.stats.total_volume());
        assert!(session.idle_arenas() > 0, "spgemm jobs share the pool");
    }

    #[test]
    fn pool_is_reused_across_requests() {
        let a = test_matrix();
        let session = EngineSession::new();
        run(&session, &a, DecomposeConfig::new(Model::FineGrain2D, 4));
        let warmed = session.idle_arenas();
        assert!(warmed > 0, "first request must park arenas for reuse");
        run(&session, &a, DecomposeConfig::new(Model::FineGrain2D, 4));
        // Reuse, not growth: the second identical request checks the same
        // arenas out and back in.
        assert_eq!(session.idle_arenas(), warmed);
    }

    #[test]
    fn ceiling_clamps_request_budget() {
        let session = EngineSession::new().with_budget_ceiling(Budget::bytes(1));
        let cfg = session.configure(DecomposeConfig::new(Model::FineGrain2D, 4)); // unlimited request
        assert_eq!(cfg.budget.max_bytes, Some(1));

        // And a tighter request wins over a looser ceiling.
        let session = EngineSession::new().with_budget_ceiling(Budget::bytes(1000));
        let cfg = session
            .configure(DecomposeConfig::new(Model::FineGrain2D, 4).with_budget(Budget::bytes(10)));
        assert_eq!(cfg.budget.max_bytes, Some(10));
    }

    #[test]
    fn configure_applies_session_parallelism() {
        let session = EngineSession::new().with_parallelism(Parallelism::Serial);
        let request = DecomposeConfig::new(Model::FineGrain2D, 4)
            .with_parallelism(Parallelism::Threads(4))
            .with_seed(9);
        let cfg = session.configure(request);
        assert_eq!(cfg.parallelism, Parallelism::Serial);
        assert_eq!(cfg.seed, 9, "request fields pass through");
    }

    #[test]
    fn cancelled_token_degrades_with_cancelled_reason() {
        let a = test_matrix();
        let session = EngineSession::new();
        let token = CancelToken::new();
        token.cancel(); // tripped before the run even starts
        let out = run(
            &session,
            &a,
            DecomposeConfig::new(Model::FineGrain2D, 4).with_cancel(token),
        );
        out.decomposition.validate(&a).unwrap();
        assert_eq!(out.status.code(), Some("cancelled"));
        assert!(out.engine.cancelled());
        assert!(!out.engine.truncated(), "cancel is not a budget truncation");
    }
}
