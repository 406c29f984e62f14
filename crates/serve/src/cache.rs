//! Content-addressed plan cache with LRU eviction under a byte cap.
//!
//! The key is a 64-bit FNV-1a hash over the matrix *content identity*
//! (catalog name + scale + generator seed, or the inline Matrix Market
//! bytes) and every decomposition-relevant parameter (model, K, ε,
//! partitioner seed, runs). Identical requests — the common case for a
//! service fronting a dashboard that refreshes — skip partitioning
//! entirely.
//!
//! A hit is never trusted blindly: the worker revalidates the cached
//! [`Decomposition`] against the freshly built matrix
//! (`decomposition.validate(&a)`), and a failed revalidation evicts the
//! entry, counts an integrity failure, and recomputes — a corrupted
//! cache degrades to a slower service, never to wrong answers.

use std::collections::HashMap;

use fgh_core::Decomposition;
use fgh_invariant::{lock_order, OrderedMutex, OrderedMutexGuard};

/// 64-bit FNV-1a over a byte stream — tiny, deterministic, and
/// dependency-free; collision resistance is adequate for a cache whose
/// hits are revalidated anyway.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The numbers every decompose response repeats, for either workload.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// The partitioner's objective value.
    pub objective: u64,
    /// Total communication volume in words.
    pub volume: u64,
    /// Achieved load imbalance, percent.
    pub imbalance: f64,
    /// The stable degraded code, if the outcome was degraded.
    pub degraded_code: Option<&'static str>,
    /// Human-readable degradation text, if degraded.
    pub degraded_reason: Option<String>,
}

/// A cached SpMV plan plus the summary numbers the response repeats.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The decoded decomposition (revalidated on every hit).
    pub decomposition: Decomposition,
    /// What the response repeats.
    pub summary: PlanSummary,
}

impl CachedPlan {
    /// Approximate heap footprint, for the byte cap.
    fn approx_bytes(&self) -> usize {
        self.decomposition.nonzero_owner.len() * 4
            + self.decomposition.vec_owner.len() * 4
            + self.summary.degraded_reason.as_deref().map_or(0, str::len)
            + 64
    }
}

struct Entry {
    plan: CachedPlan,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    integrity_failures: u64,
}

/// The cache: a mutexed map with a logical LRU clock. Contention is
/// irrelevant next to partitioning cost.
pub struct PlanCache {
    byte_cap: usize,
    inner: OrderedMutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `byte_cap` bytes of plans (0 disables
    /// caching entirely — every lookup misses, every insert is dropped).
    pub fn new(byte_cap: usize) -> Self {
        PlanCache {
            byte_cap,
            inner: OrderedMutex::new(
                "PlanCache",
                lock_order::PLAN_CACHE,
                Inner {
                    map: HashMap::new(),
                    clock: 0,
                    bytes: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                    integrity_failures: 0,
                },
            ),
        }
    }

    fn lock(&self) -> OrderedMutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The configured byte cap.
    pub fn byte_cap(&self) -> usize {
        self.byte_cap
    }

    /// Looks up a plan, bumping its recency. Counts a hit or a miss.
    pub fn get(&self, key: u64) -> Option<CachedPlan> {
        let mut g = self.lock();
        g.clock += 1;
        let clock = g.clock;
        match g.map.get_mut(&key) {
            Some(e) => {
                e.last_used = clock;
                let plan = e.plan.clone();
                g.hits += 1;
                Some(plan)
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Records that a hit failed revalidation: evicts the entry and
    /// counts an integrity failure (the hit already counted; the caller
    /// proceeds as a miss).
    pub fn quarantine(&self, key: u64) {
        let mut g = self.lock();
        if let Some(e) = g.map.remove(&key) {
            g.bytes -= e.bytes;
        }
        g.integrity_failures += 1;
    }

    /// Inserts a plan, evicting least-recently-used entries until the
    /// byte cap holds. A plan larger than the whole cap is not cached.
    pub fn put(&self, key: u64, plan: CachedPlan) {
        let bytes = plan.approx_bytes();
        if bytes > self.byte_cap {
            return;
        }
        let mut g = self.lock();
        if let Some(old) = g.map.remove(&key) {
            g.bytes -= old.bytes;
        }
        while g.bytes + bytes > self.byte_cap {
            let Some((&lru_key, _)) = g.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(e) = g.map.remove(&lru_key) {
                g.bytes -= e.bytes;
                g.evictions += 1;
            }
        }
        g.clock += 1;
        let clock = g.clock;
        g.bytes += bytes;
        g.map.insert(
            key,
            Entry {
                plan,
                bytes,
                last_used: clock,
            },
        );
    }

    /// (hits, misses, evictions, integrity_failures, bytes) snapshot.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        let g = self.lock();
        (
            g.hits,
            g.misses,
            g.evictions,
            g.integrity_failures,
            g.bytes as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgh_sparse::{CooMatrix, CsrMatrix};

    fn plan(n: u32) -> CachedPlan {
        let a: CsrMatrix = CsrMatrix::from_coo(
            CooMatrix::from_triplets(n, n, (0..n).map(|i| (i, i, 1.0))).unwrap(),
        );
        let d = Decomposition::rowwise(&a, 2, (0..n).map(|i| i % 2).collect()).unwrap();
        CachedPlan {
            decomposition: d,
            summary: PlanSummary {
                objective: 0,
                volume: 0,
                imbalance: 0.0,
                degraded_code: None,
                degraded_reason: None,
            },
        }
    }

    #[test]
    fn hit_miss_and_recency() {
        let c = PlanCache::new(1 << 20);
        assert!(c.get(1).is_none());
        c.put(1, plan(4));
        assert!(c.get(1).is_some());
        let (hits, misses, ..) = c.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn byte_cap_evicts_lru() {
        let one = plan(8);
        let per_entry = one.approx_bytes();
        // Room for exactly two entries.
        let c = PlanCache::new(per_entry * 2);
        c.put(1, plan(8));
        c.put(2, plan(8));
        c.get(1); // 1 is now more recent than 2
        c.put(3, plan(8)); // must evict 2
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none(), "LRU entry must have been evicted");
        assert!(c.get(3).is_some());
        let (_, _, evictions, _, bytes) = c.stats();
        assert_eq!(evictions, 1);
        assert!(bytes as usize <= per_entry * 2);
    }

    #[test]
    fn quarantine_removes_and_counts() {
        let c = PlanCache::new(1 << 20);
        c.put(9, plan(4));
        c.quarantine(9);
        assert!(c.get(9).is_none());
        let (_, _, _, integrity, bytes) = c.stats();
        assert_eq!(integrity, 1);
        assert_eq!(bytes, 0);
    }

    #[test]
    fn zero_cap_disables_caching() {
        let c = PlanCache::new(0);
        c.put(1, plan(4));
        assert!(c.get(1).is_none());
    }

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
