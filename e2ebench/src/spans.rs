//! Traced mode: spans recorded by the benchmark around each call it
//! makes into a library crate, and the per-layer accounting built from
//! them.
//!
//! A span is named `<layer>.<call>` (`sparse.parse`, `partition.partition`,
//! ...). Spans a library records under a handle the benchmark passes in
//! (the `expand` / `local-mult` / `fold` children of
//! `DistributedSpmv::multiply_traced`) belong to their parent's layer.
//! A layer's self time is its spans' durations minus the part their
//! children cover; whatever the `job` root's children do not cover is
//! `unaccounted`, so a call the benchmark forgot to wrap shows up there.

use std::collections::BTreeMap;
use std::sync::Arc;

use fgh_trace::{CollectingSink, Span, SpanHandle, Trace, TraceNode, Tracer};

/// The library layers the benchmark attributes time to, plus its own
/// glue (`bench`: input generation and result checks), each with the
/// metric that reports its self time.
pub const LAYERS: [(&str, &str); 7] = [
    ("sparse", "sparse.self_s"),
    ("core", "core.self_s"),
    ("partition", "partition.self_s"),
    ("spmv", "spmv.self_s"),
    ("traffic", "traffic.self_s"),
    ("serve", "serve.self_s"),
    ("bench", "bench.self_s"),
];

/// Root span of one measured operation.
pub const JOB: &str = "job";

/// A tracer that keeps every span in memory until [`Spans::finish`].
pub struct Spans {
    tracer: Tracer,
    sink: Arc<CollectingSink>,
}

impl Spans {
    pub fn collecting() -> Spans {
        let (tracer, sink) = Tracer::collecting();
        Spans { tracer, sink }
    }

    pub fn root(&self, name: &'static str) -> Span {
        self.tracer.span(name)
    }

    /// The recorded spans as a tree, one root per job or setup pass.
    pub fn finish(&self) -> Trace {
        self.sink.build_trace()
    }
}

/// Opens a child span of `scope` named `name` for the duration of `f`.
pub fn within<T>(scope: &SpanHandle, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = scope.child(name);
    f()
}

/// One traced root's accounting.
#[derive(Debug, Default, Clone)]
pub struct RootAccount {
    pub wall_s: f64,
    /// Self seconds per layer; the root's own uncovered time is
    /// under `unaccounted`.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Inclusive seconds per span name, summed over repeats.
    pub inclusive_s: BTreeMap<&'static str, f64>,
}

fn layer_of(name: &'static str, parent_layer: &'static str) -> &'static str {
    match name.split_once('.') {
        Some((layer, _)) => LAYERS
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(parent_layer, |(l, _)| l),
        None => parent_layer,
    }
}

fn walk(node: &TraceNode, layer: &'static str, acc: &mut RootAccount) {
    let children_ns: u64 = node.children.iter().map(|c| c.duration_ns).sum();
    let self_s = node.duration_ns.saturating_sub(children_ns) as f64 * 1e-9;
    *acc.self_s.entry(layer).or_insert(0.0) += self_s;
    *acc.inclusive_s.entry(node.name).or_insert(0.0) += node.duration_ns as f64 * 1e-9;
    for c in &node.children {
        walk(c, layer_of(c.name, layer), acc);
    }
}

/// Accounts every root named `root_name` in `trace`.
pub fn account(trace: &Trace, root_name: &str) -> Vec<RootAccount> {
    trace
        .roots
        .iter()
        .filter(|r| r.name == root_name)
        .map(|r| {
            let mut acc = RootAccount {
                wall_s: r.duration_ns as f64 * 1e-9,
                ..Default::default()
            };
            walk(r, "unaccounted", &mut acc);
            acc
        })
        .collect()
}

/// Inclusive seconds of span `name` in every root that recorded it.
pub fn samples_of(accounts: &[RootAccount], name: &str) -> Vec<f64> {
    accounts
        .iter()
        .filter_map(|a| a.inclusive_s.get(name).copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_cover_the_root() {
        let spans = Spans::collecting();
        {
            let job = spans.root(JOB);
            within(&job.handle(), "sparse.parse", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let s = job.child("spmv.multiply");
            within(&s.handle(), "expand", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
        let accts = account(&spans.finish(), JOB);
        assert_eq!(accts.len(), 1);
        let a = &accts[0];
        let covered: f64 = a.self_s.values().sum();
        assert!((covered - a.wall_s).abs() < 1e-6, "{a:?}");
        assert!(a.self_s["sparse"] >= 0.002);
        assert!(a.self_s["spmv"] >= 0.001, "expand belongs to spmv: {a:?}");
        assert!(a.inclusive_s.contains_key("expand"));
    }
}
