//! The serve-mixed workload: an in-process daemon and a closed loop of
//! client connections over a fixed, seed-derived request sequence.
//!
//! Request `i` of the sequence is a pure function of `(seed, i)`; each
//! block of 20 requests holds the kinds in exactly these shares:
//!
//! | share | kind | what it exercises |
//! |---|---|---|
//! | 50% | SpMV from a set of [`HIT_KEYS`] catalog keys, cached in set-up | plan cache hits |
//! | 30% | SpMV with a unique partition seed | cache misses |
//! | 15% | SpGEMM `A·A` | the cache bypass and `fgh-traffic` |
//! | 5% | `batch` of one SpMV and one SpGEMM body | the batch path and its embedded metrics documents |
//!
//! These shares are an assumption, not a measurement: the repository has
//! no record of real request traffic, and its only load generator (the
//! daemon's hostile self-test) sends mostly repeated keys with one batch
//! in 16 requests. The mix keeps that shape — repeats the largest share,
//! batch the smallest — and gives the partitioning kinds (misses and
//! SpGEMM) 45% of the requests so that partitioner changes still move the
//! round trip. Because a cache hit costs a fixed round-trip floor, a mix
//! with more hits would respond less to the partitioner and one with more
//! misses more; the per-kind medians (`serve.*_ms_p50`) show each kind
//! apart from the shares.
//!
//! Every response is checked: `ok` with status `full`; an SpMV response's
//! objective equals its volume, and every response for one cache key
//! reports the same volume; an SpGEMM response's replayed remote words
//! equal its objective; every document embedded in a batch response
//! passes `validate_metrics_value`. A shed (`overloaded`) response is a
//! failure, as is any other error.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fgh_serve::client::{batch_request, decompose_request, spgemm_request};
use fgh_serve::{ServeClient, ServeConfig, ServeSnapshot, Server, ServerHandle};
use fgh_trace::json::Value;

use crate::spans::{within, Spans, JOB};
use crate::util::mix;

/// Distinct keys of the repeated (cache-hit) requests.
pub const HIT_KEYS: u64 = 4;
/// Client connections, each a closed loop.
pub const CLIENTS: usize = 2;
/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// Matrix sizes of the request mix.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub matrix: &'static str,
    pub spmv_scale: u32,
    pub spmv_k: u32,
    pub spgemm_scale: u32,
    pub spgemm_k: u32,
}

pub const FULL: Mix = Mix {
    matrix: "sherman3",
    spmv_scale: 2,
    spmv_k: 16,
    spgemm_scale: 4,
    spgemm_k: 8,
};

pub const TINY: Mix = Mix {
    matrix: "sherman3",
    spmv_scale: 16,
    spmv_k: 4,
    spgemm_scale: 32,
    spgemm_k: 4,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Repeat(u64),
    Unique,
    Spgemm,
    Batch,
}

/// A seed the JSON protocol carries exactly (below 2^53).
fn wire_seed(seed: u64, tag: u64) -> u64 {
    mix(seed, tag) >> 12
}

/// Slots of one block of [`BLOCK`] consecutive requests: 10 repeated
/// keys, 6 unique SpMV, 3 SpGEMM, 1 batch. Each block is shuffled by
/// the seed, so every run sends the kinds in exactly these shares.
pub const BLOCK: u64 = 20;

fn kind_at(seed: u64, i: u64) -> Kind {
    let mut order: Vec<u64> = (0..BLOCK).collect();
    let block = i / BLOCK;
    for j in (1..order.len()).rev() {
        let r = mix(seed, 0x5e_0000 + block * BLOCK + j as u64) % (j as u64 + 1);
        order.swap(j, r as usize);
    }
    match order[(i % BLOCK) as usize] {
        slot @ 0..=9 => Kind::Repeat(slot % HIT_KEYS),
        10..=15 => Kind::Unique,
        16..=18 => Kind::Spgemm,
        _ => Kind::Batch,
    }
}

fn repeat_request(m: &Mix, seed: u64, key: u64) -> Value {
    decompose_request(
        m.matrix,
        m.spmv_scale,
        m.spmv_k,
        wire_seed(seed, 0xcafe + key),
    )
}

/// Request `i` of the sequence for workload seed `seed`.
pub fn request(m: &Mix, seed: u64, i: u64) -> (Kind, Value) {
    let unique = wire_seed(seed, 0x1_0000_0000 + i);
    let spmv = |s| decompose_request(m.matrix, m.spmv_scale, m.spmv_k, s);
    let spgemm = |s| spgemm_request(m.matrix, m.spgemm_scale, m.spgemm_k, s);
    let kind = kind_at(seed, i);
    let req = match kind {
        Kind::Repeat(key) => repeat_request(m, seed, key),
        Kind::Unique => spmv(unique),
        Kind::Spgemm => spgemm(unique),
        Kind::Batch => batch_request(vec![
            spmv(unique),
            spgemm(wire_seed(seed, 0x2_0000_0000 + i)),
        ]),
    };
    (kind, req)
}

fn num(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("response lacks {key}"))
}

fn check_ok(v: &Value) -> Result<(), String> {
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("not ok: {}", v.to_json()));
    }
    match v.get("status").and_then(Value::as_str) {
        Some("full") => Ok(()),
        other => Err(format!("status {other:?}")),
    }
}

/// Checks one decompose response; returns its volume.
fn check_decompose(v: &Value) -> Result<u64, String> {
    check_ok(v)?;
    let objective = num(v, "objective")?;
    let volume = num(v, "volume")?;
    if objective != volume {
        return Err(format!("objective {objective} != volume {volume}"));
    }
    if v.get("workload").and_then(Value::as_str) == Some("spgemm") {
        let remote = v
            .get("traffic")
            .and_then(|t| t.get("total_remote"))
            .and_then(Value::as_u64)
            .ok_or("spgemm response lacks traffic.total_remote")?;
        if remote != objective {
            return Err(format!("replayed remote {remote} != objective {objective}"));
        }
    }
    Ok(volume)
}

fn check_batch(v: &Value) -> Result<(), String> {
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("batch not ok: {}", v.to_json()));
    }
    let results = v
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("batch response lacks results")?;
    if results.len() != 2 {
        return Err(format!("batch returned {} results for 2", results.len()));
    }
    for r in results {
        check_decompose(r)?;
        let doc = r.get("metrics").ok_or("batch result lacks metrics")?;
        fgh_core::validate_metrics_value(doc)?;
    }
    Ok(())
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Done {
    pub index: u64,
    pub kind: Kind,
    /// Client-side round trip, seconds.
    pub latency_s: f64,
    /// `hit`, `miss` or `bypass` as the daemon reported it.
    pub cache: String,
    pub volume: Option<u64>,
    pub imbalance_pct: Option<f64>,
    pub outcome: Result<(), String>,
    /// Round trip plus checks, and in traced mode the spans' own cost,
    /// seconds (traced mode's job wall).
    pub wall_s: f64,
    pub traced: bool,
}

/// Set-up: starts a daemon, waits until it answers a ping, and fills
/// its plan cache with the repeated keys, so that repeats in the
/// measured loop are cache hits.
pub fn start_and_warm(m: &Mix, seed: u64) -> Result<ServerHandle, String> {
    let mut cfg = ServeConfig::loopback();
    cfg.workers = WORKERS;
    let h = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let mut c = ServeClient::connect_tcp(h.addr()).map_err(|e| format!("connect: {e}"))?;
    c.ping()?;
    for key in 0..HIT_KEYS {
        check_decompose(&c.request(&repeat_request(m, seed, key))?)?;
    }
    Ok(h)
}

pub fn stop(h: ServerHandle) -> ServeSnapshot {
    h.shutdown();
    h.join()
}

/// Runs the closed loop for at least `seconds` and `min_requests`
/// requests. In traced mode the requests of every even block are wrapped
/// in spans.
pub fn run_loop(
    addr: &str,
    m: &Mix,
    seed: u64,
    seconds: f64,
    min_requests: u64,
    spans: Option<&Spans>,
) -> (Vec<Done>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut local = Vec::new();
                let mut client = match ServeClient::connect_tcp(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        local.push(Done {
                            index: u64::MAX,
                            kind: Kind::Unique,
                            latency_s: 0.0,
                            cache: String::new(),
                            volume: None,
                            imbalance_pct: None,
                            outcome: Err(format!("connect: {e}")),
                            wall_s: 0.0,
                            traced: false,
                        });
                        done.lock()
                            .expect("no client panics holding it")
                            .extend(local);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst) as u64;
                    if i >= min_requests && Instant::now() >= stop_at {
                        break;
                    }
                    let (kind, req) = request(m, seed, i);
                    let traced = spans.filter(|_| (i / BLOCK).is_multiple_of(2));
                    let began = Instant::now();
                    let root = traced.map(|sp| sp.root(JOB));
                    let scope = root
                        .as_ref()
                        .map_or_else(fgh_trace::SpanHandle::noop, |r| r.handle());
                    let t = Instant::now();
                    let resp = within(&scope, "serve.request", || client.request(&req));
                    let latency_s = t.elapsed().as_secs_f64();
                    let (outcome, volume, imbalance, cache) =
                        within(&scope, "bench.verify", || match resp {
                            Err(e) => (Err(e), None, None, String::new()),
                            Ok(v) => {
                                let cache = v
                                    .get("cache")
                                    .and_then(Value::as_str)
                                    .unwrap_or("")
                                    .to_string();
                                let imb = v.get("imbalance").and_then(Value::as_f64);
                                match kind {
                                    Kind::Batch => (check_batch(&v), None, None, cache),
                                    _ => match check_decompose(&v) {
                                        Ok(vol) => (Ok(()), Some(vol), imb, cache),
                                        Err(e) => (Err(e), None, None, cache),
                                    },
                                }
                            }
                        });
                    drop(root);
                    let wall_s = began.elapsed().as_secs_f64();
                    local.push(Done {
                        index: i,
                        kind,
                        latency_s,
                        cache,
                        volume,
                        imbalance_pct: imbalance,
                        outcome,
                        wall_s,
                        traced: traced.is_some(),
                    });
                }
                done.lock()
                    .expect("no client panics holding it")
                    .extend(local);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("clients joined");
    done.sort_by_key(|d| d.index);
    (done, wall)
}

/// Cross-request check: every response for one repeated key reports
/// the same volume (a cache hit returns the plan a miss computed).
/// Returns the indices that disagree with the key's first response.
pub fn inconsistent_repeats(done: &[Done]) -> Vec<u64> {
    let mut first: BTreeMap<u64, u64> = BTreeMap::new();
    let mut bad = Vec::new();
    for d in done {
        if let (Kind::Repeat(key), Some(vol)) = (d.kind, d.volume) {
            let want = *first.entry(key).or_insert(vol);
            if want != vol {
                bad.push(d.index);
            }
        }
    }
    bad
}
