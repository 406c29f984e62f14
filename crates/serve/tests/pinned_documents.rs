//! Exact-text pins of the `fgh-metrics/1` documents and of the serve
//! responses that carry them.
//!
//! The observability tests check the document schema only; these pin
//! every value. Each case runs one `execute_workload` request with
//! `embed_metrics` on a Serial session (trace off), masks what a clock
//! decides (`elapsed_ns` of the response and of the document,
//! `engine.phase_ns`) and compares the compact JSON text of the
//! document and of the rest of the response with the texts below. The
//! plan-cache path (`execute_job`, miss then hit) is pinned the same way.
//!
//! `index_bits` follows the width the build decomposes at (`64` under the
//! `fgh-core/force-u64` feature), so it is checked against a probe run
//! and then masked too; every other value is width-independent.

use std::collections::BTreeMap;

use fgh_core::{
    decompose_workload_any, CancelToken, DecomposeConfig, EngineSession, Model, Parallelism,
    WorkloadAny,
};
use fgh_serve::metrics::ServeCounters;
use fgh_serve::protocol::{DecomposeRequest, MatrixSource};
use fgh_serve::worker::{execute_job, execute_workload};
use fgh_serve::PlanCache;
use fgh_sparse::{AnyCsrMatrix, CooMatrix, CsrMatrix};
use fgh_trace::json::Value;

const SPMV_METRICS: &str = r#"{"comm":{"expand_messages":9,"expand_volume":24,"fold_messages":9,"fold_volume":18,"load_imbalance_percent":0.32051282051282054,"max_messages_per_proc":5,"max_sent_recv_words":24,"total_messages":18,"total_volume":42},"degraded_code":null,"degraded_reason":null,"elapsed_ns":0,"engine":{"bisections":3,"byte_truncations":0,"cancel_truncations":0,"contracted_incidences":1931,"fm_moves":6844,"fm_passes":68,"fm_rollbacks":6326,"fm_truncations":0,"level_truncations":0,"levels":4,"parallel_forks":0,"phase_ns":{"coarsen":0,"initial":0,"refine":0},"wall_truncations":0},"epsilon":0.03,"flops":null,"k":4,"matrix":{"index_bits":0,"ncols":324,"nnz":1248,"nrows":324},"matrix_b":null,"model":"fine-grain-2d","objective":42,"runs":1,"schema":"fgh-metrics/1","seed":1,"status":"full","trace":null,"traffic":null,"workload":"spmv"}"#;
const SPMV_RESPONSE: &str = r#"{"cache":"bypass","degraded_code":null,"degraded_reason":null,"elapsed_ns":0,"imbalance":0.32051282051282054,"k":4,"nnz":1248,"objective":42,"ok":true,"status":"full","volume":42,"workload":"spmv"}"#;
const SPGEMM_METRICS: &str = r#"{"comm":{"expand_messages":2,"expand_volume":6,"fold_messages":12,"fold_volume":183,"load_imbalance_percent":2.2239872915011913,"max_messages_per_proc":5,"max_sent_recv_words":105,"total_messages":14,"total_volume":189},"degraded_code":null,"degraded_reason":null,"elapsed_ns":0,"engine":{"bisections":3,"byte_truncations":0,"cancel_truncations":0,"contracted_incidences":8403,"fm_moves":7097,"fm_passes":63,"fm_rollbacks":6734,"fm_truncations":0,"level_truncations":0,"levels":7,"parallel_forks":0,"phase_ns":{"coarsen":0,"initial":0,"refine":0},"wall_truncations":0},"epsilon":0.03,"flops":5036,"k":4,"matrix":{"index_bits":0,"ncols":324,"nnz":1248,"nrows":324},"matrix_b":{"index_bits":0,"ncols":324,"nnz":1248,"nrows":324},"model":"spgemm-fine-grain","objective":189,"runs":1,"schema":"fgh-metrics/1","seed":1,"status":"full","trace":null,"traffic":{"a":{"dram_reads":1248,"remote_reads":1},"b":{"dram_reads":1248,"remote_reads":5},"c":{"dram_writes":2852,"remote_writes":183},"total_remote":189},"workload":"spgemm"}"#;
const SPGEMM_RESPONSE: &str = r#"{"cache":"bypass","degraded_code":null,"degraded_reason":null,"elapsed_ns":0,"flops":5036,"imbalance":2.2239872915011913,"k":4,"nnz":1248,"objective":189,"ok":true,"status":"full","traffic":{"a":{"dram_reads":1248,"remote_reads":1},"b":{"dram_reads":1248,"remote_reads":5},"c":{"dram_writes":2852,"remote_writes":183},"total_remote":189},"volume":189,"workload":"spgemm"}"#;
const EMPTY_METRICS: &str = r#"{"comm":{"expand_messages":0,"expand_volume":0,"fold_messages":0,"fold_volume":0,"load_imbalance_percent":0,"max_messages_per_proc":0,"max_sent_recv_words":0,"total_messages":0,"total_volume":0},"degraded_code":"empty-matrix","degraded_reason":"matrix has no nonzeros; trivial decomposition","elapsed_ns":0,"engine":{"bisections":0,"byte_truncations":0,"cancel_truncations":0,"contracted_incidences":0,"fm_moves":0,"fm_passes":0,"fm_rollbacks":0,"fm_truncations":0,"level_truncations":0,"levels":0,"parallel_forks":0,"phase_ns":{"coarsen":0,"initial":0,"refine":0},"wall_truncations":0},"epsilon":0.03,"flops":null,"k":4,"matrix":{"index_bits":0,"ncols":4,"nnz":0,"nrows":4},"matrix_b":null,"model":"fine-grain-2d","objective":0,"runs":1,"schema":"fgh-metrics/1","seed":1,"status":"degraded","trace":null,"traffic":null,"workload":"spmv"}"#;
const EMPTY_RESPONSE: &str = r#"{"cache":"bypass","degraded_code":"empty-matrix","degraded_reason":"matrix has no nonzeros; trivial decomposition","elapsed_ns":0,"imbalance":0,"k":4,"nnz":0,"objective":0,"ok":true,"status":"degraded","volume":0,"workload":"spmv"}"#;
const DEGENERATE_SPMV_METRICS: &str = r#"{"comm":{"expand_messages":0,"expand_volume":0,"fold_messages":0,"fold_volume":0,"load_imbalance_percent":100,"max_messages_per_proc":0,"max_sent_recv_words":0,"total_messages":0,"total_volume":0},"degraded_code":"degenerate-k","degraded_reason":"K = 8 exceeds the 4 nonzeros; some processors receive no work","elapsed_ns":0,"engine":{"bisections":7,"byte_truncations":0,"cancel_truncations":0,"contracted_incidences":0,"fm_moves":96,"fm_passes":56,"fm_rollbacks":96,"fm_truncations":0,"level_truncations":0,"levels":0,"parallel_forks":0,"phase_ns":{"coarsen":0,"initial":0,"refine":0},"wall_truncations":0},"epsilon":0.03,"flops":null,"k":8,"matrix":{"index_bits":0,"ncols":4,"nnz":4,"nrows":4},"matrix_b":null,"model":"fine-grain-2d","objective":0,"runs":1,"schema":"fgh-metrics/1","seed":1,"status":"degraded","trace":null,"traffic":null,"workload":"spmv"}"#;
const DEGENERATE_SPMV_RESPONSE: &str = r#"{"cache":"bypass","degraded_code":"degenerate-k","degraded_reason":"K = 8 exceeds the 4 nonzeros; some processors receive no work","elapsed_ns":0,"imbalance":100,"k":8,"nnz":4,"objective":0,"ok":true,"status":"degraded","volume":0,"workload":"spmv"}"#;
const DEGENERATE_SPGEMM_METRICS: &str = r#"{"comm":{"expand_messages":0,"expand_volume":0,"fold_messages":0,"fold_volume":0,"load_imbalance_percent":100,"max_messages_per_proc":0,"max_sent_recv_words":0,"total_messages":0,"total_volume":0},"degraded_code":"degenerate-k","degraded_reason":"K = 8 exceeds the 4 nonzeros; some processors receive no work","elapsed_ns":0,"engine":{"bisections":7,"byte_truncations":0,"cancel_truncations":0,"contracted_incidences":0,"fm_moves":96,"fm_passes":56,"fm_rollbacks":96,"fm_truncations":0,"level_truncations":0,"levels":0,"parallel_forks":0,"phase_ns":{"coarsen":0,"initial":0,"refine":0},"wall_truncations":0},"epsilon":0.03,"flops":4,"k":8,"matrix":{"index_bits":0,"ncols":4,"nnz":4,"nrows":4},"matrix_b":{"index_bits":0,"ncols":4,"nnz":4,"nrows":4},"model":"spgemm-fine-grain","objective":0,"runs":1,"schema":"fgh-metrics/1","seed":1,"status":"degraded","trace":null,"traffic":{"a":{"dram_reads":4,"remote_reads":0},"b":{"dram_reads":4,"remote_reads":0},"c":{"dram_writes":4,"remote_writes":0},"total_remote":0},"workload":"spgemm"}"#;
const DEGENERATE_SPGEMM_RESPONSE: &str = r#"{"cache":"bypass","degraded_code":"degenerate-k","degraded_reason":"K = 8 exceeds the 4 nonzeros; some processors receive no work","elapsed_ns":0,"flops":4,"imbalance":100,"k":8,"nnz":4,"objective":0,"ok":true,"status":"degraded","traffic":{"a":{"dram_reads":4,"remote_reads":0},"b":{"dram_reads":4,"remote_reads":0},"c":{"dram_writes":4,"remote_writes":0},"total_remote":0},"volume":0,"workload":"spgemm"}"#;
const JOB_MISS_RESPONSE: &str = r#"{"cache":"miss","degraded_code":null,"degraded_reason":null,"elapsed_ns":0,"imbalance":0.32051282051282054,"k":4,"nnz":1248,"objective":42,"ok":true,"status":"full","volume":42}"#;
const JOB_HIT_RESPONSE: &str = r#"{"cache":"hit","degraded_code":null,"degraded_reason":null,"elapsed_ns":0,"imbalance":0.32051282051282054,"k":4,"nnz":1248,"objective":42,"ok":true,"status":"full","volume":42}"#;

/// A 4×4 diagonal: four work units, so K = 8 is degenerate for SpMV
/// (4 nonzeros) and for SpGEMM A·A (4 multiply tasks).
const DIAGONAL_MM: &str = "%%MatrixMarket matrix coordinate real general\n\
                           4 4 4\n1 1 1.0\n2 2 2.0\n3 3 3.0\n4 4 4.0\n";
const EMPTY_MM: &str = "%%MatrixMarket matrix coordinate real general\n4 4 0\n";

fn sherman3() -> MatrixSource {
    MatrixSource::Catalog {
        name: "sherman3".into(),
        scale: 16,
        gen_seed: 1,
    }
}

fn request(source: MatrixSource, workload: &str, k: u32) -> DecomposeRequest {
    let model = if workload == "spgemm" {
        "spgemm-fine-grain"
    } else {
        "fine-grain-2d"
    };
    DecomposeRequest {
        source,
        workload: workload.into(),
        source_b: None,
        model: model.into(),
        k,
        epsilon: 0.03,
        seed: 1,
        runs: 1,
        budget_ms: None,
        budget_bytes: None,
        include_owners: false,
        inject: None,
    }
}

fn session() -> EngineSession {
    EngineSession::new().with_parallelism(Parallelism::Serial)
}

/// The index width this build decomposes a small `u32` matrix at.
fn probe_index_bits() -> u64 {
    let a: CsrMatrix = CsrMatrix::from_coo(
        CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 1.0)]).unwrap(),
    );
    let cfg = DecomposeConfig::new(Model::FineGrain2D, 1).with_parallelism(Parallelism::Serial);
    let out = decompose_workload_any(WorkloadAny::Spmv(&AnyCsrMatrix::from(a)), &cfg)
        .unwrap()
        .into_spmv()
        .unwrap();
    out.width.bits() as u64
}

fn obj(v: &mut Value) -> &mut BTreeMap<String, Value> {
    match v {
        Value::Obj(m) => m,
        other => panic!("expected an object, got {}", other.to_json()),
    }
}

fn zero(m: &mut BTreeMap<String, Value>, key: &str) {
    let slot = m.get_mut(key).unwrap_or_else(|| panic!("missing {key}"));
    assert!(slot.as_u64().is_some(), "{key} is not a counter");
    *slot = Value::Num(0.0);
}

/// Masks the clock-decided members of a metrics document in place.
fn mask_metrics(doc: &mut Value, bits: u64) {
    fgh_core::validate_metrics_value(doc).unwrap();
    let m = obj(doc);
    zero(m, "elapsed_ns");
    let phase = obj(obj(m.get_mut("engine").unwrap())
        .get_mut("phase_ns")
        .unwrap());
    for p in ["coarsen", "initial", "refine"] {
        zero(phase, p);
    }
    for key in ["matrix", "matrix_b"] {
        if let Some(Value::Obj(mat)) = m.get_mut(key) {
            assert_eq!(mat.get("index_bits").and_then(Value::as_u64), Some(bits));
            zero(mat, "index_bits");
        }
    }
}

/// Splits a response into (masked metrics text, masked rest text).
fn split(mut response: Value, bits: u64) -> (String, String) {
    let m = obj(&mut response);
    assert_eq!(m.get("ok"), Some(&Value::Bool(true)), "{m:?}");
    zero(m, "elapsed_ns");
    let mut metrics = m.remove("metrics").expect("embed_metrics was set");
    mask_metrics(&mut metrics, bits);
    (metrics.to_json(), response.to_json())
}

fn check(name: &str, req: &DecomposeRequest, want_metrics: &str, want_response: &str) {
    let bits = probe_index_bits();
    let counters = ServeCounters::default();
    let r = execute_workload(&session(), &counters, req, &CancelToken::new(), true);
    let (metrics, rest) = split(r, bits);
    assert_eq!(metrics, want_metrics, "{name}: metrics document changed");
    assert_eq!(rest, want_response, "{name}: response changed");
}

#[test]
fn spmv_fine_grain_document_is_pinned() {
    let req = request(sherman3(), "spmv", 4);
    check("spmv", &req, SPMV_METRICS, SPMV_RESPONSE);
}

#[test]
fn spgemm_document_is_pinned() {
    let req = request(sherman3(), "spgemm", 4);
    check("spgemm", &req, SPGEMM_METRICS, SPGEMM_RESPONSE);
}

#[test]
fn empty_matrix_document_is_pinned() {
    let req = request(MatrixSource::Inline(EMPTY_MM.into()), "spmv", 4);
    check("empty", &req, EMPTY_METRICS, EMPTY_RESPONSE);
}

#[test]
fn degenerate_k_spmv_document_is_pinned() {
    let req = request(MatrixSource::Inline(DIAGONAL_MM.into()), "spmv", 8);
    check(
        "degenerate spmv",
        &req,
        DEGENERATE_SPMV_METRICS,
        DEGENERATE_SPMV_RESPONSE,
    );
}

#[test]
fn degenerate_k_spgemm_document_is_pinned() {
    let req = request(MatrixSource::Inline(DIAGONAL_MM.into()), "spgemm", 8);
    check(
        "degenerate spgemm",
        &req,
        DEGENERATE_SPGEMM_METRICS,
        DEGENERATE_SPGEMM_RESPONSE,
    );
}

#[test]
fn plan_cache_responses_are_pinned() {
    let (session, cache, counters) = (session(), PlanCache::new(8 << 20), ServeCounters::default());
    let req = request(sherman3(), "spmv", 4);
    let token = CancelToken::new();
    for want in [JOB_MISS_RESPONSE, JOB_HIT_RESPONSE] {
        let mut r = execute_job(&session, &cache, &counters, false, &req, &token);
        zero(obj(&mut r), "elapsed_ns");
        assert_eq!(r.to_json(), want);
    }
}
