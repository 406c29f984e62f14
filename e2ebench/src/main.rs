//! # e2ebench — the repository's end-to-end and per-layer benchmark
//!
//! One program for four workloads, each taken from its input (a `.mtx`
//! file or a serve request) to a verified answer. It calls the public
//! functions of `fgh-sparse`, `fgh-core`, `fgh-partition`, `fgh-spmv`,
//! `fgh-traffic` and `fgh-serve` from outside and puts nothing inside
//! them.
//!
//! ## Running it
//!
//! From the repository root (the command `BENCHMARK.json` names):
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload decompose-spmv --seed 1 --seconds 25 --trace 0
//! ```
//!
//! * one workload: `--workload <decompose-spmv|decompose-spgemm|cg-solve|serve-mixed>`;
//! * one seed: `--seed <n>`. The inputs that vary (partition seeds,
//!   right-hand sides, the request sequence) are a pure function of it;
//!   the matrices are fixed catalog analogues;
//! * traced mode: `--trace 1` prints the per-layer metrics instead of
//!   the end-to-end ones (see below);
//! * `--tiny` shrinks every input for a quick check, and `--out <dir>`
//!   moves the directory of generated inputs and run records
//!   (default `.e2ebench_out`);
//! * the smoke test runs every workload tiny, in both modes, and checks
//!   the output against `BENCHMARK.json`:
//!   `cargo test --release --offline --manifest-path e2ebench/Cargo.toml`.
//!
//! The last line of standard output is the result:
//! `{"attempted":..,"correct":..,"failed":..,"metrics":{name:{"unit":..,"value":..}}}`.
//! The line before it is `{"facts":{..}}`: host CPUs, threads per job,
//! the source commit when known, the seed, input sizes (nnz, file bytes,
//! hypergraph pins), `failed_share`, and every timing as median and
//! quartiles with its sample count. Both lines, and the traced run's
//! spans, are also written under the output directory.
//!
//! **Held-out seed.** Seed 424242 is reserved for confirming a claimed
//! gain. Tune and explore with other seeds; run the held-out seed once,
//! on both commits, when the claim is made.
//!
//! `baseline.json` beside this package records the commit, host and
//! thread counts the benchmark was validated on, with the median and
//! quartiles of every end-to-end metric over two sets of ten seeds.
//!
//! ## Workloads
//!
//! Threads inside a job are capped at the host's CPU count; all load
//! comes from this one process. On glibc the process fixes malloc's mmap
//! and trim thresholds at the values glibc's own dynamic rule reaches in
//! a long-running process (`pin_malloc_thresholds`), so that a run's
//! timings do not depend on which large blocks happened to be freed
//! first; the facts line says whether it took.
//!
//! **Host normalisation.** The host is a few vCPUs of a shared machine,
//! and the neighbours' use of the shared cache and memory changes how fast
//! the memory-bound jobs run by up to 2× over minutes, longer than a run.
//! decompose-spmv, decompose-spgemm and cg-solve therefore run a fixed
//! memory probe of the benchmark's own between jobs (`util::HostProbe`,
//! at most one ~30 ms sample per 0.5 s) and divide their times by the
//! run's host factor, the median probe time over its reference: the
//! timing metrics read as seconds on the reference host. The facts line
//! keeps the times as measured, the host factor and the probe samples.
//! serve-mixed is reported as measured: most of its round trip is a fixed
//! network delay that the host's memory speed does not scale.
//!
//! * `decompose-spmv` — per job: read the ken-11 analogue (82k nnz),
//!   `decompose_workload_any` with fine-grain at K=64, one run,
//!   `Threads(cpus)`, a per-job partition seed; build the
//!   `DistributedSpmv` plan, `validate_cutsize`, one `multiply` checked
//!   against serial `spmv`. The single-job latency row: partitioning is
//!   most of the time, parse and the executor are small.
//! * `decompose-spgemm` — per job: read sherman3 (20k nnz), decompose
//!   A·A with `spgemm-fine-grain` at K=16, replay it with
//!   `fgh_traffic::simulate` (remote words must equal the objective) and
//!   `verify_numeric`. The same partitioner on a task hypergraph of
//!   another shape (many small C-nets); the only user of `fgh-traffic`.
//! * `cg-solve` — set-up partitions a 150×150 `grid5` Laplacian (112k
//!   nnz) at K=64 and builds its plan; each job is one
//!   `conjugate_gradient` solve to relative residual 1e-8 for a
//!   seed-derived manufactured solution, checked to 1e-6. The executor
//!   does nearly all timed work and the partitioner none: the control
//!   for partition changes and the target for executor changes.
//! * `serve-mixed` — an in-process `Server::start` with 2 workers and the
//!   default cache, warmed in set-up; 2 client connections in a closed loop over a
//!   seed-derived mix of cache hits, misses, SpGEMM and batch requests
//!   (see `serve_mix`). Many small serial jobs whose concurrency comes
//!   from workers; covers queue, cache and protocol.
//!
//! `parallel_spmv` is left out on purpose: it spawns one thread per part,
//! so K=64 threads on a few cores would measure the scheduler.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! Every workload reports every metric, for its own unit of work (a
//! "job": a decompose job, one CG solve, or one serve request round
//! trip):
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `setup_s` | s | median of 5 to 100 set-ups: generate inputs, write the `.mtx` files, start the server and fill its cache with the repeated keys, or partition and plan the CG system; host-normalised except on serve-mixed |
//! | `job_p50_s` | s | median job time (for cg-solve the solve time, for serve the round trip); host-normalised except on serve-mixed |
//! | `job_tail_s` | s | the workload's tail percentile: p75 for decompose-*, p90 for cg-solve and serve-mixed; host-normalised except on serve-mixed |
//! | `jobs_per_s` | 1/s | verified jobs completed per second of the measured loop, probe time left out; host-normalised except on serve-mixed |
//! | `volume_words` | words | median communication volume of the first 40 jobs (80 for decompose-spgemm) (cg-solve: of its 15 set-up partitions; serve-mixed: of the unique SpMV requests among the first 400); exact for a given seed |
//! | `max_load_ratio` | ratio | busiest part's load over the average (`1 + imbalance/100`), median over the same decompositions |
//! | `ok_share` | ratio | verified operations / attempted operations; `1 - failed_share` |
//! | `peak_rss_mb` | MB | peak resident memory (`VmHWM`) of this process, less the probe's fixed 38 MB where it runs |
//!
//! `failed_share` itself is in the facts line: a metric that reads 0 on a
//! healthy commit cannot carry a relative bound. CG iteration counts are
//! the per-layer `spmv.cg_iterations`.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Traced mode wraps each call into a library in a span recorded from
//! this benchmark's code (`spans`), keeps the spans in memory and writes
//! them out at the end. Jobs alternate between traced and untraced
//! (serve-mixed: whole blocks of requests, which hold the same kinds);
//! `trace.overhead_ratio` is the traced median job wall over the
//! untraced one. For decompose-spmv and decompose-spgemm the traced job
//! is the staged form of the job (see `pipeline`); the self times of its
//! layers cover the job wall, and `trace.unaccounted_s` is the rest.
//! Every run prints every per-layer metric; a layer that the workload
//! does not exercise reads 0.
//!
//! ## Which workload each open ROADMAP item should move
//!
//! * Item 2 (partition critical path): `job_p50_s` on decompose-spmv and
//!   decompose-spgemm down, `jobs_per_s` on serve-mixed up (damped while
//!   every serve round trip carries its current fixed ~90 ms delay), with
//!   `partition.*` explaining it; `volume_words` unchanged (or reported
//!   when a preset changes it). Flat: cg-solve.
//! * Item 3 (API collapse): no end-to-end metric should move on any
//!   workload; fewer lines is the gain.
//! * Item 4 (arena pool bound): flat everywhere; `peak_rss_mb` on
//!   serve-mixed may drop.
//! * Item 5 (observability): flat everywhere within bounds; trace-inside
//!   changes show in `trace.unaccounted_s` and `trace.overhead_ratio`.
//! * Executor work (the per-multiply K×n image): `job_p50_s` on cg-solve
//!   down, `spmv.*` explaining it. Flat: decompose-spgemm, serve-mixed.

mod pipeline;
mod serve_mix;
mod spans;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fgh_core::{EngineStats, Model, Parallelism};
use fgh_sparse::catalog;
use fgh_sparse::gen::{self, ValueMode};
use fgh_trace::json::Value;
use fgh_trace::{SpanHandle, Trace};
use rand::SeedableRng;

use pipeline::JobOut;
use spans::{account, samples_of, RootAccount, Spans, JOB, LAYERS};
use util::{median, mix, quantile, summary, timed, HostProbe, Report};

/// Every per-layer metric, in the order printed.
const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.parse_s", "s"),
    ("sparse.parse_mb_per_s", "MB/s"),
    ("sparse.to_csr_s", "s"),
    ("sparse.self_s", "s"),
    ("core.model_build_s", "s"),
    ("core.model_pins", "count"),
    ("core.decode_s", "s"),
    ("core.objective_s", "s"),
    ("core.decompose_s", "s"),
    ("core.msgs_total", "count"),
    ("core.max_proc_words", "words"),
    ("core.imbalance_pct", "%"),
    ("core.self_s", "s"),
    ("partition.partition_s", "s"),
    ("partition.serial_s", "s"),
    ("partition.bisect_k2_s", "s"),
    ("partition.coarsen_cpu_s", "s"),
    ("partition.initial_cpu_s", "s"),
    ("partition.refine_cpu_s", "s"),
    ("partition.fm_moves", "count"),
    ("partition.fm_rollbacks", "count"),
    ("partition.fm_kept_ratio", "ratio"),
    ("partition.levels", "count"),
    ("partition.parallel_forks", "count"),
    ("partition.self_s", "s"),
    ("spmv.plan_build_s", "s"),
    ("spmv.validate_s", "s"),
    ("spmv.multiply_s", "s"),
    ("spmv.multiply_ns_per_nnz", "ns"),
    ("spmv.expand_s", "s"),
    ("spmv.local_mult_s", "s"),
    ("spmv.fold_s", "s"),
    ("spmv.words_per_multiply", "words"),
    ("spmv.msgs_per_multiply", "count"),
    ("spmv.abg_predicted_s", "s"),
    ("spmv.solve_s", "s"),
    ("spmv.cg_iterations", "count"),
    ("spmv.self_s", "s"),
    ("traffic.simulate_s", "s"),
    ("traffic.verify_s", "s"),
    ("traffic.remote_words", "words"),
    ("traffic.self_s", "s"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.spgemm_ms_p50", "ms"),
    ("serve.batch_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.completed", "count"),
    ("serve.queue_peak_depth", "count"),
    ("serve.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.job_wall_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// A run completes at least this many jobs, so that the p75 of
/// `job_tail_s` has ten samples beyond it. In the decompose workloads
/// the first this many give `volume_words` and `max_load_ratio`, so both
/// are exact for a seed however many jobs the run completes; SpGEMM
/// volumes vary more between partition seeds, so that workload takes
/// twice as many (its jobs are half as long).
fn min_jobs(w: Workload) -> u64 {
    match w {
        Workload::DecomposeSpgemm => 80,
        _ => 40,
    }
}

/// serve-mixed always completes this many requests; the unique SpMV
/// requests among them (30%) give `volume_words` and `max_load_ratio`.
fn serve_min_requests(tiny: bool) -> u64 {
    if tiny {
        100
    } else {
        400
    }
}

/// Traced mode alternates traced and untraced jobs, at least this many
/// in all.
const TRACED_MIN_JOBS: u64 = 8;

/// Set-up repetitions behind `setup_s`: many where a set-up is a
/// 10–40 ms file write, whose time scatters; fewer where it partitions.
/// Each cg-solve set-up partitions with its own seed, and their volumes
/// give that workload's `volume_words`.
fn setup_reps(w: Workload) -> u64 {
    match w {
        Workload::DecomposeSpmv => 60,
        Workload::DecomposeSpgemm => 100,
        Workload::CgSolve => 15,
        Workload::ServeMixed => 5,
    }
}

/// Generator seed of every catalog matrix: the catalog's default, so the
/// matrices are the same for every workload seed and only partition
/// seeds, right-hand sides and the request sequence vary with it.
const GEN_SEED: u64 = 1;

const USAGE: &str =
    "usage: e2ebench --workload <decompose-spmv|decompose-spgemm|cg-solve|serve-mixed> \
--seed <n> --seconds <n> --trace <0|1> [--tiny] [--out <dir>]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DecomposeSpmv,
    DecomposeSpgemm,
    CgSolve,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "decompose-spmv" => Workload::DecomposeSpmv,
            "decompose-spgemm" => Workload::DecomposeSpgemm,
            "cg-solve" => Workload::CgSolve,
            "serve-mixed" => Workload::ServeMixed,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::DecomposeSpmv => "decompose-spmv",
            Workload::DecomposeSpgemm => "decompose-spgemm",
            Workload::CgSolve => "cg-solve",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// The fixed tail percentile `job_tail_s` reports.
    fn tail(self) -> f64 {
        match self {
            Workload::DecomposeSpmv | Workload::DecomposeSpgemm => 0.75,
            Workload::CgSolve | Workload::ServeMixed => 0.9,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut tiny = false;
    let mut out = PathBuf::from(".e2ebench_out");
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = v.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        out,
    })
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn threads() -> Parallelism {
    Parallelism::Threads(host_cpus())
}

/// The commit being measured, when the checkout is a git work tree.
fn source_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Fixes glibc malloc's mmap and trim thresholds at the values its
/// dynamic rule reaches in a long-running process (after a 32 MiB chunk
/// has been freed: mmap above 32 MiB, trim above 64 MiB). Left dynamic,
/// the thresholds depend on which large blocks worker threads happened to
/// free first, and whether every CG multiply's K×n images come back
/// zero-filled from the kernel or reused from the heap flips between runs
/// of the same input (solve time ×1.8). Returns whether glibc took both.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() -> bool {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: mallopt only sets allocator parameters; it is called before
    // this program starts any thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() -> bool {
    false
}

fn main() {
    let malloc_pinned = pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = args.out.join(format!(
        "work-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let mut rep = Report::default();
    rep.fact("workload", Value::Str(args.workload.name().into()));
    rep.fact_num("seed", args.seed as f64);
    rep.fact_num("seconds", args.seconds);
    rep.fact("trace", Value::Bool(args.trace));
    rep.fact("tiny", Value::Bool(args.tiny));
    rep.fact_num("host_cpus", host_cpus() as f64);
    rep.fact_num("job_threads", host_cpus() as f64);
    rep.fact("source_sha", Value::Str(source_sha()));
    rep.fact("malloc_thresholds_pinned", Value::Bool(malloc_pinned));

    let outcome = match args.workload {
        Workload::DecomposeSpmv | Workload::DecomposeSpgemm => {
            run_decompose(&args, &work, &mut rep)
        }
        Workload::CgSolve => run_cg(&args, &work, &mut rep),
        Workload::ServeMixed => run_serve(&args, &mut rep),
    };
    // The generated inputs go; the record of the run stays.
    let _ = std::fs::remove_dir_all(&work);
    let trace = match outcome {
        Ok(t) => t,
        Err(e) => {
            eprintln!("e2ebench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let facts = rep.facts_json();
    let result = rep.result_json();
    let mut record = format!("{facts}\n{result}\n");
    if let Some(t) = trace {
        record.push_str(&t.to_json());
        record.push('\n');
    }
    if let Err(e) = std::fs::write(args.out.join(format!("{stem}.json")), record) {
        eprintln!("e2ebench: cannot write the run record: {e}");
    }
    println!("{facts}");
    println!("{result}");
}

/// The end-to-end numbers every workload reports.
struct EndToEnd {
    setup_s: Vec<f64>,
    /// Times of the jobs that completed and verified.
    job_s: Vec<f64>,
    loop_wall_s: f64,
    volume: Vec<f64>,
    imbalance_pct: Vec<f64>,
}

/// Emits the end-to-end metrics. With a `probe`, times are divided by its
/// host factor (and rates multiplied), so that they read as seconds on the
/// reference host, and the probe's own buffers are left out of
/// `peak_rss_mb`; the facts keep the times as measured.
fn emit_end_to_end(w: Workload, e: &EndToEnd, probe: Option<&HostProbe>, rep: &mut Report) {
    let tail = w.tail();
    let h = probe.map_or(1.0, HostProbe::factor);
    rep.metric("setup_s", median(&e.setup_s) / h, "s");
    rep.metric("job_p50_s", median(&e.job_s) / h, "s");
    rep.metric("job_tail_s", quantile(&e.job_s, tail) / h, "s");
    rep.metric(
        "jobs_per_s",
        e.job_s.len() as f64 / e.loop_wall_s * h,
        "1/s",
    );
    rep.metric("volume_words", median(&e.volume), "words");
    rep.metric(
        "max_load_ratio",
        1.0 + median(&e.imbalance_pct) / 100.0,
        "ratio",
    );
    rep.metric("ok_share", rep.ok_share(), "ratio");
    let probe_mb = probe.map_or(0.0, HostProbe::resident_mb);
    rep.metric("peak_rss_mb", util::peak_rss_mb() - probe_mb, "MB");
    if let Some(p) = probe {
        rep.fact_num("host_factor", h);
        rep.fact("host_probe_s", summary(p.samples()));
        rep.fact_num("host_probe_mb", probe_mb);
    }
    rep.fact("setup_s", summary(&e.setup_s));
    rep.fact("job_s", summary(&e.job_s));
    rep.fact_num("job_tail_percentile", tail * 100.0);
    rep.fact_num(
        "job_tail_samples_beyond",
        (e.job_s.len() as f64 * (1.0 - tail)).floor(),
    );
    rep.fact_num("loop_wall_s", e.loop_wall_s);
    rep.fact_num("imbalance_pct", median(&e.imbalance_pct));
}

/// Per-layer values of a traced run; anything not set reads 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, v);
    }

    /// Median inclusive time of span `span` across `accts`, if recorded.
    fn span(&mut self, name: &'static str, accts: &[RootAccount], span: &str) {
        let xs = samples_of(accts, span);
        if !xs.is_empty() {
            self.set(name, median(&xs));
        }
    }

    /// Median self time per layer, the job wall and the remainder.
    fn accounting(&mut self, jobs: &[RootAccount]) {
        for (layer, name) in LAYERS {
            let xs: Vec<f64> = jobs
                .iter()
                .map(|a| a.self_s.get(layer).copied().unwrap_or(0.0))
                .collect();
            self.set(name, median(&xs));
        }
        let walls: Vec<f64> = jobs.iter().map(|a| a.wall_s).collect();
        self.set("trace.job_wall_s", median(&walls));
        let rest: Vec<f64> = jobs
            .iter()
            .map(|a| a.self_s.get("unaccounted").copied().unwrap_or(0.0))
            .collect();
        self.set("trace.unaccounted_s", median(&rest));
    }

    /// The traced median job wall over the untraced one, for jobs of
    /// like work.
    fn overhead(&mut self, traced_s: &[f64], untraced_s: &[f64]) {
        self.set(
            "trace.overhead_ratio",
            median(traced_s) / median(untraced_s),
        );
    }

    /// Parse time and rate of a `bytes`-long file.
    fn parse(&mut self, accts: &[RootAccount], bytes: u64) {
        let xs = samples_of(accts, "sparse.parse");
        if !xs.is_empty() {
            self.set("sparse.parse_s", median(&xs));
            self.set("sparse.parse_mb_per_s", bytes as f64 / 1e6 / median(&xs));
        }
    }

    fn engine(&mut self, stats: &[EngineStats]) {
        let med =
            |f: &dyn Fn(&EngineStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
        self.set(
            "partition.coarsen_cpu_s",
            med(&|s| s.coarsen_nanos as f64 * 1e-9),
        );
        self.set(
            "partition.initial_cpu_s",
            med(&|s| s.initial_nanos as f64 * 1e-9),
        );
        self.set(
            "partition.refine_cpu_s",
            med(&|s| s.refine_nanos as f64 * 1e-9),
        );
        self.set("partition.fm_moves", med(&|s| s.fm_moves as f64));
        self.set("partition.fm_rollbacks", med(&|s| s.fm_rollbacks as f64));
        self.set(
            "partition.fm_kept_ratio",
            med(&|s| (s.fm_moves - s.fm_rollbacks) as f64 / (s.fm_moves.max(1)) as f64),
        );
        self.set("partition.levels", med(&|s| s.levels as f64));
        self.set(
            "partition.parallel_forks",
            med(&|s| s.parallel_forks as f64),
        );
    }

    fn emit(&self, rep: &mut Report) {
        for &(name, unit) in PER_LAYER {
            rep.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// Inputs of the two file-driven decompose workloads.
struct FileInput {
    matrix: &'static str,
    scale: u32,
    k: u32,
    model: Model,
}

fn file_input(w: Workload, tiny: bool) -> FileInput {
    match (w, tiny) {
        (Workload::DecomposeSpmv, false) => FileInput {
            matrix: "ken-11",
            scale: 1,
            k: 64,
            model: Model::FineGrain2D,
        },
        (Workload::DecomposeSpmv, true) => FileInput {
            matrix: "ken-11",
            scale: 16,
            k: 8,
            model: Model::FineGrain2D,
        },
        (_, false) => FileInput {
            matrix: "sherman3",
            scale: 1,
            k: 16,
            model: Model::SpgemmFineGrain,
        },
        (_, true) => FileInput {
            matrix: "sherman3",
            scale: 8,
            k: 4,
            model: Model::SpgemmFineGrain,
        },
    }
}

/// Generates catalog matrix `name` for `seed` and writes it as `.mtx`.
fn write_catalog(work: &Path, name: &str, scale: u32, seed: u64) -> Result<(PathBuf, u64), String> {
    let entry = catalog::by_name(name).ok_or(format!("no catalog matrix {name}"))?;
    let a = entry.generate_scaled(scale, seed);
    let path = work.join(format!("{name}.mtx"));
    fgh_sparse::io::write_matrix_market(&a, &path).map_err(|e| e.to_string())?;
    Ok((path, a.nnz() as u64))
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs one decompose job of workload `w`, untraced.
fn decompose_job(
    w: Workload,
    input: &FileInput,
    path: &Path,
    seed: u64,
    par: Parallelism,
) -> Result<JobOut, String> {
    match w {
        Workload::DecomposeSpmv => pipeline::spmv_job(path, input.k, seed, par),
        _ => pipeline::spgemm_job(path, input.k, seed, par),
    }
}

/// Runs one decompose job of workload `w` in staged form under `scope`.
fn staged_job(
    w: Workload,
    input: &FileInput,
    path: &Path,
    seed: u64,
    scope: &SpanHandle,
) -> Result<JobOut, String> {
    match w {
        Workload::DecomposeSpmv => pipeline::spmv_job_staged(path, input.k, seed, threads(), scope),
        _ => pipeline::spgemm_job_staged(path, input.k, seed, threads(), scope),
    }
}

/// Partition seed of job `i`.
fn job_seed(seed: u64, i: u64) -> u64 {
    mix(seed, 0x10b + i)
}

fn run_decompose(a: &Args, work: &Path, rep: &mut Report) -> Result<Option<Trace>, String> {
    let w = a.workload;
    let input = file_input(w, a.tiny);
    let mut host = HostProbe::new();
    let mut setup_s = Vec::new();
    let mut written = None;
    for _ in 0..setup_reps(a.workload) {
        let (r, t) = timed(|| write_catalog(work, input.matrix, input.scale, GEN_SEED));
        written = Some(r?);
        setup_s.push(t);
        host.between_jobs();
    }
    let (path, nnz) = written.expect("at least one set-up");
    rep.fact(
        "matrix",
        Value::Str(format!("{} scale {}", input.matrix, input.scale)),
    );
    rep.fact_num("k", input.k as f64);
    rep.fact_num("nnz", nnz as f64);
    rep.fact_num("file_bytes", file_bytes(&path) as f64);

    // Serial ≡ Threads(n): the determinism `volume_words` relies on.
    let s0 = job_seed(a.seed, 0);
    let serial = rep.record(decompose_job(w, &input, &path, s0, Parallelism::Serial));
    let threaded = rep.record(decompose_job(w, &input, &path, s0, threads()));
    if let (Some(s), Some(t)) = (&serial, &threaded) {
        rep.fact_num("determinism_volume", s.volume as f64);
        if s.volume != t.volume || s.owners != t.owners {
            rep.fail(format!(
                "Serial and Threads({}) disagree: volume {} vs {}",
                host_cpus(),
                s.volume,
                t.volume
            ));
        }
    }

    if a.trace {
        return run_decompose_traced(a, &input, &path, setup_s, threaded, rep).map(Some);
    }

    let start = Instant::now();
    let probed_before = host.spent_s();
    let mut e = EndToEnd {
        setup_s,
        job_s: Vec::new(),
        loop_wall_s: 0.0,
        volume: Vec::new(),
        imbalance_pct: Vec::new(),
    };
    let mut i = 0u64;
    while i < min_jobs(w) || start.elapsed().as_secs_f64() < a.seconds {
        let (r, t) = timed(|| decompose_job(w, &input, &path, job_seed(a.seed, i), threads()));
        if let Some(out) = rep.record(r) {
            e.job_s.push(t);
            if i < min_jobs(w) {
                e.volume.push(out.volume as f64);
                e.imbalance_pct.push(out.imbalance_pct);
            }
        }
        host.between_jobs();
        i += 1;
    }
    e.loop_wall_s = start.elapsed().as_secs_f64() - (host.spent_s() - probed_before);
    let pins = pipeline::model_pins(&path, input.model);
    rep.fact_num("hypergraph_pins", pins.unwrap_or(0) as f64);
    emit_end_to_end(w, &e, Some(&host), rep);
    Ok(None)
}

fn run_decompose_traced(
    a: &Args,
    input: &FileInput,
    path: &Path,
    setup_s: Vec<f64>,
    reference: Option<JobOut>,
    rep: &mut Report,
) -> Result<Trace, String> {
    let w = a.workload;
    let start = Instant::now();
    let mut layers = Layers::default();
    rep.fact("setup_s", summary(&setup_s));

    // Whole-call and baseline rows, outside the job spans.
    let s0 = job_seed(a.seed, 0);
    let decompose: Vec<f64> = (0..2)
        .filter_map(|_| {
            rep.record(pipeline::time_decompose(
                path,
                input.model,
                input.k,
                s0,
                threads(),
            ))
        })
        .collect();
    layers.set("core.decompose_s", median(&decompose));
    if let Some(t) = rep.record(pipeline::partition_only(
        path,
        input.model,
        input.k,
        s0,
        Parallelism::Serial,
    )) {
        layers.set("partition.serial_s", t);
    }
    let k2: Vec<f64> = (0..3)
        .filter_map(|_| {
            rep.record(pipeline::partition_only(
                path,
                input.model,
                2,
                s0,
                threads(),
            ))
        })
        .collect();
    layers.set("partition.bisect_k2_s", median(&k2));

    let spans = Spans::collecting();
    let mut outs = Vec::new();
    let mut untraced = Vec::new();
    let mut i = 0u64;
    while i < TRACED_MIN_JOBS || start.elapsed().as_secs_f64() < a.seconds {
        let seed = job_seed(a.seed, i / 2);
        if i.is_multiple_of(2) {
            let root = spans.root(JOB);
            let r = staged_job(w, input, path, seed, &root.handle());
            drop(root);
            if let Some(out) = rep.record(r) {
                // The staged form must reproduce the whole call's answer.
                if i == 0 {
                    if let Some(t) = &reference {
                        if t.volume != out.volume || t.owners != out.owners {
                            rep.fail(format!(
                                "staged job volume {} != decompose_workload_any volume {}",
                                out.volume, t.volume
                            ));
                        }
                    }
                }
                outs.push(out);
            }
        } else {
            let (r, t) = timed(|| staged_job(w, input, path, seed, &SpanHandle::noop()));
            if rep.record(r).is_some() {
                untraced.push(t);
            }
        }
        i += 1;
    }
    let trace = spans.finish();
    let jobs = account(&trace, JOB);
    let traced: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    layers.accounting(&jobs);
    layers.overhead(&traced, &untraced);
    layers.parse(&jobs, file_bytes(path));
    layers.span("sparse.to_csr_s", &jobs, "sparse.to_csr");
    layers.span("core.model_build_s", &jobs, "core.model_build");
    layers.span("core.decode_s", &jobs, "core.decode");
    layers.span("core.objective_s", &jobs, "core.objective");
    layers.span("partition.partition_s", &jobs, "partition.partition");
    let med = |f: &dyn Fn(&JobOut) -> f64| median(&outs.iter().map(f).collect::<Vec<_>>());
    layers.set("core.model_pins", med(&|o| o.pins as f64));
    layers.set("core.msgs_total", med(&|o| o.msgs_total as f64));
    layers.set("core.max_proc_words", med(&|o| o.max_proc_words as f64));
    layers.set("core.imbalance_pct", med(&|o| o.imbalance_pct));
    layers.engine(&outs.iter().map(|o| o.engine).collect::<Vec<_>>());
    match w {
        Workload::DecomposeSpmv => {
            layers.span("spmv.plan_build_s", &jobs, "spmv.plan_build");
            layers.span("spmv.validate_s", &jobs, "spmv.validate");
            layers.span("spmv.multiply_s", &jobs, "spmv.multiply");
            layers.span("spmv.expand_s", &jobs, "expand");
            layers.span("spmv.local_mult_s", &jobs, "local-mult");
            layers.span("spmv.fold_s", &jobs, "fold");
            let mult = samples_of(&jobs, "spmv.multiply");
            let nnz = med(&|o| o.nnz as f64);
            layers.set("spmv.multiply_ns_per_nnz", median(&mult) * 1e9 / nnz);
            layers.set("spmv.words_per_multiply", med(&|o| o.plan_words as f64));
            layers.set("spmv.msgs_per_multiply", med(&|o| o.plan_msgs as f64));
            layers.set("spmv.abg_predicted_s", med(&|o| o.abg_predicted_s));
        }
        _ => {
            layers.span("traffic.simulate_s", &jobs, "traffic.simulate");
            layers.span("traffic.verify_s", &jobs, "traffic.verify");
            layers.set("traffic.remote_words", med(&|o| o.volume as f64));
        }
    }
    rep.fact("traced_jobs", Value::Num(jobs.len() as f64));
    rep.fact("untraced_jobs", Value::Num(untraced.len() as f64));
    rep.fact("traced_job_wall_s", summary(&traced));
    rep.fact("untraced_job_wall_s", summary(&untraced));
    layers.emit(rep);
    Ok(trace)
}

/// The cg-solve system: a `side`×`side` grid Laplacian at `k` parts.
fn cg_input(tiny: bool) -> (u32, u32) {
    if tiny {
        (24, 8)
    } else {
        (150, 64)
    }
}

fn write_grid(work: &Path, side: u32) -> Result<PathBuf, String> {
    let a = gen::grid5(
        side,
        side,
        1.0,
        ValueMode::Laplacian,
        &mut rand::rngs::SmallRng::seed_from_u64(1),
    );
    let path = work.join("grid5.mtx");
    fgh_sparse::io::write_matrix_market(&a, &path).map_err(|e| e.to_string())?;
    Ok(path)
}

fn run_cg(a: &Args, work: &Path, rep: &mut Report) -> Result<Option<Trace>, String> {
    let (side, k) = cg_input(a.tiny);
    let mut host = HostProbe::new();
    let spans = Spans::collecting();
    let mut setup_s = Vec::new();
    let mut sys = None;
    let (mut volume, mut imbalance_pct) = (Vec::new(), Vec::new());
    for rep_no in 0..setup_reps(a.workload) {
        // Each set-up partitions with its own seed; the last one's plan
        // serves the solves.
        let part_seed = mix(a.seed, 0xc6 + rep_no);
        let root = a.trace.then(|| spans.root("setup"));
        let scope = root.as_ref().map_or_else(SpanHandle::noop, |r| r.handle());
        let (r, t) = timed(|| -> Result<_, String> {
            let path = write_grid(work, side)?;
            let s = pipeline::cg_setup(&path, k, part_seed, threads(), &scope)?;
            Ok((path, s))
        });
        drop(root);
        let (path, s) = r?;
        volume.push(s.out.volume as f64);
        imbalance_pct.push(s.out.imbalance_pct);
        sys = Some((path, s));
        setup_s.push(t);
        host.between_jobs();
    }
    let (path, sys) = sys.expect("at least one set-up");
    rep.fact(
        "matrix",
        Value::Str(format!("grid5 {side}x{side} Laplacian")),
    );
    rep.fact_num("k", k as f64);
    rep.fact_num("nnz", sys.a.nnz() as f64);
    rep.fact_num("file_bytes", file_bytes(&path) as f64);
    rep.fact_num("hypergraph_pins", sys.out.pins as f64);

    let start = Instant::now();
    let probed_before = host.spent_s();
    let mut job_s = Vec::new();
    let mut iterations = Vec::new();
    let mut untraced = Vec::new();
    let mut probes = Vec::new();
    let mut i = 0u64;
    while i < min_jobs(a.workload) || start.elapsed().as_secs_f64() < a.seconds {
        let rhs_seed = mix(a.seed, 0x5011 + i);
        let traced = a.trace && i.is_multiple_of(2);
        let root = traced.then(|| spans.root(JOB));
        let scope = root.as_ref().map_or_else(SpanHandle::noop, |r| r.handle());
        let (r, t) = timed(|| pipeline::cg_job(&sys, rhs_seed, &scope));
        drop(root);
        if let Some(its) = rep.record(r) {
            if i < min_jobs(a.workload) {
                iterations.push(its as f64);
            }
            if !traced {
                untraced.push(t);
            }
            job_s.push(t);
        }
        if traced {
            // One more multiply, outside the job, for the executor's
            // phase split.
            let x = util::seeded_vector(rhs_seed, sys.a.nrows() as usize);
            let root = spans.root("multiply");
            let m = {
                let s = root.child("spmv.multiply");
                sys.plan.multiply_traced(&x, &s.handle())
            };
            drop(root);
            if let Some((_, comm)) = rep.record(m.map_err(|e| e.to_string())) {
                probes.push(comm);
            }
        }
        host.between_jobs();
        i += 1;
    }
    let loop_wall_s = start.elapsed().as_secs_f64() - (host.spent_s() - probed_before);
    rep.fact_num("cg_iterations", median(&iterations));

    if !a.trace {
        let e = EndToEnd {
            setup_s,
            job_s,
            loop_wall_s,
            volume,
            imbalance_pct,
        };
        emit_end_to_end(a.workload, &e, Some(&host), rep);
        return Ok(None);
    }

    rep.fact("setup_s", summary(&setup_s));
    let trace = spans.finish();
    let jobs = account(&trace, JOB);
    let setups = account(&trace, "setup");
    let multiplies = account(&trace, "multiply");
    let mut layers = Layers::default();
    layers.accounting(&jobs);
    layers.overhead(
        &jobs.iter().map(|j| j.wall_s).collect::<Vec<_>>(),
        &untraced,
    );
    layers.parse(&setups, file_bytes(&path));
    layers.span("sparse.to_csr_s", &setups, "sparse.to_csr");
    layers.span("core.model_build_s", &setups, "core.model_build");
    layers.span("core.decode_s", &setups, "core.decode");
    layers.span("core.objective_s", &setups, "core.objective");
    layers.span("partition.partition_s", &setups, "partition.partition");
    layers.span("spmv.plan_build_s", &setups, "spmv.plan_build");
    layers.span("spmv.validate_s", &setups, "spmv.validate");
    layers.set("core.model_pins", sys.out.pins as f64);
    layers.set("core.msgs_total", sys.out.msgs_total as f64);
    layers.set("core.max_proc_words", sys.out.max_proc_words as f64);
    layers.set("core.imbalance_pct", sys.out.imbalance_pct);
    layers.engine(&[sys.out.engine]);
    layers.span("spmv.solve_s", &jobs, "spmv.solve");
    layers.set("spmv.cg_iterations", median(&iterations));
    layers.span("spmv.multiply_s", &multiplies, "spmv.multiply");
    layers.span("spmv.expand_s", &multiplies, "expand");
    layers.span("spmv.local_mult_s", &multiplies, "local-mult");
    layers.span("spmv.fold_s", &multiplies, "fold");
    let mult = samples_of(&multiplies, "spmv.multiply");
    layers.set(
        "spmv.multiply_ns_per_nnz",
        median(&mult) * 1e9 / sys.a.nnz() as f64,
    );
    let words: Vec<f64> = probes.iter().map(|c| c.total_words() as f64).collect();
    let msgs: Vec<f64> = probes.iter().map(|c| c.total_messages() as f64).collect();
    layers.set("spmv.words_per_multiply", median(&words));
    layers.set("spmv.msgs_per_multiply", median(&msgs));
    layers.set(
        "spmv.abg_predicted_s",
        fgh_spmv::estimate(&sys.plan, &fgh_spmv::MachineModel::modern_cluster()).t_parallel(),
    );
    rep.fact("traced_jobs", Value::Num(jobs.len() as f64));
    rep.fact("untraced_jobs", Value::Num(untraced.len() as f64));
    layers.emit(rep);
    Ok(Some(trace))
}

fn run_serve(a: &Args, rep: &mut Report) -> Result<Option<Trace>, String> {
    let mix_cfg = if a.tiny {
        serve_mix::TINY
    } else {
        serve_mix::FULL
    };
    rep.fact(
        "mix",
        Value::Str(format!(
            "{}: spmv scale {} K={}, spgemm scale {} K={}, {} workers, {} clients",
            mix_cfg.matrix,
            mix_cfg.spmv_scale,
            mix_cfg.spmv_k,
            mix_cfg.spgemm_scale,
            mix_cfg.spgemm_k,
            serve_mix::WORKERS,
            serve_mix::CLIENTS
        )),
    );
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..setup_reps(a.workload) {
        if let Some(h) = server.take() {
            serve_mix::stop(h);
        }
        let (r, t) = timed(|| serve_mix::start_and_warm(&mix_cfg, a.seed));
        server = Some(r?);
        setup_s.push(t);
    }
    let server = server.expect("at least one set-up");
    let spans = Spans::collecting();
    let min_requests = serve_min_requests(a.tiny);
    let (done, wall) = serve_mix::run_loop(
        server.addr(),
        &mix_cfg,
        a.seed,
        a.seconds,
        min_requests,
        a.trace.then_some(&spans),
    );
    let snap = serve_mix::stop(server);

    let mut shed = 0u64;
    let mut job_s = Vec::new();
    for d in &done {
        rep.attempted += 1;
        match &d.outcome {
            Ok(()) => job_s.push(d.latency_s),
            Err(e) => {
                if e.contains("overloaded") {
                    shed += 1;
                }
                rep.fail(format!("request {}: {e}", d.index));
            }
        }
    }
    for i in serve_mix::inconsistent_repeats(&done) {
        rep.fail(format!(
            "request {i}: volume differs from its key's first response"
        ));
    }
    // The unique SpMV requests of the prefix every run completes give
    // the quality numbers (the repeats are only HIT_KEYS partitions).
    let quality: Vec<&serve_mix::Done> = done
        .iter()
        .filter(|d| d.kind == serve_mix::Kind::Unique && d.index < min_requests)
        .collect();
    rep.fact_num("requests", done.len() as f64);
    rep.fact_num("server_completed", snap.completed as f64);
    rep.fact_num(
        "server_rejected_overloaded",
        snap.rejected_overloaded as f64,
    );
    rep.fact_num("server_cache_hits", snap.cache_hits as f64);
    rep.fact_num("server_cache_misses", snap.cache_misses as f64);

    let p50_ms = |pred: &dyn Fn(&serve_mix::Done) -> bool| {
        let xs: Vec<f64> = done
            .iter()
            .filter(|d| d.outcome.is_ok() && pred(d))
            .map(|d| d.latency_s * 1e3)
            .collect();
        (median(&xs), xs.len())
    };
    let classes = [
        ("hit", p50_ms(&|d| d.cache == "hit")),
        ("miss", p50_ms(&|d| d.cache == "miss")),
        ("spgemm", p50_ms(&|d| d.kind == serve_mix::Kind::Spgemm)),
        ("batch", p50_ms(&|d| d.kind == serve_mix::Kind::Batch)),
    ];
    for (name, (_, n)) in &classes {
        rep.fact_num(&format!("{name}_requests"), *n as f64);
    }

    if !a.trace {
        let e = EndToEnd {
            setup_s,
            job_s,
            loop_wall_s: wall,
            volume: quality
                .iter()
                .filter_map(|d| d.volume.map(|v| v as f64))
                .collect(),
            imbalance_pct: quality.iter().filter_map(|d| d.imbalance_pct).collect(),
        };
        emit_end_to_end(a.workload, &e, None, rep);
        return Ok(None);
    }

    rep.fact("setup_s", summary(&setup_s));
    let trace = spans.finish();
    let jobs = account(&trace, JOB);
    let mut layers = Layers::default();
    layers.accounting(&jobs);
    // Traced and untraced requests alternate by whole blocks, which hold
    // the same kinds in the same shares; only complete pairs of blocks
    // enter the ratio, so both sides carry the same mix.
    let pair = 2 * serve_mix::BLOCK;
    let paired = done.len() as u64 / pair * pair;
    let walls = |traced: bool| -> Vec<f64> {
        done.iter()
            .filter(|d| d.index < paired && d.traced == traced)
            .map(|d| d.wall_s)
            .collect()
    };
    layers.overhead(&walls(true), &walls(false));
    let [hit, miss, spgemm, batch] = classes;
    layers.set("serve.hit_ms_p50", hit.1 .0);
    layers.set("serve.miss_ms_p50", miss.1 .0);
    layers.set("serve.spgemm_ms_p50", spgemm.1 .0);
    layers.set("serve.batch_ms_p50", batch.1 .0);
    let (hits, misses) = (hit.1 .1 as f64, miss.1 .1 as f64);
    layers.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    layers.set("serve.shed", shed as f64);
    layers.set("serve.completed", snap.completed as f64);
    layers.set("serve.queue_peak_depth", snap.queue_peak_depth as f64);
    layers.emit(rep);
    Ok(Some(trace))
}
