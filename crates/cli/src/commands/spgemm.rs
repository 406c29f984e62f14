//! `fgh spgemm` — partition the fine-grain SpGEMM task hypergraph of
//! `C = A · B`, replay the partition through the storage-traffic
//! simulator, and cross-check that the measured remote traffic equals
//! the model-predicted communication volume.

use fgh_core::{decompose_workload_any, CommSummary, WorkloadAny, WorkloadOutcome};

use crate::commands::{finish_outcome, load_matrix_any};
use crate::error::{CmdError, CmdResult};
use crate::opts::Opts;

pub fn run(args: &[String]) -> CmdResult {
    let o = Opts::parse(args)?;
    let (path_a, path_b) = o.one_or_two_positional("A.mtx [B.mtx]")?;
    let a = load_matrix_any(path_a)?;
    let b = match path_b {
        Some(p) => load_matrix_any(p)?,
        None => a.clone(), // one operand: the A·A product
    };
    let cfg = o.decompose_config_for("spgemm-fine-grain", o.parse_required("k")?)?;
    let workload = WorkloadAny::Spgemm(&a, &b);
    let out = finish_outcome(
        decompose_workload_any(workload, &cfg).and_then(WorkloadOutcome::into_spgemm),
        o.has("strict"),
    )?;

    if let Some(trace) = &out.trace {
        eprint!("{}", trace.render());
    }

    let report = fgh_traffic::simulate_any(&a, &b, &out.decomposition)
        .map_err(|e| CmdError::new(1, format!("traffic replay: {e}")))?;
    if report.total_remote() != out.stats.total_volume() {
        return Err(CmdError::new(
            1,
            format!(
                "traffic simulator measured {} remote words but the model predicted {} — \
                 the exactness invariant is broken",
                report.total_remote(),
                out.stats.total_volume()
            ),
        ));
    }

    println!(
        "A:                 {path_a} ({} x {}, {} nnz)",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );
    println!(
        "B:                 {} ({} x {}, {} nnz)",
        path_b.unwrap_or("= A"),
        b.nrows(),
        b.ncols(),
        b.nnz()
    );
    println!("model:             {}", cfg.model.name());
    println!("index width:       {} bits", out.width.bits());
    println!("processors:        {}", cfg.k);
    println!(
        "multiply tasks:    {} (flops)",
        out.decomposition.task_owner.len()
    );
    println!("objective:         {}", out.objective);
    println!("comm volume:       {} words", out.stats.total_volume());
    println!("  expand A:        {} words", out.stats.a_expand_volume);
    println!("  expand B:        {} words", out.stats.b_expand_volume);
    println!("  fold C:          {} words", out.stats.fold_volume);
    println!(
        "msgs/proc max:     {} ({} messages total)",
        out.stats.max_messages_per_proc(),
        out.stats.total_messages()
    );
    println!(
        "load imbalance:    {:.2}%",
        out.stats.load_imbalance_percent()
    );
    println!("simulated traffic (storage replay):");
    println!(
        "  A reads:         {} dram, {} remote",
        report.a.dram_reads, report.a.remote_reads
    );
    println!(
        "  B reads:         {} dram, {} remote",
        report.b.dram_reads, report.b.remote_reads
    );
    println!(
        "  C writes:        {} dram, {} remote",
        report.c.dram_writes, report.c.remote_writes
    );
    println!(
        "  total remote:    {} words (== predicted volume)",
        report.total_remote()
    );
    println!("partition time:    {:.3}s", out.elapsed.as_secs_f64());
    match out.status.reason() {
        Some(r) => println!("status:            degraded ({}): {r}", r.code()),
        None => println!("status:            full"),
    }

    if let Some(json_path) = o.get("metrics-json") {
        let out = WorkloadOutcome::Spgemm(out);
        let traffic = report.to_value();
        let doc = fgh_core::metrics_json(workload, &cfg, &out, Some(&traffic)) + "\n";
        std::fs::write(json_path, doc).map_err(|e| format!("{json_path}: {e}"))?;
        println!("metrics written:   {json_path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn workdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("fgh_cli_spgemm").join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn spgemm_partitions_two_operands_and_writes_metrics() {
        let dir = workdir("two");
        let dirs = dir.to_str().unwrap();
        crate::commands::gen::run(&args(&format!("bcspwr10 --scale 64 --out {dirs}"))).unwrap();
        let mtx = format!("{dirs}/bcspwr10_s64.mtx");
        let json = format!("{dirs}/metrics.json");
        run(&args(&format!("{mtx} {mtx} --k 4 --metrics-json {json}"))).unwrap();
        let doc = std::fs::read_to_string(&json).unwrap();
        let v = fgh_trace::json::parse(&doc).unwrap();
        fgh_core::validate_metrics_value(&v).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("spgemm"));
        let traffic = v.get("traffic").unwrap();
        assert_eq!(
            traffic.get("total_remote").unwrap().as_u64(),
            v.get("objective").unwrap().as_u64(),
            "simulated traffic must equal the partitioner's objective"
        );
    }

    #[test]
    fn spgemm_single_operand_squares_the_matrix() {
        let dir = workdir("square");
        let dirs = dir.to_str().unwrap();
        crate::commands::gen::run(&args(&format!("bcspwr10 --scale 64 --out {dirs}"))).unwrap();
        run(&args(&format!("{dirs}/bcspwr10_s64.mtx --k 2"))).unwrap();
    }

    #[test]
    fn spgemm_rejects_bad_inputs() {
        assert!(run(&args("missing.mtx --k 4")).is_err());
        let dir = workdir("errors");
        let dirs = dir.to_str().unwrap();
        crate::commands::gen::run(&args(&format!("bcspwr10 --scale 64 --out {dirs}"))).unwrap();
        let mtx = format!("{dirs}/bcspwr10_s64.mtx");
        // Missing --k and an SpMV-only model are both typed errors.
        assert!(run(&args(&mtx)).is_err());
        assert!(run(&args(&format!("{mtx} --k 4 --model graph-1d"))).is_err());
    }
}
