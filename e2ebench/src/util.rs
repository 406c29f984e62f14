//! Seeds, order statistics, process memory and the result document.

use std::collections::BTreeMap;
use std::time::Instant;

use fgh_trace::json::Value;

/// SplitMix64: one well-mixed 64-bit value per input, so every input of
/// a run is a pure function of the workload seed and a tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic vector with entries in `[-1, 1)`.
pub fn seeded_vector(seed: u64, n: usize) -> Vec<f64> {
    (0..n as u64)
        .map(|i| (mix(seed, i) >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        .collect()
}

/// The `q`-quantile (`0 <= q <= 1`) of `xs` by linear interpolation
/// between order statistics; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median, quartiles and sample count of a timing, for the facts record.
pub fn summary(xs: &[f64]) -> Value {
    let mut m = BTreeMap::new();
    m.insert("n".into(), Value::Num(xs.len() as f64));
    m.insert("p25".into(), Value::Num(quantile(xs, 0.25)));
    m.insert("p50".into(), Value::Num(median(xs)));
    m.insert("p75".into(), Value::Num(quantile(xs, 0.75)));
    Value::Obj(m)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Everything one run reports: the operation tally, the named metrics
/// and the facts of the run (sizes, seeds, sample summaries).
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the facts record.
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    facts: BTreeMap<String, Value>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn fact(&mut self, name: &str, value: Value) {
        self.facts.insert(name.to_string(), value);
    }

    pub fn fact_num(&mut self, name: &str, value: f64) {
        self.fact(name, Value::Num(value));
    }

    /// Counts one operation; a failed one also records its message.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Marks an already-counted operation failed.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// The share of attempted operations that completed and verified.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut metrics = BTreeMap::new();
        for (name, value, unit) in &self.metrics {
            let mut m = BTreeMap::new();
            m.insert("value".into(), Value::Num(*value));
            m.insert("unit".into(), Value::Str((*unit).into()));
            metrics.insert(name.clone(), Value::Obj(m));
        }
        let all_finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut doc = BTreeMap::new();
        doc.insert(
            "correct".into(),
            Value::Bool(self.failed == 0 && self.attempted > 0 && all_finite),
        );
        doc.insert("attempted".into(), Value::Num(self.attempted as f64));
        doc.insert("failed".into(), Value::Num(self.failed as f64));
        doc.insert("metrics".into(), Value::Obj(metrics));
        Value::Obj(doc).to_json()
    }

    /// The facts line, printed before the result line and kept on disk.
    pub fn facts_json(&self) -> String {
        let mut facts = self.facts.clone();
        facts.insert("failed_share".into(), Value::Num(1.0 - self.ok_share()));
        facts.insert(
            "errors".into(),
            Value::Arr(self.errors.iter().cloned().map(Value::Str).collect()),
        );
        let mut doc = BTreeMap::new();
        doc.insert("facts".into(), Value::Obj(facts));
        Value::Obj(doc).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn seeds_are_stable() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        let v = seeded_vector(7, 100);
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
    }
}

/// A fixed memory probe that tracks how fast this host runs right now.
///
/// The host is a few vCPUs of a shared machine. The other tenants' use of
/// the shared cache and memory slows the memory-bound jobs here by up to
/// 2× for minutes at a time: longer than a run, so medians within a run
/// cannot average it out. Between jobs (never during one) the probe does
/// a fixed amount of the two kinds of memory work the jobs are bound by:
/// a dependent walk along a 16 MiB single-cycle permutation (latency, like
/// the partitioner) and streaming fills of two 11 MiB buffers (bandwidth,
/// like the executor's two K×n images per multiply). Each sample runs the
/// work twice and times the second pass, so its own data is as warm as
/// the host lets it be whatever the job before it touched. The buffers are
/// the benchmark's own and no library code runs in the probe, so a change
/// to the program cannot change its time; only the host can.
pub struct HostProbe {
    chain: Vec<u32>,
    images: [Vec<f64>; 2],
    samples: Vec<f64>,
    last: Instant,
    spent_s: f64,
}

impl HostProbe {
    /// Median probe time on the validation host (a 2-vCPU VM on a Xeon
    /// with 2 MiB L2 per core) in a quiet spell: timings divided by
    /// `factor()` read as seconds on that host.
    pub const REFERENCE_S: f64 = 0.025;
    /// At most one sample per this much wall time.
    const INTERVAL_S: f64 = 0.5;
    const CHAIN_LEN: usize = 1 << 22;
    const WALK_STEPS: usize = 100_000;
    const IMAGE_LEN: usize = 64 * 22_500;
    const FILLS: usize = 2;

    /// Builds the buffers (Sattolo's shuffle, so the permutation is one
    /// cycle through every entry) and takes the first sample.
    pub fn new() -> HostProbe {
        let mut chain: Vec<u32> = (0..Self::CHAIN_LEN as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..Self::CHAIN_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chain.swap(i, (x % i as u64) as usize);
        }
        let mut p = HostProbe {
            chain,
            images: [vec![0.0; Self::IMAGE_LEN], vec![0.0; Self::IMAGE_LEN]],
            samples: Vec::new(),
            last: Instant::now(),
            spent_s: 0.0,
        };
        p.sample();
        p
    }

    /// Memory the probe keeps resident for the whole run, in MB.
    pub fn resident_mb(&self) -> f64 {
        (self.chain.len() * 4 + 2 * Self::IMAGE_LEN * 8) as f64 / (1024.0 * 1024.0)
    }

    fn pass(&mut self) {
        let mut j = 0u32;
        for _ in 0..Self::WALK_STEPS {
            j = self.chain[j as usize];
        }
        std::hint::black_box(j);
        for _ in 0..Self::FILLS {
            let [x_image, y_image] = &mut self.images;
            x_image.iter_mut().for_each(|v| *v = f64::NAN);
            std::hint::black_box(&x_image);
            y_image.iter_mut().for_each(|v| *v = 0.0);
            std::hint::black_box(&y_image);
        }
    }

    /// Takes one sample: a warm-up pass, then a timed pass.
    pub fn sample(&mut self) {
        let start = Instant::now();
        self.pass();
        let (_, s) = timed(|| self.pass());
        self.samples.push(s);
        self.spent_s += start.elapsed().as_secs_f64();
        self.last = Instant::now();
    }

    /// Samples if `INTERVAL_S` has passed since the last sample.
    pub fn between_jobs(&mut self) {
        if self.last.elapsed().as_secs_f64() >= Self::INTERVAL_S {
            self.sample();
        }
    }

    /// Wall time spent probing so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// How much slower than the reference host this one ran over the run:
    /// the median timed pass over `REFERENCE_S`.
    pub fn factor(&self) -> f64 {
        median(&self.samples) / Self::REFERENCE_S
    }

    /// Every timed pass so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
