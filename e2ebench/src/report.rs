//! Result assembly shared by every workload: the metric catalogue, the
//! final JSON line, the host fingerprint, and small statistics helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The end-to-end metrics, `(name, unit)`, printed by every untraced run.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, `(name, unit)`, printed by every traced run.
/// Must match `per_layer` in `BENCHMARK.json`. A traced run reports 0 for
/// the layers its own breakdown does not reach (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // paper_grid: the grid's cells replayed through public calls.
    ("workloads.build.calls", "count"),
    ("workloads.build.ns", "ns"),
    ("sim.compile.calls", "count"),
    ("sim.compile.ns", "ns"),
    ("sim.compile.guest_ops", "count"),
    ("siloz.boot.calls", "count"),
    ("siloz.boot.ns", "ns"),
    ("sim.bind.calls", "count"),
    ("sim.bind.ns", "ns"),
    ("memctrl.replay.calls", "count"),
    ("memctrl.replay.ns", "ns"),
    ("memctrl.replay.ops", "count"),
    ("memctrl.row_hit_ratio", "ratio"),
    ("mitigation.blockhammer.ns_per_act", "ns"),
    ("mitigation.breakhammer.ns_per_act", "ns"),
    ("mitigation.acts", "count"),
    // fleet_churn: each step() attributed by the counter it advanced.
    ("fleet.arrive.count", "count"),
    ("fleet.arrive.ns", "ns"),
    ("fleet.arrive.p50_us", "us"),
    ("fleet.depart.count", "count"),
    ("fleet.depart.ns", "ns"),
    ("fleet.depart.p50_us", "us"),
    ("fleet.expand.count", "count"),
    ("fleet.expand.ns", "ns"),
    ("fleet.expand.p50_us", "us"),
    ("fleet.slice.count", "count"),
    ("fleet.slice.ns", "ns"),
    ("fleet.slice.p50_us", "us"),
    ("fleet.attack.count", "count"),
    ("fleet.attack.ns", "ns"),
    ("fleet.attack.p50_us", "us"),
    ("fleet.defrag.count", "count"),
    ("fleet.defrag.ns", "ns"),
    ("fleet.defrag.p50_us", "us"),
    ("fleet.other.count", "count"),
    ("fleet.other.ns", "ns"),
    ("analysis.proof.ns", "ns"),
    ("analysis.proof.full", "count"),
    ("analysis.proof.incremental", "count"),
    ("analysis.proof.fast_ratio", "ratio"),
    ("fleet.rebind_ratio", "ratio"),
    ("fleet.admit_ratio", "ratio"),
    ("hammer.flips", "count"),
    ("siloz.cof_migrated", "count"),
    ("siloz.defrag_oom", "count"),
    // cluster_churn: one span per epoch, split by the engine's own
    // phase clocks.
    ("cluster.new.ns", "ns"),
    ("cluster.epoch.count", "count"),
    ("cluster.epoch.ns", "ns"),
    ("cluster.epoch.p50_us", "us"),
    ("cluster.scheduler.ns", "ns"),
    ("cluster.sync.ns", "ns"),
    ("cluster.hosts.ns", "ns"),
    ("cluster.defrag_epoch.count", "count"),
    ("cluster.defrag_epoch.ns", "ns"),
    ("cluster.final.ns", "ns"),
    ("cluster.scheduler.placements", "count"),
    ("cluster.scheduler.rejects", "count"),
    ("cluster.migrations", "count"),
    ("cluster.pending.skipped_retries", "count"),
    ("cluster.ledger_reuse_ratio", "ratio"),
    // Every workload: its simulated refusals, the share of the traced
    // wall time no span covers, and the cost of tracing itself.
    ("fail_frac", "ratio"),
    ("unattributed_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// What one run produced: the operations it attempted, every failed
/// output check, and its metrics by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric; the name must be in the catalogue.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "{name} is not a catalogued metric"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Prints the result line and returns the process exit code. A run
    /// with a failed check counts every attempted operation as failed.
    pub fn finish(mut self, trace: bool) -> i32 {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for &(name, _) in catalogue {
            if trace {
                self.metrics.entry(name).or_insert(0.0);
            } else if !self.metrics.contains_key(name) && self.failures.is_empty() {
                self.failures
                    .push(format!("metric {name} was not measured"));
            }
        }
        let attempted = self.attempted.max(1);
        let correct = self.failures.is_empty();
        for failure in &self.failures {
            println!("check failed: {failure}");
        }
        let mut metrics = String::new();
        for &(name, unit) in catalogue {
            let Some(&value) = self.metrics.get(name) else {
                continue;
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            if correct { 0 } else { attempted }
        );
        println!("{line}");
        i32::from(!correct)
    }
}

/// Prints the host fingerprint every result set carries: cores, CPU
/// model, the compiler that built this binary, the commit (when the
/// checkout is a git work tree), and the worker threads used.
pub fn print_fingerprint(workload: &str, workers: usize) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    println!(
        "fingerprint workload={workload} nproc={nproc} workers={workers} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        env!("E2EBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "unknown".into())
    );
}

/// The checked-out commit, read from `.git` in the working directory
/// without leaving it.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile `p` (0..=100) of `samples` (sorted in place).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place): the mean of the middle pair for
/// an even count.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Wall time, seconds, of one call of `f`, averaged over `batch` calls
/// (a batch times a sub-microsecond set-up above the clock's
/// resolution). Workloads take these samples spread across a run, since
/// this host's speed shifts between states within a fraction of a
/// second, and report their median.
pub fn time_secs<T>(batch: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() / batch as f64
}

/// The `k`-th sub-seed of a run's `--seed` (SplitMix64 finalizer), so one
/// run can drive several independent scenarios reproducibly.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64 over a rendering of simulated output: two runs did the same
/// simulated work exactly when their digests agree.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Reads a deterministic counter at `path` (e.g. `["cluster", "hosts",
/// "ctrl"]`, `"accesses"`) from a snapshot; absent counters read 0.
pub fn counter(snap: &telemetry::Snapshot, path: &[&str], metric: &str) -> u64 {
    let mut node = snap;
    for seg in path {
        match node.children.get(*seg) {
            Some(child) => node = child,
            None => return 0,
        }
    }
    match node.metrics.get(metric) {
        Some(telemetry::MetricValue::Counter { value, .. }) => *value,
        _ => 0,
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 90.0), 90.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }
}
