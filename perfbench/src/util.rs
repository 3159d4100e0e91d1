//! Small helpers shared by the workloads: command-line parsing, order
//! statistics, the session stagger schedule, process memory and the result
//! line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every pinned thread count in the benchmark. The host this benchmark was
/// written on has two vCPUs; pinning keeps the load the same on any host.
pub const THREADS: usize = 2;

/// Samples between two window completions of one session: the served
/// window configuration's `sent_stride * word_stride`.
pub const STRIDE: usize = 6;

/// Returns the value of `--key value`.
pub fn opt(args: &[String], key: &str) -> Option<String> {
    let flag = format!("--{key}");
    let i = args.iter().position(|a| *a == flag)?;
    args.get(i + 1).cloned()
}

/// Parses a required `--key` value.
pub fn req<T: std::str::FromStr>(args: &[String], key: &str) -> Result<T, String> {
    let v = opt(args, key).ok_or_else(|| format!("missing --{key}"))?;
    v.parse()
        .map_err(|_| format!("bad value for --{key}: `{v}`"))
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. `p` in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median as the nearest-rank 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Width in seconds of the time slices whose median gives a serving run's
/// figures.
pub const SLICE_S: f64 = 0.5;

/// Groups timed events `(seconds since start, value)` into consecutive
/// slices of `width` seconds covering `[0, span)`; a trailing partial slice
/// is dropped. Per-slice figures, summarised by their median, keep a short
/// stall of a shared host from moving a whole run's figure.
pub fn slices(events: &[(f64, f64)], width: f64, span: f64) -> Vec<Vec<f64>> {
    let n = (span / width).floor() as usize;
    let mut out = vec![Vec::new(); n];
    for &(t, v) in events {
        let i = (t / width).floor();
        if i >= 0.0 && (i as usize) < n {
            out[i as usize].push(v);
        }
    }
    out
}

/// Stagger phase of session `k`: phases are dealt round-robin over the
/// window stride, so `S` sessions spread as evenly as they can.
pub fn phase(k: usize) -> usize {
    k % STRIDE
}

/// Samples session `k` receives before the first steady round: one full
/// window plus its phase, so its first steady completion falls `STRIDE -
/// phase` rounds in.
pub fn prefix_len(k: usize, window: usize) -> usize {
    window + phase(k)
}

/// Whether session `k` completes a window on steady round `t` (rounds
/// counted from 0 after every session received its prefix).
pub fn completes(k: usize, t: usize) -> bool {
    (phase(k) + t + 1).is_multiple_of(STRIDE)
}

/// Whether the push that brings a session to `seen` samples completes a
/// window, for a window of `window` samples.
pub fn completes_at(seen: usize, window: usize) -> bool {
    seen >= window && (seen - window).is_multiple_of(STRIDE)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one) in
/// MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A splitmix64 stream: the benchmark's only source of seeded choices.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `k` distinct indices below `n` (all of them when `k >= n`), sorted.
    pub fn sample(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + (self.next_u64() % (n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in print order.
pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn put(m: &mut Metrics, name: &'static str, value: f64, unit: &'static str) {
    m.insert(name, Metric { value, unit });
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A float in JSON syntax with every digit Rust's shortest round-trip
/// formatting gives it (`null` if it is not finite).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// `nproc` and the SIMD tiers the GEMM kernels can dispatch to.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    #[cfg(target_arch = "x86_64")]
    let tiers = {
        let mut t = Vec::new();
        if std::is_x86_feature_detected!("avx2") {
            t.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            t.push("fma");
        }
        if std::is_x86_feature_detected!("f16c") {
            t.push("f16c");
        }
        if std::is_x86_feature_detected!("avx512f") {
            t.push("avx512f");
        }
        t.join(",")
    };
    #[cfg(not(target_arch = "x86_64"))]
    let tiers = String::from("none");
    format!("host: nproc={nproc} simd={tiers}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_known_answers() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_never_below_p50() {
        let mut rng = SplitMix::new(11);
        for n in 1..200 {
            let xs: Vec<f64> = (0..n)
                .map(|_| (rng.next_u64() % 10_000) as f64 / 7.0)
                .collect();
            assert!(percentile(&xs, 90.0) >= percentile(&xs, 50.0), "n={n}");
            assert!(percentile(&xs, 99.0) >= percentile(&xs, 90.0), "n={n}");
        }
    }

    #[test]
    fn slices_group_by_time_and_drop_the_partial_tail() {
        let ev = [
            (0.1, 1.0),
            (0.4, 2.0),
            (0.6, 3.0),
            (1.2, 4.0),
            (1.9, 5.0),
            (2.1, 6.0),
        ];
        let s = slices(&ev, 0.5, 2.2);
        assert_eq!(s, vec![vec![1.0, 2.0], vec![3.0], vec![4.0], vec![5.0]]);
        assert!(slices(&ev, 0.5, 0.4).is_empty());
    }

    #[test]
    fn stagger_completes_floor_or_ceil_of_s_over_stride_per_round() {
        for sessions in 1..=130 {
            let lo = sessions / STRIDE;
            let hi = sessions.div_ceil(STRIDE);
            let mut total = 0;
            for t in 0..4 * STRIDE {
                let n = (0..sessions).filter(|&k| completes(k, t)).count();
                assert!(n == lo || n == hi, "S={sessions} t={t}: {n} windows");
                total += n;
            }
            // Every session completes exactly once per stride.
            assert_eq!(total, 4 * sessions);
        }
    }

    #[test]
    fn stagger_matches_session_window_arithmetic() {
        let window = 10;
        for k in 0..24 {
            for t in 0..3 * STRIDE {
                let seen = prefix_len(k, window) + t + 1;
                assert_eq!(completes(k, t), completes_at(seen, window), "k={k} t={t}");
            }
        }
    }

    #[test]
    fn seeded_sample_is_distinct_sorted_and_reproducible() {
        let a = SplitMix::new(5).sample(100, 10);
        let b = SplitMix::new(5).sample(100, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(SplitMix::new(5).sample(3, 10), vec![0, 1, 2]);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::new();
        put(&mut m, "latency_ms", 1.2034567890123, "ms");
        put(&mut m, "big", 1e21, "count");
        let line = result_line(true, 10, 0, &m);
        assert!(line.contains("\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}"));
        assert!(line.contains("\"value\": 1e21"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
    }
}
