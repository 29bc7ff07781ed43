//! Result line, summary statistics, seeded draws and machine state.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run prints on its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one attempted job; a job that failed any check also counts as
    /// failed and is reported on stderr.
    pub fn job(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            eprintln!("job failed: {why}");
        }
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let correct = self.failed == 0 && self.attempted > 0;
        let _ = write!(
            s,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number as JSON; non-finite values become `null` (which the
/// smoke test rejects).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of `v`: the highest whole percentile `p` (at most 99) that still
/// has at least ten samples above it, and the sample at that rank. With
/// fewer than eleven samples there is no such percentile and the median
/// (`p` = 50) is returned instead.
pub fn tail(v: &[f64]) -> (f64, u32) {
    let n = v.len();
    if n < 11 {
        return (median(v), 50);
    }
    let p = ((100 * (n - 10)) / n).min(99) as u32;
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // nearest rank: at least p% of the samples lie at or below it
    let rank = (p as usize * n).div_ceil(100).max(1);
    (s[rank - 1], p)
}

/// SplitMix64: the seeded stream every input of a run is drawn from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The machine state the figures depend on, as one JSON object: core count,
/// CPU model, the solver build's SIMD width and intra-tile band count, and
/// the filesystem under the run directory (every commit pays an fsync there).
pub fn machine_json(run_dir: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let fs = Command::new("stat")
        .args(["-f", "-c", "%T"])
        .arg(run_dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cores\": {cores}, \"cpu_model\": {}, \"simd_lanes\": {}, \"intra_threads\": {}, \"run_dir_fs\": {}}}",
        json_str(&cpu),
        subsonic_solvers::kernels::simd_lanes(),
        subsonic_solvers::kernels::intra_threads(),
        json_str(&fs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let (x, p) = tail(&v);
        assert_eq!(p, 50);
        assert_eq!(x, 10.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (x, p) = tail(&v);
        assert_eq!(p, 99);
        assert_eq!(x, 990.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (2.0, 50));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::new();
        o.job(Ok(()));
        o.push("setup_s", 0.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
