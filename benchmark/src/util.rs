//! Small shared helpers: order statistics, the FNV-1a result digest, the
//! environment record and `VmHWM`.

use std::process::Command;

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method), which is what the driver
/// uses for the run-to-run spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// FNV-1a over a sequence of `u64`s: the per-rep digest of a workload's
/// deterministic results.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn of(values: impl IntoIterator<Item = u64>) -> u64 {
        let mut d = Digest::default();
        for v in values {
            d.push(v);
        }
        d.0
    }
}

/// Whether `btc_wire`'s sha256 takes its SHA-NI path on this CPU (the
/// same feature test its private dispatch uses). Checksum numbers differ
/// several-fold without it, so every record carries the flag.
pub fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1")
            && std::arch::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and with what a record was measured.
pub struct Env {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub sha_ni: bool,
}

impl Env {
    pub fn capture() -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: command_line("rustc", &["-V"]),
            // The driver's checkout is not a git repository: "unknown" there.
            commit: command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            ),
            sha_ni: sha_ni(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"commit\": {}, \"wire.sha_ni\": {}}}",
            self.nproc,
            crate::json::quote(&self.rustc),
            crate::json::quote(&self.commit),
            u8::from(self.sha_ni)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(Digest::of([1, 2]), Digest::of([2, 1]));
        assert_eq!(Digest::of([7]), Digest::of([7]));
    }
}
