//! Seeded generators, percentiles and the small JSON writer the report
//! uses. Nothing here touches the system under test.

use std::fmt::Write as _;

/// SplitMix64: the benchmark's only source of randomness, so one
/// `--seed` fixes every generated op stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of the run (client `stream`), so each
    /// client thread's ops depend only on the seed and its index.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `len`-byte payload (`len` a multiple of 8) that carries `tag`:
/// little-endian word `i` is `tag × (2i + 1)`. Tag 0 is all zeros. For a
/// tag whose low 48 bits are not all zero, distinct tags differ in every
/// word and each word differs from the other words of its own pattern,
/// so a stale, torn or misplaced read does not pass for a written one.
pub fn pattern(tag: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    for i in 0..(len / 8) as u64 {
        v.extend_from_slice(&tag.wrapping_mul(2 * i + 1).to_le_bytes());
    }
    v
}

/// The tag `data` carries when it is one whole [`pattern`].
pub fn pattern_tag(data: &[u8]) -> Option<u64> {
    if data.len() < 8 || !data.len().is_multiple_of(8) {
        return None;
    }
    let tag = u64::from_le_bytes(data[..8].try_into().expect("eight bytes"));
    data.chunks_exact(8)
        .zip((0u64..).map(|i| tag.wrapping_mul(2 * i + 1)))
        .all(|(w, want)| w == want.to_le_bytes())
        .then_some(tag)
}

/// Zipf(s) over ranks `0..n`, sampled by inverting the cumulative
/// distribution with a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Samples that must lie strictly beyond a percentile before it is
/// reported: fewer means the tail is a handful of events, not a measured
/// percentile.
pub const MIN_BEYOND: u64 = 10;

/// Sub-buckets per power of two: values are kept to within 1/128.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear latency histogram: constant memory however long the run,
/// so the harness's own footprint does not grow into `peak_rss_mb`.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let shift = e - SUB_BITS;
        (SUB + u64::from(shift) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = (i - SUB) / SUB;
        let m = SUB + (i - SUB) % SUB;
        ((m << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, v: u64) {
        let i = Self::index(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
        self.sum += u128::from(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile (0 < q < 1) by the nearest-rank rule,
    /// interpolated inside its bucket, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        if self.n - rank < MIN_BEYOND {
            return None;
        }
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (lo, width) = Self::bucket(i);
                return Some(lo + width * ((rank - below) as f64 - 0.5) / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.n)
    }
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, 0 when the base is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
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

/// The host's aggregate CPU time counters (`/proc/stat`, in ticks):
/// `(steal, total)`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values cannot be represented and
/// are a bug in the metric that produced them).
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_carry_their_tag_and_nothing_else_passes() {
        let tag = (0xBEEF << 48) | 77;
        let p = pattern(tag, 1024);
        assert_eq!(p.len(), 1024);
        assert_eq!(pattern_tag(&p), Some(tag));
        assert_eq!(pattern_tag(&[0u8; 1024]), Some(0));
        // Torn between two writes, or shifted by a word: no tag.
        let mut torn = p.clone();
        torn[512..].copy_from_slice(&pattern(tag + 1, 1024)[512..]);
        assert_eq!(pattern_tag(&torn), None);
        assert_eq!(pattern_tag(&p[8..]), None);
        let mut flipped = p;
        flipped[700] ^= 1;
        assert_eq!(pattern_tag(&flipped), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hist = |n: u64| {
            let mut h = Hist::default();
            for v in 1..=n {
                h.record(v * 1000);
            }
            h
        };
        let h = hist(100);
        let p50 = h.quantile(0.5).expect("p50 of 100");
        assert!((p50 - 50_000.0).abs() < 50_000.0 / 100.0, "{p50}");
        // p99 of 100 samples has one sample beyond it: refused.
        assert_eq!(h.quantile(0.99), None);
        let p99 = hist(1000).quantile(0.99).expect("p99 of 1000");
        assert!((p99 - 990_000.0).abs() < 990_000.0 / 100.0, "{p99}");
        assert_eq!(hist(999).quantile(0.99), None);
        assert_eq!(Hist::default().quantile(0.5), None);
        assert_eq!(hist(4).mean(), 2_500.0);
    }

    #[test]
    fn hist_buckets_cover_every_value_in_order() {
        let mut last = 0;
        for v in (0..5000u64).chain([1 << 20, (1 << 40) + 12345, (1 << 50) + 7]) {
            let i = Hist::index(v);
            assert!(i >= last);
            last = i;
            let (lo, width) = Hist::bucket(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v} outside bucket {i}"
            );
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(1024, 0.9);
        let mut rng = Rng::stream(7, 0);
        let mut head = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Ranks 0..10 carry ~30% of the mass at s = 0.9, n = 1024.
        assert!((2_500..3_500).contains(&head), "head share {head}");
    }
}
