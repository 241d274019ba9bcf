//! Order statistics and the deterministic hash-based random source the
//! request generators draw from.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `+inf` entries
/// (failed requests) sort last. 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64 finaliser: a stateless hash from which every generated input
/// is drawn, so request `i` of a workload depends only on `(seed, i)`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of a tuple of words.
pub fn mix_all(words: &[u64]) -> u64 {
    words.iter().fold(0x5EED_u64, |h, &w| mix(h ^ w))
}

/// Uniform `[0, 1)` from a hash.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Inverse-CDF Zipf sampler over ranks `0..k` (weight `1/(r+1)^s`).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(k: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..k)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn rank(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        let with_failure = [1.0, 2.0, f64::INFINITY];
        assert_eq!(quantile(&with_failure, 1.0), f64::INFINITY);
    }

    #[test]
    fn zipf_head_is_heaviest() {
        let z = Zipf::new(4, 1.0);
        let mut counts = [0usize; 4];
        for i in 0..10_000u64 {
            counts[z.rank(unit(mix(i)))] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
    }
}
