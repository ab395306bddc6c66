//! Order statistics, the seeded input generator and the JSON helpers.
//! Everything here is frozen with the benchmark: a change to the library
//! under test must not be able to move a number by changing how the
//! numbers are reduced.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so a missing layer reads as "did not run".
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Folds a repetition of the same operations into `times`: every
/// operation keeps the faster of its two times.
pub fn keep_fastest(times: &mut [f64], repetition: &[f64]) {
    assert_eq!(times.len(), repetition.len(), "a repetition has the same operations");
    for (t, &r) in times.iter_mut().zip(repetition) {
        *t = t.min(r);
    }
}

/// The share of a traced request's time that tracing added: the median
/// over requests of `(traced - plain) / traced`. The two passes send the
/// same requests, so pairing them cancels what the requests cost and the
/// median discards the pairs a neighbour's burst hit on either side.
pub fn paired_overhead_share(plain: &[f64], traced: &[f64]) -> f64 {
    let shares: Vec<f64> =
        plain.iter().zip(traced).filter(|(_, &t)| t > 0.0).map(|(&p, &t)| (t - p) / t).collect();
    median(&shares)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone and never on the library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// `n` picks (with repetition) from `pool`.
    pub fn picks(&mut self, pool: &[u32], n: usize) -> Vec<u32> {
        (0..n).map(|_| pool[self.below(pool.len())]).collect()
    }
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number for `v` with every digit it was measured with. JSON has
/// no NaN or infinity; those become `null` so a broken metric is visible
/// to the reader instead of producing an unparsable line.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark contract prescribes.
pub fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn keep_fastest_is_an_elementwise_minimum() {
        let mut t = [3.0, 1.0, 2.0];
        keep_fastest(&mut t, &[2.0, 4.0, 2.0]);
        assert_eq!(t, [2.0, 1.0, 2.0]);
    }

    #[test]
    fn paired_overhead_is_a_median_of_shares() {
        // Shares 0.2, 0.5 (a burst on the traced side), 0.0.
        assert_eq!(paired_overhead_share(&[8.0, 5.0, 4.0], &[10.0, 10.0, 4.0]), 0.2);
        assert_eq!(paired_overhead_share(&[], &[]), 0.0);
    }

    #[test]
    fn ratio_guards_the_empty_layer() {
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }

    #[test]
    fn splitmix_repeats_for_a_seed_and_stays_in_range() {
        let (mut a, mut b, mut c) = (SplitMix(7), SplitMix(7), SplitMix(8));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| a.below(10) < 10));
        assert!(a.picks(&[4, 5, 6], 50).iter().all(|v| (4..=6).contains(v)));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(4_300_000.0), "4300000");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let m = [Metric { name: "seps", unit: "edges/s", value: 2.5 }];
        assert_eq!(
            json_result(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"seps\": {\"value\": 2.5, \"unit\": \"edges/s\"}}}"
        );
        assert_eq!(json_metrics(&[]), "{}");
    }
}
