//! Closed-form answers the benchmark checks estimates against.

use pip_dist::special::normal_cdf;

fn std_normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// `P[X > c]` for `X ~ Normal(mu, sigma)`.
pub fn normal_tail(mu: f64, sigma: f64, c: f64) -> f64 {
    normal_cdf((mu - c) / sigma)
}

/// `E[X · 1{X > c}]` for `X ~ Normal(mu, sigma)`: the contribution of one
/// row to `expected_sum(x) ... WHERE x > c`, which is
/// `mu · P[X > c] + sigma · φ((c − mu) / sigma)`.
pub fn normal_partial_mean(mu: f64, sigma: f64, c: f64) -> f64 {
    let a = (c - mu) / sigma;
    mu * normal_tail(mu, sigma, c) + sigma * std_normal_pdf(a)
}

/// Normalized RMS error of `(estimate, exact)` pairs; pairs with a zero
/// exact value are skipped, non-finite estimates count as 100% error.
pub fn rms_rel_error(pairs: &[(f64, f64)]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for &(e, x) in pairs {
        if x == 0.0 {
            continue;
        }
        let rel = if e.is_finite() { (e - x) / x } else { 1.0 };
        acc += rel * rel;
        n += 1;
    }
    (acc / n.max(1) as f64).sqrt()
}
