//! Checks of the benchmark's own arithmetic: percentiles, exact answers,
//! and span self times.

use perfbench::exact::{normal_partial_mean, normal_tail, rms_rel_error};
use perfbench::stats::{beyond, highest_reportable, median, percentile, rank};
use perfbench::trace::{self_times, split, Span};

#[test]
fn percentile_rank_is_nearest_rank_in_integers() {
    assert_eq!(rank(200, 950), 190);
    assert_eq!(rank(199, 950), 190);
    assert_eq!(rank(1, 500), 1);
    assert_eq!(beyond(200, 950), 10);
    assert_eq!(beyond(199, 950), 9);
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&v, 500), 100.0);
    assert_eq!(percentile(&v, 950), 190.0);
    assert_eq!(percentile(&v, 999), 200.0);
    assert!(percentile(&[], 500).is_nan());
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn highest_reportable_percentile_keeps_ten_samples_beyond() {
    assert_eq!(highest_reportable(19), None);
    assert_eq!(highest_reportable(20), Some(500));
    assert_eq!(highest_reportable(100), Some(900));
    assert_eq!(highest_reportable(199), Some(900));
    assert_eq!(highest_reportable(200), Some(950));
    assert_eq!(highest_reportable(999), Some(950));
    assert_eq!(highest_reportable(1000), Some(990));
    assert_eq!(highest_reportable(10_000), Some(999));
    for n in 20..3000 {
        let p = highest_reportable(n).expect("n >= 20 supports the median");
        assert!(beyond(n, p) >= 10, "n={n} p={p}");
    }
}

/// Composite Simpson's rule over `[a, b]` with `n` (even) intervals.
fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    let h = (b - a) / n as f64;
    let inner: f64 = (1..n)
        .map(|i| f(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 })
        .sum();
    (f(a) + f(b) + inner) * h / 3.0
}

#[test]
fn truncated_normal_answers_match_numeric_integration() {
    for &(mu, sigma, c) in &[
        (15.0_f64, 2.0_f64, 12.0_f64),
        (15.0, 2.0, 15.0),
        (10.0, 1.0, 16.0),
        (19.5, 2.9, 12.3),
        (-3.0, 0.5, -2.0),
    ] {
        let pdf = |x: f64| {
            let z = (x - mu) / sigma;
            (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
        };
        let hi = mu + 12.0 * sigma;
        let lo = c.max(mu - 12.0 * sigma);
        let tail = simpson(pdf, lo, hi, 20_000);
        let partial = simpson(|x| x * pdf(x), lo, hi, 20_000);
        let got_tail = normal_tail(mu, sigma, c);
        let got_partial = normal_partial_mean(mu, sigma, c);
        assert!(
            (got_tail - tail).abs() <= 1e-9 + 1e-7 * tail,
            "tail {mu} {sigma} {c}: {got_tail} vs {tail}"
        );
        assert!(
            (got_partial - partial).abs() <= 1e-9 + 1e-7 * partial.abs(),
            "partial {mu} {sigma} {c}: {got_partial} vs {partial}"
        );
    }
}

#[test]
fn rms_rel_error_normalizes_and_counts_non_finite_as_total_error() {
    assert!((rms_rel_error(&[(1.1, 1.0), (0.8, 1.0)]) - 0.025_f64.sqrt()).abs() < 1e-12);
    assert_eq!(rms_rel_error(&[(f64::NAN, 2.0)]), 1.0);
    assert_eq!(rms_rel_error(&[(5.0, 0.0), (2.0, 2.0)]), 0.0);
}

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        request: 7,
        id,
        parent,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_times_and_remainder_sum_to_the_wire_latency() {
    // A fresh query: wire 100, replayed session 60 = parse 5 + optimize 5
    // + execute 40 (+10 session self); execute = query 10 + sample 25 + 5.
    let spans = vec![
        span(0, None, "request", 0, 100),
        span(1, Some(0), "session", 200, 260),
        span(2, Some(1), "parse", 300, 305),
        span(3, Some(1), "optimize", 310, 315),
        span(4, Some(1), "execute", 320, 360),
        span(5, Some(4), "query_phase", 320, 330),
        span(6, Some(4), "sample_phase", 330, 355),
    ];
    assert_eq!(self_times(&spans), vec![40, 10, 5, 5, 5, 10, 25]);
    let s = split(&spans);
    assert_eq!(s.wire_ns, 100);
    assert_eq!(s.layers["server"], 40);
    assert_eq!(s.layers["session"], 10);
    assert_eq!(s.layers["engine.parse"], 5);
    assert_eq!(s.layers["engine.optimize"], 5);
    assert_eq!(s.layers["engine.query_phase"], 10);
    assert_eq!(s.layers["sampling.sample_phase"], 25);
    // The execute glue is nobody's layer: it is the remainder.
    assert_eq!(s.remainder_ns, 5);
    assert_eq!(s.layers.values().sum::<u64>() as i64 + s.remainder_ns, 100);
}

#[test]
fn overlong_replays_give_a_negative_remainder() {
    // The replayed session (30) outlasts the wire request (20): the server
    // gets no self time and the 10 ns overhang is reported as remainder.
    let spans = vec![
        span(0, None, "request", 0, 20),
        span(1, Some(0), "session", 40, 70),
        span(2, Some(1), "parse", 80, 82),
        span(3, Some(1), "insert", 90, 110),
    ];
    assert_eq!(self_times(&spans), vec![0, 8, 2, 20]);
    let s = split(&spans);
    assert_eq!(s.layers["store.insert"], 20);
    assert_eq!(s.remainder_ns, -10);
    assert_eq!(
        s.layers.values().sum::<u64>() as i64 + s.remainder_ns,
        s.wire_ns as i64
    );
}
