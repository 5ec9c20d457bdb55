//! `samplers_agree`-style determinism tests for the parallel runtime:
//! serial and parallel (2, 4, 8 threads) sampling must produce
//! *bit-identical* results for the same seed — through the chunked
//! expectation executor, the aggregate operators, and full SQL queries.

use pip::ctable::{CRow, CTable};
use pip::expr::{atoms, Conjunction, Equation, RandomVar};
use pip::prelude::{scalar_result, sql, DataType, Database, Schema};
use pip::sampling::parallel::{expectation_chunked, ParallelSampler};
use pip::sampling::{conf, expectation, expected_avg, expected_sum, SamplerConfig};

fn normal(mu: f64, sigma: f64) -> RandomVar {
    RandomVar::create(pip::dist::prelude::builtin::normal(), &[mu, sigma]).unwrap()
}

/// A table mixing exact-path rows (unconditional normals) with rows
/// that force real sampling (cross-variable conditions).
fn mixed_table(rows: usize) -> CTable {
    let schema = Schema::of(&[("v", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    for i in 0..rows {
        let y = normal(i as f64, 1.0 + (i % 4) as f64 * 0.5);
        let z = normal(0.0, 1.0);
        let row = if i % 3 == 0 {
            CRow::unconditional(vec![Equation::from(y)])
        } else {
            // z > y - i: genuinely multivariate, so `conf` has to sample.
            CRow::new(
                vec![Equation::from(y.clone())],
                Conjunction::single(atoms::gt(Equation::from(z), Equation::from(y) - i as f64)),
            )
        };
        t.push(row).unwrap();
    }
    t
}

#[test]
fn chunked_expectation_identical_at_1_2_4_8_threads() {
    let y = normal(0.0, 1.0);
    let cond = Conjunction::of(vec![
        atoms::gt(Equation::from(y.clone()), 0.5),
        atoms::lt(Equation::from(y.clone()), 3.0),
    ]);
    let expr = Equation::from(y) * 2.0 + 1.0;
    let serial_pool = ParallelSampler::new(1);
    let cfg1 = SamplerConfig::fixed_samples(3000);
    let baseline = expectation_chunked(&expr, &cond, true, &cfg1, 11, &serial_pool).unwrap();
    assert!(baseline.n_samples > 0, "must actually sample");
    for threads in [2usize, 4, 8] {
        let pool = ParallelSampler::new(threads);
        let cfg = cfg1.clone().with_threads(threads);
        let r = expectation_chunked(&expr, &cond, true, &cfg, 11, &pool).unwrap();
        assert_eq!(
            r, baseline,
            "chunked executor diverged at {threads} threads"
        );
    }
}

#[test]
fn aggregates_identical_at_1_2_4_8_threads() {
    let t = mixed_table(17);
    let serial = SamplerConfig::fixed_samples(400);
    let sum1 = expected_sum(&t, "v", &serial).unwrap();
    let avg1 = expected_avg(&t, "v", &serial).unwrap();
    assert!(sum1.n_samples > 0, "workload must exercise the samplers");
    for threads in [2usize, 4, 8] {
        let par = serial.clone().with_threads(threads);
        assert_eq!(
            expected_sum(&t, "v", &par).unwrap(),
            sum1,
            "expected_sum diverged at {threads} threads"
        );
        assert_eq!(
            expected_avg(&t, "v", &par).unwrap(),
            avg1,
            "expected_avg diverged at {threads} threads"
        );
    }
}

#[test]
fn per_row_conf_sites_are_scheduling_free() {
    // The row fan-out reproduces the serial operator because each row's
    // stream is derived from its index, not from execution order: check
    // the per-row primitives directly.
    let t = mixed_table(9);
    let cfg = SamplerConfig::fixed_samples(600);
    for (i, row) in t.rows().iter().enumerate() {
        let a = conf(&row.condition, &cfg, i as u64).unwrap();
        let b = conf(&row.condition, &cfg, i as u64).unwrap();
        assert_eq!(a, b);
        let ra = expectation(&row.cells[0], &row.condition, true, &cfg, i as u64).unwrap();
        let rb = expectation(&row.cells[0], &row.condition, true, &cfg, i as u64).unwrap();
        assert_eq!(ra, rb);
    }
}

#[test]
fn sql_query_results_identical_at_1_2_4_8_threads() {
    let db = Database::new();
    let serial = SamplerConfig::default();
    sql::run(
        &db,
        "CREATE TABLE sales (region TEXT, amount SYMBOLIC)",
        &serial,
    )
    .unwrap();
    sql::run(
        &db,
        "INSERT INTO sales VALUES \
         ('east', create_variable('Normal', 100, 20)), \
         ('east', create_variable('Normal', 80, 10)), \
         ('west', create_variable('Normal', 60, 15)), \
         ('west', create_variable('Normal', 40, 5)), \
         ('north', create_variable('Exponential', 0.05))",
        &serial,
    )
    .unwrap();
    let q = "SELECT region, expected_sum(amount), expected_count(*), conf() \
             FROM sales WHERE amount > 70 GROUP BY region";
    let baseline = sql::run(&db, q, &serial).unwrap();
    assert_eq!(baseline.len(), 3);
    for threads in [2usize, 4, 8] {
        let par = serial.clone().with_threads(threads);
        let t = sql::run(&db, q, &par).unwrap();
        assert_eq!(
            t.rows(),
            baseline.rows(),
            "SQL results diverged at {threads} threads"
        );
    }
}

/// Grouped `conf()` over groups that mix independent rows with rows
/// sharing a variable: the exact components and the sampled one give
/// bit-identical heads at 1/2/4 threads, compiled or interpreted.
#[test]
fn grouped_conf_head_identical_at_1_2_4_threads_and_compile() {
    let db = Database::new();
    let schema = Schema::of(&[("g", DataType::Str), ("x", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    let shared = normal(0.0, 1.0);
    let row = |g: &str, x: &RandomVar, cond: Conjunction| {
        CRow::new(
            vec![
                Equation::val(pip::core::Value::str(g)),
                Equation::from(x.clone()),
            ],
            cond,
        )
    };
    for i in 0..6 {
        let x = normal(i as f64 * 0.5, 1.0);
        let cond = Conjunction::single(atoms::gt(Equation::from(x.clone()), 1.0));
        t.push(row(if i % 2 == 0 { "indep" } else { "mixed" }, &x, cond))
            .unwrap();
    }
    for (x, c) in [(normal(1.0, 2.0), 0.0), (normal(-1.0, 1.0), 0.5)] {
        // x + shared > c: these two rows share `shared`, so they form
        // one component that must be sampled jointly.
        let cond = Conjunction::single(atoms::gt(
            Equation::from(x.clone()) + Equation::from(shared.clone()),
            c,
        ));
        t.push(row("mixed", &x, cond)).unwrap();
    }
    db.register_table("t", t).unwrap();
    let q = "SELECT g, expected_sum(x), conf() FROM t GROUP BY g";
    let serial = SamplerConfig::default();
    let baseline = sql::run(&db, q, &serial).unwrap();
    assert_eq!(baseline.len(), 2);
    for threads in [1usize, 2, 4] {
        for compile in [true, false] {
            let cfg = serial.clone().with_threads(threads).with_compile(compile);
            assert_eq!(
                sql::run(&db, q, &cfg).unwrap().rows(),
                baseline.rows(),
                "grouped conf diverged at {threads} threads, compile={compile}"
            );
        }
    }
}

#[test]
fn scalar_aggregate_identical_and_sane() {
    let db = Database::new();
    let serial = SamplerConfig::default();
    sql::run(&db, "CREATE TABLE t (x SYMBOLIC)", &serial).unwrap();
    sql::run(
        &db,
        "INSERT INTO t VALUES (create_variable('Normal', 10, 2)), \
         (create_variable('Uniform', 0, 4))",
        &serial,
    )
    .unwrap();
    let v1 =
        scalar_result(&sql::run(&db, "SELECT expected_sum(x) FROM t", &serial).unwrap()).unwrap();
    assert!((v1 - 12.0).abs() < 1e-9, "exact linear path: {v1}");
    for threads in [2usize, 4, 8] {
        let par = serial.clone().with_threads(threads);
        let v =
            scalar_result(&sql::run(&db, "SELECT expected_sum(x) FROM t", &par).unwrap()).unwrap();
        assert_eq!(v.to_bits(), v1.to_bits(), "threads={threads}");
    }
}
