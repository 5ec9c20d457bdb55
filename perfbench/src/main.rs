//! Wire-level end-to-end benchmark of the PIP query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <groupby_cdf|rejection_few_rows|join_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process generates a catalog from `--seed` in a WAL-durable data
//! directory, starts `pip_server::serve` on it in-process, and drives real
//! wire requests at it from at most `nproc` connections, checking every
//! answer. All three workloads share the catalog: the fig6 Q3 join tables
//! indexed on `cust`, a grouped `Normal` table `t`, a Q5 rejection table
//! `r`, and an `events` table that takes 10-row `INSERT`s. Every
//! closed-loop reader repeats rounds of one analytical query followed by
//! eight Zipf-keyed point lookups, and every workload writes, so each
//! reports every end-to-end metric:
//!
//! * `groupby_cdf` — 2 closed-loop connections querying
//!   `SELECT g, expected_sum(x), conf() FROM t WHERE x > c GROUP BY g` at
//!   the server's default adaptive ε–δ sampling, with `c` drawn per query
//!   from a continuous range (so the 64-entry result cache never hits) and
//!   a fresh `SET SEED`, and a seeded 0–20 ms think time between rounds
//!   so the two loops do not lock in phase. The first 600 rounds also
//!   insert. The CDF-bounded sampling layer does nearly all the work;
//!   lookups and inserts add about 2%.
//! * `rejection_few_rows` — the same on 1 connection with `SET THREADS
//!   <nproc>` and a fixed `SET SAMPLES` budget, querying the Q5 shape
//!   (`expected_avg(x - s) ... WHERE x > s GROUP BY id`, Poisson demand
//!   against Exponential supply) over fewer rows than 2×cores, so the
//!   cross-variable condition forces rejection and row fan-out cannot fill
//!   the cores.
//! * `join_ingest` — one closed-loop reader whose query is the SQL
//!   two-table selective join (planned today as a `Product` plus a
//!   filter), beside one open-loop writer of inserts timed from their due
//!   times. Engine query phase, server path and WAL carry the work; every
//!   write bumps the catalog version and so invalidates cached lookups.
//!   `BENCHMARK.json` leaves it out: on a 2-vCPU VM its figures followed
//!   minute-scale host phases (medians of its sub-millisecond latencies
//!   moved 20–50% between two batches of ten runs), which the gate's
//!   bounds cannot absorb. It runs the same way on demand.
//!
//! Every run checks its answers, and any failed check makes `correct`
//! false: every reply must be `OK`; estimates are scored against
//! closed-form answers and `rms_rel_error` must stay under the workload's
//! bound; the first queries and lookups are replayed on a fresh session
//! and must match bit for bit; and after the server stops, fresh processes
//! recover the data directory, which must hold exactly the acknowledged
//! inserts (`store.recover_s` is the median recovery time). The first output
//! line is a header record (cores, nproc, run length, git revision, flush
//! policy, and digests of the generated inputs and of the returned
//! estimates, so two builds can be shown to see identical requests).
//!
//! `--trace 0` prints every end-to-end metric. `--trace 1` first repeats
//! the untraced window (counters are diffed across it), then replays the
//! same requests with spans around the benchmark's own calls (wire round
//! trip, `Session::query`, `sql::parse`, `optimize`, `execute_with_stats`,
//! `Database::insert_rows`), writes the spans to `.bench_run/`, and prints
//! every per-layer metric plus the checks that each workload stresses the
//! layers it claims to. The last stdout line is the JSON result.

mod client;
mod inputs;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pip_engine::{sql, Database};
use pip_sampling::SamplerConfig;
use pip_server::server::{serve, ServerHandle, ServerOptions};

use perfbench::exact::rms_rel_error;
use perfbench::gen::Digest;
use perfbench::stats::{self, highest_reportable, median, percentile, sorted};
use perfbench::trace::Span;
use perfbench::wire::Conn;

use client::{closed_loop, nproc, run_window, settings, Ctx, Tally, Traced, Tracer};
use inputs::{rms_bound, Class, Inputs, Workload, INSERT_ROWS, SELECTIVITY};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// The final data directory is recovered RECOVER_REPEATS times in each of
/// RECOVER_PROCESSES fresh processes; `store.recover_s` is the median of
/// all. It is a per-layer metric: page-fault-heavy recovery followed the
/// host's phases on a 2-vCPU VM too closely (ten-seed spreads up to 0.42)
/// to carry an end-to-end bound.
const RECOVER_PROCESSES: usize = 4;
const RECOVER_REPEATS: usize = 5;
/// Each latency class completes at least this many requests, which leaves
/// 10 samples beyond p95.
const MIN_PER_CLASS: u64 = 200;
/// Queries and lookups whose answers are digested and scored; the
/// untraced window always completes them.
const CHECKED_PREFIX: u64 = 400;
/// Rounds of `groupby_cdf` and `rejection_few_rows` that carry an insert:
/// a fixed count, so the data directory to recover does not grow with
/// throughput.
const INSERT_CAP: u64 = 600;
/// Requests of each class replayed on a fresh session after the window.
const REPLAY_CHECK: u64 = 8;

const FLUSH_POLICY: &str = "SET DURABILITY WAL (one write per WAL record, fsync at checkpoints); \
background checkpoint at 8 MiB of WAL; the same for every workload";

/// A freshly built catalog and the server over it.
struct Env {
    dir: PathBuf,
    db: Arc<Database>,
    server: ServerHandle,
}

fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

fn setup(inputs: &Inputs) -> Result<Env, String> {
    let dir = run_dir().join(format!("{}-{}", inputs.workload.name(), std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let err = |e: pip_core::PipError| e.to_string();
    let db = Arc::new(Database::open(&dir).map_err(err)?);
    let mem = pip_workloads::plans::join_db(&inputs.tpch, SELECTIVITY).map_err(err)?;
    for name in ["customers", "deliveries"] {
        let t = mem.table(name).map_err(err)?;
        db.create_table(name, t.schema().clone()).map_err(err)?;
        db.insert_rows(name, t.rows().to_vec()).map_err(err)?;
    }
    let cfg = SamplerConfig::default();
    for s in inputs.catalog_sql() {
        sql::run(&db, &s, &cfg).map_err(|e| format!("{s}: {e}"))?;
    }
    let server = serve(Arc::clone(&db), "127.0.0.1:0", ServerOptions::default())
        .map_err(|e| format!("serve: {e}"))?;
    // Warm up on a session of its own (result caches are per session).
    let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let mut warm = vec!["SET DURABILITY WAL".to_string()];
    warm.extend(settings(inputs.workload).commands());
    for i in 0..2 {
        warm.push(inputs.query(i).wire());
        warm.push(inputs.lookup(i).wire());
    }
    for w in warm {
        let replies = w.lines().count();
        conn.send(&format!("{}\n", w.trim_end()))
            .map_err(|e| e.to_string())?;
        for _ in 0..replies {
            let r = conn.read_reply().map_err(|e| e.to_string())?;
            if !r.ok {
                return Err(format!("warm-up {w:?}: {}", r.status));
            }
        }
    }
    Ok(Env { dir, db, server })
}

fn teardown(env: Env) -> PathBuf {
    env.server.shutdown();
    env.dir
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Latency summary of one class: `(p50, p95)` in ms.
fn p50_p95(t: &Tally, c: Class) -> (f64, f64) {
    let v = sorted(t.latency_ms.get(&c).cloned().unwrap_or_default());
    (percentile(&v, 500), percentile(&v, 950))
}

/// Counters diffed across the untraced window of a traced run.
#[derive(Clone, Copy, Default)]
struct Counters {
    block_hits: u64,
    block_misses: u64,
    kernel_compiles: u64,
    escalations: u64,
    result_cache_hits: u64,
    admission_count: u64,
    admission_secs: f64,
    batched: u64,
    wal_appended: u64,
    checkpoints: u64,
    checkpoint_count: u64,
    checkpoint_secs: f64,
}

impl Counters {
    fn read(env: &Env) -> Counters {
        let m = pip_sampling::obs::metrics();
        let r = env.db.obs_registry();
        let adm = r.histogram("pip_server_admission_wait_seconds", "");
        let seal = r.histogram("pip_store_checkpoint_seal_seconds", "");
        let snap = r.histogram("pip_store_checkpoint_snapshot_seconds", "");
        Counters {
            block_hits: m.block_cache_hits_total.get(),
            block_misses: m.block_cache_misses_total.get(),
            kernel_compiles: m.kernel_compiles_total.get(),
            escalations: m.metropolis_escalations_total.get(),
            result_cache_hits: r.counter("pip_server_result_cache_hits_total", "").get(),
            admission_count: adm.count(),
            admission_secs: adm.sum_secs(),
            batched: env.server.serving().batched,
            wal_appended: r.counter("pip_store_wal_appended_bytes_total", "").get(),
            checkpoints: r.counter("pip_store_checkpoints_total", "").get(),
            checkpoint_count: snap.count(),
            checkpoint_secs: seal.sum_secs() + snap.sum_secs(),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            block_hits: self.block_hits - before.block_hits,
            block_misses: self.block_misses - before.block_misses,
            kernel_compiles: self.kernel_compiles - before.kernel_compiles,
            escalations: self.escalations - before.escalations,
            result_cache_hits: self.result_cache_hits - before.result_cache_hits,
            admission_count: self.admission_count - before.admission_count,
            admission_secs: self.admission_secs - before.admission_secs,
            batched: self.batched - before.batched,
            wal_appended: self.wal_appended - before.wal_appended,
            checkpoints: self.checkpoints - before.checkpoints,
            checkpoint_count: self.checkpoint_count - before.checkpoint_count,
            checkpoint_secs: self.checkpoint_secs - before.checkpoint_secs,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean over traced requests of `class` of `f`, in ms.
fn mean_ms(traced: &[Traced], class: Class, only_fresh: bool, f: impl Fn(&Traced) -> f64) -> f64 {
    let v: Vec<f64> = traced
        .iter()
        .filter(|t| t.class == class && (t.fresh || !only_fresh))
        .map(|t| f(t) / 1e6)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        stats::mean(&v)
    }
}

fn layer_ns(t: &Traced, layer: &str) -> f64 {
    t.split.layers.get(layer).copied().unwrap_or(0) as f64
}

/// Compare the answers of a later pass against the first one.
fn compare_answers(first: &Tally, later: &Tally, what: &str, failures: &mut Vec<String>) -> u64 {
    let mut compared = 0;
    for (key, cells) in &later.answers {
        if let Some(orig) = first.answers.get(key) {
            compared += 1;
            if orig != cells {
                failures.push(format!(
                    "{what}: {key:?} answered {cells:?}, first {orig:?}"
                ));
            }
        }
    }
    compared
}

/// Replay the first queries and lookups on a fresh session.
fn replay_check(w: Workload, ctx: &Ctx) -> Tally {
    let rounds = |r: u64| vec![ctx.inputs.lookup(r), ctx.inputs.query(r)];
    closed_loop(
        ctx,
        settings(w),
        rounds,
        |_| Duration::ZERO,
        Instant::now(),
        REPLAY_CHECK,
    )
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let inputs = Inputs::new(w, args.seed);
    let input_digest = inputs.digest();

    let mut setup_secs = Vec::new();
    let mut env = None;
    for rep in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let e = setup(&inputs)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPEATS {
            let dir = teardown(e);
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        } else {
            env = Some(e);
        }
    }
    let env = env.expect("at least one set-up");
    let ctx = Ctx {
        addr: env.server.addr(),
        inputs: &inputs,
        tracer: None,
    };

    let before = Counters::read(&env);
    let (main, closed_secs) = run_window(w, &ctx, args.seconds, CHECKED_PREFIX);
    let delta = Counters::read(&env).since(&before);

    let mut failures: Vec<String> = main.failures.clone();
    let mut attempted = main.attempted;
    let mut acked = main.acked_inserts;

    let traced = if args.trace {
        let tracer = Tracer::new(&env.db);
        let tctx = Ctx {
            tracer: Some(&tracer),
            ..ctx
        };
        let (t, _) = run_window(w, &tctx, args.seconds, MIN_PER_CLASS);
        failures.extend(t.failures.clone());
        attempted += t.attempted;
        acked += t.acked_inserts;
        compare_answers(&main, &t, "traced replay", &mut failures);
        Some(t)
    } else {
        None
    };
    let rc = replay_check(w, &ctx);
    failures.extend(rc.failures.clone());
    attempted += rc.attempted;
    let replayed = compare_answers(&main, &rc, "fresh-session replay", &mut failures);
    if replayed < 2 * REPLAY_CHECK {
        failures.push(format!("replay check compared {replayed} answers"));
    }

    // Accuracy over the checked prefix, which every run completes.
    let pairs: Vec<(f64, f64)> = main.pairs.values().flatten().copied().collect();
    let rms = rms_rel_error(&pairs);
    let mut est_digest = Digest::default();
    for (key, cells) in &main.answers {
        est_digest.add(format!("{key:?}").as_bytes());
        est_digest.add(cells.as_bytes());
    }
    let expected_answers = 2 * CHECKED_PREFIX as usize;
    if main.answers.len() != expected_answers {
        failures.push(format!(
            "checked prefix incomplete: {} of {expected_answers} answers",
            main.answers.len()
        ));
    }
    if rms > rms_bound(w) {
        failures.push(format!("rms_rel_error {rms} over bound {}", rms_bound(w)));
    }

    // Recovery: the data directory must hold exactly the acked inserts.
    let Env { dir, db, server } = env;
    let serving_addr = server.addr();
    server.shutdown();
    drop(db);
    let (recover_s, rows) = recover_in_children(&dir)?;
    if rows != acked * INSERT_ROWS as u64 {
        failures.push(format!(
            "recovered {rows} event rows, acked {acked} inserts of {INSERT_ROWS}"
        ));
    }
    attempted += 1;
    let _ = std::fs::remove_dir_all(&dir);

    let header = format!(
        "{{\"record\":\"header\",\"benchmark\":\"perfbench\",\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
\"cores\":{},\"nproc\":{},\"git_rev\":{},\"flush_policy\":{},\"input_digest\":{},\"estimate_digest\":{},\
\"server\":{}}}",
        json_str(w.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        host_cores(),
        nproc(),
        json_str(&git_rev()),
        json_str(FLUSH_POLICY),
        json_str(&input_digest),
        json_str(&est_digest.hex()),
        json_str(&serving_addr.to_string()),
    );
    println!("{header}");

    let count = |c: Class| main.latency_ms.get(&c).map_or(0, Vec::len);
    for c in [Class::Query, Class::Lookup, Class::Insert] {
        let n = count(c);
        let top =
            highest_reportable(n).map_or("none".to_string(), |p| format!("p{}", p as f64 / 10.0));
        println!("# {c:?}: {n} completed; highest percentile with >=10 beyond: {top}");
        if highest_reportable(n).is_none_or(|p| p < 950) {
            failures.push(format!("{c:?}: {n} samples cannot support p95"));
        }
    }
    let failed = failures.len() as u64;
    println!(
        "# error_rate {} ({failed} failed of {attempted} attempted)",
        ratio(failed as f64, attempted as f64)
    );
    for f in failures.iter().take(10) {
        println!("# FAILED {f}");
    }
    println!(
        "# recovery: {rows} event rows; median {recover_s} s over {RECOVER_PROCESSES}x{RECOVER_REPEATS} recoveries"
    );

    let metrics = match &traced {
        None => {
            let (qp50, qp95) = p50_p95(&main, Class::Query);
            let (lp50, lp95) = p50_p95(&main, Class::Lookup);
            let (ip50, ip95) = p50_p95(&main, Class::Insert);
            vec![
                ("setup_s", median(&setup_secs), "s"),
                (
                    "throughput_qps",
                    main.closed_queries as f64 / closed_secs,
                    "1/s",
                ),
                ("query_p50_ms", qp50, "ms"),
                ("query_p95_ms", qp95, "ms"),
                ("lookup_p50_ms", lp50, "ms"),
                ("lookup_p95_ms", lp95, "ms"),
                ("insert_p50_ms", ip50, "ms"),
                ("insert_p95_ms", ip95, "ms"),
                ("rms_rel_error", rms, "ratio"),
                ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ]
        }
        Some(t) => {
            write_spans(w, args.seed, &header, &t.spans)?;
            let mut m = layer_metrics(w, &main, t, &delta);
            m.push(("store.recover_s", recover_s, "s"));
            m
        }
    };
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    );
    Ok(())
}

/// Per-layer metrics of a traced run (`t`) from its spans and from the
/// counters diffed across the untraced window (`main`, `delta`); prints
/// the mean layer split of each class and the workload-shape checks.
fn layer_metrics(
    w: Workload,
    main: &Tally,
    t: &Tally,
    delta: &Counters,
) -> Vec<(&'static str, f64, &'static str)> {
    let tr = &t.traced;
    for c in [Class::Query, Class::Lookup, Class::Insert] {
        let mut line = format!(
            "# layer split {c:?} (mean ms over {} traced): wire {:.4}",
            tr.iter().filter(|x| x.class == c).count(),
            mean_ms(tr, c, false, |x| x.split.wire_ns as f64)
        );
        for layer in [
            "server",
            "session",
            "engine.parse",
            "engine.optimize",
            "engine.query_phase",
            "sampling.sample_phase",
            "store.insert",
        ] {
            line.push_str(&format!(
                " | {layer} {:.4}",
                mean_ms(tr, c, false, |x| layer_ns(x, layer))
            ));
        }
        line.push_str(&format!(
            " | remainder {:.4}",
            mean_ms(tr, c, false, |x| x.split.remainder_ns as f64)
        ));
        println!("{line}");
    }
    let sample_ms = mean_ms(tr, Class::Query, true, |x| {
        layer_ns(x, "sampling.sample_phase")
    });
    let query_ms = mean_ms(tr, Class::Query, true, |x| {
        layer_ns(x, "engine.query_phase")
    });
    let session_ms = mean_ms(tr, Class::Query, true, |x| x.session_ns as f64);
    let lookup_engine_ms = mean_ms(tr, Class::Lookup, false, |x| {
        [
            "engine.parse",
            "engine.optimize",
            "engine.query_phase",
            "sampling.sample_phase",
        ]
        .iter()
        .map(|l| layer_ns(x, l))
        .sum()
    });
    let lookup_wire_overhead = mean_ms(tr, Class::Lookup, false, |x| layer_ns(x, "server"));
    let checks: Vec<(String, bool)> = match w {
        Workload::GroupbyCdf | Workload::RejectionFewRows => {
            let share = ratio(sample_ms, session_ms);
            vec![(format!("sample phase {:.1}% of in-process query time (>= 90%)", 100.0 * share), share >= 0.9)]
        }
        Workload::JoinIngest => vec![
            (format!("join query phase {query_ms:.3} ms > sample phase {sample_ms:.3} ms"), query_ms > sample_ms),
            (
                format!("lookup wire overhead {lookup_wire_overhead:.4} ms > engine time {lookup_engine_ms:.4} ms"),
                lookup_wire_overhead > lookup_engine_ms,
            ),
        ],
    };
    for (what, ok) in checks {
        println!(
            "# design check [{}] {what}",
            if ok { "ok" } else { "DRIFT" }
        );
    }
    let fresh: Vec<&Traced> = tr
        .iter()
        .filter(|x| x.class == Class::Query && x.fresh)
        .collect();
    let examined: u64 = fresh.iter().map(|x| x.rows_examined).sum();
    let results: u64 = fresh.iter().map(|x| x.result_rows).sum();
    let untraced_q = median(main.latency_ms.get(&Class::Query).map_or(&[][..], |v| v));
    let traced_q = median(t.latency_ms.get(&Class::Query).map_or(&[][..], |v| v));
    let count = |c: Class| main.latency_ms.get(&c).map_or(0, Vec::len);
    let selects = count(Class::Query) + count(Class::Lookup);
    let late = sorted(main.late_ms.clone());
    vec![
        ("sampling.sample_phase_ms", sample_ms, "ms"),
        (
            "sampling.block_cache_hit_ratio",
            ratio(
                delta.block_hits as f64,
                (delta.block_hits + delta.block_misses) as f64,
            ),
            "ratio",
        ),
        (
            "sampling.kernel_compiles",
            delta.kernel_compiles as f64,
            "count",
        ),
        (
            "sampling.metropolis_escalations",
            delta.escalations as f64,
            "count",
        ),
        (
            "engine.parse_ms",
            mean_ms(tr, Class::Lookup, false, |x| layer_ns(x, "engine.parse")),
            "ms",
        ),
        (
            "engine.optimize_ms",
            mean_ms(tr, Class::Lookup, true, |x| layer_ns(x, "engine.optimize")),
            "ms",
        ),
        ("engine.query_phase_ms", query_ms, "ms"),
        (
            "engine.rows_examined_per_result",
            ratio(examined as f64, results as f64),
            "rows",
        ),
        ("server.wire_overhead_ms", lookup_wire_overhead, "ms"),
        (
            "server.session_ms",
            mean_ms(tr, Class::Lookup, false, |x| x.session_ns as f64),
            "ms",
        ),
        (
            "server.admission_wait_ms",
            1e3 * ratio(delta.admission_secs, delta.admission_count as f64),
            "ms",
        ),
        (
            "server.result_cache_hit_ratio",
            ratio(delta.result_cache_hits as f64, selects as f64),
            "ratio",
        ),
        ("server.dedup_batched", delta.batched as f64, "count"),
        (
            "store.insert_ms",
            mean_ms(tr, Class::Insert, false, |x| layer_ns(x, "store.insert")),
            "ms",
        ),
        (
            "store.wal_bytes_per_user_byte",
            ratio(delta.wal_appended as f64, main.insert_bytes as f64),
            "ratio",
        ),
        ("store.checkpoints", delta.checkpoints as f64, "count"),
        (
            "store.checkpoint_ms",
            1e3 * ratio(delta.checkpoint_secs, delta.checkpoint_count as f64),
            "ms",
        ),
        (
            "obs.trace_overhead_pct",
            100.0 * ratio(traced_q - untraced_q, untraced_q),
            "%",
        ),
        // Closed-loop clients send as soon as they may: never late.
        (
            "client.gen_late_p95_ms",
            if late.is_empty() {
                0.0
            } else {
                percentile(&late, 950)
            },
            "ms",
        ),
    ]
}

fn write_spans(w: Workload, seed: u64, header: &str, spans: &[Span]) -> Result<(), String> {
    let path = run_dir().join(format!("spans-{}-{seed}.jsonl", w.name()));
    let mut out = String::with_capacity(spans.len() * 100);
    out.push_str(header);
    out.push('\n');
    for s in spans {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    std::fs::write(&path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans: {} written to {}", spans.len(), path.display());
    Ok(())
}

/// `perfbench --recover <dir>`: recover `dir` RECOVER_REPEATS times and
/// print the `events` row count, then each recovery's seconds.
fn recover_main(dir: &Path) -> Result<(), String> {
    let mut out = String::new();
    for _ in 0..RECOVER_REPEATS {
        let t0 = Instant::now();
        let (db, _) = Database::recover(dir).map_err(|e| format!("recover: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        let rows = db.table("events").map_err(|e| e.to_string())?.len();
        if out.is_empty() {
            out = rows.to_string();
        }
        out.push_str(&format!(" {secs}"));
    }
    println!("{out}");
    Ok(())
}

/// Time recovery of `dir` in fresh processes, as a restart would run it
/// (not in this one, whose heap the measured window has churned); returns
/// the median seconds and the recovered `events` row count.
fn recover_in_children(dir: &Path) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut secs = Vec::new();
    let mut rows = None;
    for _ in 0..RECOVER_PROCESSES {
        let out = std::process::Command::new(&exe)
            .arg("--recover")
            .arg(dir)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning recovery: {e}"))?;
        if !out.status.success() {
            return Err(format!("recovery process failed: {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let bad = || format!("bad recovery output {text:?}");
        let mut fields = text.split_whitespace();
        let n: u64 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
        if *rows.get_or_insert(n) != n {
            return Err(format!("recoveries disagree: {n} rows, then {rows:?}"));
        }
        for f in fields {
            secs.push(f.parse::<f64>().map_err(|_| bad())?);
        }
    }
    Ok((median(&secs), rows.unwrap_or(0)))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() == 3 && argv[1] == "--recover" {
        if let Err(e) = recover_main(Path::new(&argv[2])) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
