//! The client side of a measured window: closed- and open-loop
//! connections, the accounting of every answer, and the traced run's
//! in-process replay of each request.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pip_engine::sql::{self, Statement};
use pip_engine::{execute_with_stats, optimize, Database};
use pip_sampling::SamplerConfig;
use pip_server::server::ServerOptions;
use pip_server::{Session, SessionManager};

use perfbench::trace::{split, RequestTrace, Span, Split};
use perfbench::wire::{Conn, Reply};

use crate::inputs::{Class, Inputs, Request, Workload, Q5_SAMPLES, WRITER_RATE};
use crate::{CHECKED_PREFIX, INSERT_CAP, MIN_PER_CLASS};

/// Session settings a connection applies before its first request.
#[derive(Clone, Copy, Default)]
pub(crate) struct Settings {
    pub(crate) threads: Option<usize>,
    pub(crate) samples: Option<usize>,
}

impl Settings {
    pub(crate) fn commands(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(n) = self.threads {
            out.push(format!("SET THREADS {n}"));
        }
        if let Some(n) = self.samples {
            out.push(format!("SET SAMPLES {n}"));
        }
        out
    }

    pub(crate) fn apply(&self, cfg: &mut SamplerConfig) {
        if let Some(n) = self.threads {
            *cfg = cfg.clone().with_threads(n);
        }
        if let Some(n) = self.samples {
            cfg.min_samples = n;
            cfg.max_samples = n;
        }
    }
}

/// One traced request's split and what the replay saw.
pub(crate) struct Traced {
    pub(crate) class: Class,
    pub(crate) split: Split,
    pub(crate) session_ns: u64,
    /// The replayed statement executed (not served from the cache).
    pub(crate) fresh: bool,
    pub(crate) rows_examined: u64,
    pub(crate) result_rows: u64,
}

/// What one client thread observed.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) latency_ms: BTreeMap<Class, Vec<f64>>,
    pub(crate) attempted: u64,
    pub(crate) failures: Vec<String>,
    pub(crate) answers: BTreeMap<(Class, u64), String>,
    pub(crate) pairs: BTreeMap<(Class, u64), Vec<(f64, f64)>>,
    pub(crate) acked_inserts: u64,
    pub(crate) insert_bytes: u64,
    pub(crate) late_ms: Vec<f64>,
    pub(crate) spans: Vec<Span>,
    pub(crate) traced: Vec<Traced>,
    pub(crate) closed_queries: u64,
    pub(crate) closed_end: Option<Instant>,
}

impl Tally {
    pub(crate) fn merge(&mut self, o: Tally) {
        for (c, v) in o.latency_ms {
            self.latency_ms.entry(c).or_default().extend(v);
        }
        self.attempted += o.attempted;
        self.failures.extend(o.failures);
        self.answers.extend(o.answers);
        self.pairs.extend(o.pairs);
        self.acked_inserts += o.acked_inserts;
        self.insert_bytes += o.insert_bytes;
        self.late_ms.extend(o.late_ms);
        self.spans.extend(o.spans);
        self.traced.extend(o.traced);
        self.closed_queries += o.closed_queries;
        self.closed_end = self.closed_end.max(o.closed_end);
    }

    pub(crate) fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Account one answered request.
    pub(crate) fn record(
        &mut self,
        inputs: &Inputs,
        req: &Request,
        reply: &Reply,
        extra_ok: bool,
        latency: Duration,
    ) {
        self.attempted += 1;
        self.latency_ms
            .entry(req.class)
            .or_default()
            .push(latency.as_secs_f64() * 1e3);
        let checked = if extra_ok {
            inputs.check(req, reply)
        } else {
            Err("ERR on SET SEED".to_string())
        };
        match checked {
            Err(e) => self.fail(format!("{:?} {}: {e}", req.class, req.index)),
            Ok(pairs) => {
                if req.class == Class::Insert {
                    self.acked_inserts += 1;
                    self.insert_bytes += req.sql.len() as u64;
                } else if req.index < CHECKED_PREFIX {
                    let cells: Vec<String> = reply.rows.iter().map(|r| r.join("\t")).collect();
                    self.answers
                        .insert((req.class, req.index), cells.join("\n"));
                    self.pairs.insert((req.class, req.index), pairs);
                }
            }
        }
    }
}

/// Send a request and read all its replies: `(answer, other replies ok)`.
pub(crate) fn roundtrip(conn: &mut Conn, req: &Request) -> io::Result<(Reply, bool)> {
    conn.send(&req.wire())?;
    read_replies(conn, req)
}

pub(crate) fn read_replies(conn: &mut Conn, req: &Request) -> io::Result<(Reply, bool)> {
    let mut answer = None;
    let mut ok = true;
    for k in 0..req.replies() {
        let r = conn.read_reply()?;
        if k == req.answer_at() {
            answer = Some(r);
        } else {
            ok &= r.ok;
        }
    }
    Ok((answer.expect("answer index within replies"), ok))
}

/// Traced-run context: in-process replays go through a mirror session
/// over the served catalog.
pub(crate) struct Tracer {
    pub(crate) origin: Instant,
    pub(crate) db: Arc<Database>,
    pub(crate) manager: SessionManager,
}

impl Tracer {
    pub(crate) fn new(db: &Arc<Database>) -> Tracer {
        let o = ServerOptions::default();
        Tracer {
            origin: Instant::now(),
            db: Arc::clone(db),
            manager: SessionManager::new(Arc::clone(db), o.default_config.clone())
                .with_cache_capacities(o.prepared_cache, o.result_cache),
        }
    }

    pub(crate) fn session(&self, settings: Settings) -> Session {
        let mut s = self.manager.open();
        settings.apply(&mut s.cfg);
        s
    }

    /// Record the wire span of `req` and replay it in-process.
    pub(crate) fn replay(
        &self,
        inputs: &Inputs,
        mirror: &mut Session,
        req: &Request,
        sent: Instant,
        done: Instant,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let request_id = ((req.class as u64) << 56) | req.index;
        let mut tr = RequestTrace::new(self.origin, request_id);
        let root = tr.record("request", None, sent, done);
        let sql_text = match req.class {
            Class::Insert => inputs.insert_sql("events_shadow", req.index),
            _ => req.sql.clone(),
        };
        if let Some(s) = req.world_seed {
            mirror.cfg.world_seed = s;
        }
        let t0 = Instant::now();
        let reply = mirror.query(&sql_text);
        let t1 = Instant::now();
        mirror.cfg.world_seed = SamplerConfig::default().world_seed;
        let cached = reply.map_err(|e| e.to_string())?.cached;
        let session = tr.record("session", Some(root), t0, t1);

        let t = Instant::now();
        let stmt = sql::parse(&sql_text).map_err(|e| e.to_string())?;
        tr.record("parse", Some(session), t, Instant::now());
        let mut traced = Traced {
            class: req.class,
            split: split(&[]),
            session_ns: (t1 - t0).as_nanos() as u64,
            fresh: !cached,
            rows_examined: 0,
            result_rows: 0,
        };
        match (req.class, stmt) {
            (Class::Insert, _) => {
                let rows = inputs.insert_rows(req.index);
                let t = Instant::now();
                self.db
                    .insert_rows("events_shadow", rows)
                    .map_err(|e| e.to_string())?;
                tr.record("insert", Some(session), t, Instant::now());
            }
            (_, Statement::Select(plan)) if !cached => {
                let mut cfg = mirror.cfg.clone();
                if let Some(s) = req.world_seed {
                    cfg.world_seed = s;
                }
                let t = Instant::now();
                let optimized = optimize(&self.db, plan).map_err(|e| e.to_string())?;
                tr.record("optimize", Some(session), t, Instant::now());
                let t = Instant::now();
                let (table, qs) =
                    execute_with_stats(&self.db, &optimized, &cfg).map_err(|e| e.to_string())?;
                let exec = tr.record("execute", Some(session), t, Instant::now());
                let s = tr.offset(t);
                let q = (qs.query_secs * 1e9) as u64;
                let smp = (qs.sample_secs * 1e9) as u64;
                tr.record_ns("query_phase", Some(exec), s, s + q);
                tr.record_ns("sample_phase", Some(exec), s + q, s + q + smp);
                traced.rows_examined = qs
                    .ops
                    .iter()
                    .filter(|o| !o.sampling)
                    .map(|o| o.rows_out)
                    .sum();
                traced.result_rows = table.len() as u64;
            }
            _ => {}
        }
        traced.split = split(&tr.spans);
        tally.spans.extend(tr.spans);
        tally.traced.push(traced);
        Ok(())
    }
}

/// Shared state of one measured window.
pub(crate) struct Ctx<'a> {
    pub(crate) addr: SocketAddr,
    pub(crate) inputs: &'a Inputs,
    pub(crate) tracer: Option<&'a Tracer>,
}

/// A closed-loop connection sending `rounds(0)`, `rounds(1)`, ... one
/// request at a time, pausing `think(r)` after round `r`. After each round
/// it stops once `deadline` passed and it completed `min` queries.
pub(crate) fn closed_loop(
    ctx: &Ctx,
    settings: Settings,
    rounds: impl Fn(u64) -> Vec<Request>,
    think: impl Fn(u64) -> Duration,
    deadline: Instant,
    min: u64,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = match connect(ctx.addr, settings) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("connect: {e}"));
            return tally;
        }
    };
    let mut mirror = ctx.tracer.map(|t| t.session(settings));
    let mut r = 0;
    'rounds: while Instant::now() < deadline || tally.closed_queries < min {
        for req in rounds(r) {
            let sent = Instant::now();
            let (reply, extra_ok) = match roundtrip(&mut conn, &req) {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(format!("{:?} {}: {e}", req.class, req.index));
                    break 'rounds;
                }
            };
            let done = Instant::now();
            tally.record(ctx.inputs, &req, &reply, extra_ok, done - sent);
            if req.class == Class::Query {
                tally.closed_queries += 1;
            }
            if let (Some(t), Some(m)) = (ctx.tracer, mirror.as_mut()) {
                if let Err(e) = t.replay(ctx.inputs, m, &req, sent, done, &mut tally) {
                    tally.fail(format!("replay {:?} {}: {e}", req.class, req.index));
                }
            }
        }
        std::thread::sleep(think(r));
        r += 1;
    }
    tally.closed_end = Some(Instant::now());
    tally
}

/// An open-loop connection: request `i` is due at `start + offset_i`.
/// Latency runs from the due time; the sender's lateness is recorded.
pub(crate) fn open_loop(ctx: &Ctx, schedule: Vec<(Duration, Request)>, start: Instant) -> Tally {
    let mut tally = Tally::default();
    let mut conn = match connect(ctx.addr, Settings::default()) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("connect: {e}"));
            return tally;
        }
    };
    let mut writer = match conn.try_clone_writer() {
        Ok(w) => w,
        Err(e) => {
            tally.fail(format!("clone: {e}"));
            return tally;
        }
    };
    let mut mirror = ctx.tracer.map(|t| t.session(Settings::default()));
    let (tx, rx) = mpsc::channel::<Option<Instant>>();
    std::thread::scope(|s| {
        let schedule = &schedule;
        s.spawn(move || {
            use std::io::Write;
            for (offset, req) in schedule {
                let due = start + *offset;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let ok = writer.write_all(req.wire().as_bytes()).is_ok();
                if tx.send(ok.then_some(sent)).is_err() || !ok {
                    break;
                }
            }
        });
        for (offset, req) in schedule {
            let sent = match rx.recv() {
                Ok(Some(t)) => t,
                _ => {
                    tally.fail(format!("{:?} {}: send failed", req.class, req.index));
                    break;
                }
            };
            let due = start + *offset;
            tally.late_ms.push((sent - due).as_secs_f64() * 1e3);
            let (reply, extra_ok) = match read_replies(&mut conn, req) {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(format!("{:?} {}: {e}", req.class, req.index));
                    break;
                }
            };
            let done = Instant::now();
            tally.record(ctx.inputs, req, &reply, extra_ok, done - due);
            if let (Some(t), Some(m)) = (ctx.tracer, mirror.as_mut()) {
                if let Err(e) = t.replay(ctx.inputs, m, req, sent, done, &mut tally) {
                    tally.fail(format!("replay {:?} {}: {e}", req.class, req.index));
                }
            }
        }
        // Unblock the sender if the receiver stopped early.
        drop(rx);
    });
    tally
}

pub(crate) fn connect(addr: SocketAddr, settings: Settings) -> io::Result<Conn> {
    let mut conn = Conn::connect(addr)?;
    for cmd in settings.commands() {
        let r = conn.call(&cmd)?;
        if !r.ok {
            return Err(io::Error::other(format!("{cmd}: {}", r.status)));
        }
    }
    Ok(conn)
}

/// Session settings of the analytical connections of `w`.
pub(crate) fn settings(w: Workload) -> Settings {
    match w {
        Workload::RejectionFewRows => Settings {
            threads: Some(nproc()),
            samples: Some(Q5_SAMPLES),
        },
        _ => Settings::default(),
    }
}

pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one measured window of `w`; closed loops complete at least
/// `min_queries` queries.
pub(crate) fn run_window(w: Workload, ctx: &Ctx, seconds: f64, min_queries: u64) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let inputs = ctx.inputs;
    let mut tally = std::thread::scope(|s| {
        let mut handles = Vec::new();
        match w {
            Workload::GroupbyCdf | Workload::RejectionFewRows => {
                let conns = if w == Workload::GroupbyCdf { 2 } else { 1 };
                for c in 0..conns {
                    handles.push(s.spawn(move || {
                        let rounds = |r: u64| {
                            let i = c + r * conns;
                            let mut out = inputs.round(i);
                            if i < INSERT_CAP {
                                out.push(inputs.insert(i));
                            }
                            out
                        };
                        // Two connections with equal round times would lock
                        // in phase for a whole run; a seeded think time
                        // between rounds keeps their overlap mixed.
                        let think = |r: u64| {
                            if conns > 1 {
                                inputs.think(c + r * conns)
                            } else {
                                Duration::ZERO
                            }
                        };
                        closed_loop(
                            ctx,
                            settings(w),
                            rounds,
                            think,
                            deadline,
                            min_queries.div_ceil(conns),
                        )
                    }));
                }
            }
            Workload::JoinIngest => {
                handles.push(s.spawn(move || {
                    closed_loop(
                        ctx,
                        Settings::default(),
                        |r| inputs.round(r),
                        |_| Duration::ZERO,
                        deadline,
                        min_queries,
                    )
                }));
                let n = ((seconds * WRITER_RATE).ceil() as u64).max(MIN_PER_CLASS);
                let schedule = inputs
                    .arrivals(n)
                    .into_iter()
                    .zip(0..)
                    .map(|(due, i)| (due, inputs.insert(i)))
                    .collect();
                handles.push(s.spawn(move || open_loop(ctx, schedule, start)));
            }
        }
        let mut all = Tally::default();
        for h in handles {
            all.merge(h.join().expect("client thread"));
        }
        all
    });
    let closed_secs = tally
        .closed_end
        .map_or(f64::NAN, |e| (e - start).as_secs_f64());
    tally.closed_end = None;
    (tally, closed_secs)
}
