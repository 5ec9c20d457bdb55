//! The nonblocking serving core: one epoll reactor thread owns every
//! socket; scheduler workers ([`crate::scheduler`]) own every query.
//!
//! No connection gets an OS thread. The reactor accepts, reads and
//! writes all sockets nonblockingly (level-triggered epoll via the
//! vendored [`epoll`] shim), decodes pipelined requests out of whatever
//! partial reads arrive, and appends parsed commands to the owning
//! connection's FIFO. A connection with work is handed to the scheduler
//! exactly once (`running` flag); a worker executes its commands one
//! per slice — strict per-session order, so a pipelined
//! `SET SEED` → `QUERY` stream behaves exactly as it would on the old
//! thread-per-connection server — and re-enqueues the connection while
//! commands remain, so one deep pipeline cannot monopolize a worker.
//!
//! Replies are staged in a per-connection output buffer that only the
//! reactor flushes to the socket (batched write-out: one syscall moves
//! every reply staged since the last flush). Workers nudge the reactor
//! through a self-wake pipe; nudges coalesce.
//!
//! Flow control, in both directions:
//!
//! * **Inbound** — a connection whose FIFO reaches `max_pipeline`
//!   parsed-but-unexecuted commands stops being read (its `EPOLLIN`
//!   interest is dropped) until the queue drains below half; TCP then
//!   pushes back on the client. A request line over
//!   [`MAX_REQUEST_BYTES`] is discarded as it streams in — never
//!   buffered — and answered with one `ERR`.
//! * **Outbound** — replies queue up to `max_outbound_bytes`; past
//!   that the *worker* blocks (bounded by admission control, and with a
//!   stall deadline so a reader that never drains is evicted instead of
//!   pinning a worker forever). The reactor keeps serving every other
//!   connection throughout — a slow reader stalls only itself.
//!
//! **Parking** (synchronous replication): a session under
//! `SET REPLICATION WAIT` gets its mutation replies withheld until
//! enough follower ACKs arrive, and `WAIT VERSION` on a follower blocks
//! until the feed catches up — but neither holds a worker thread. The
//! slice registers with the replication wait hub, leaves `running` set
//! and the admission slot held, and returns; the hub's callback stages
//! the decided reply (the original on success, `ERR repl_timeout ...`
//! past the deadline), releases the slot, and re-enqueues any pipeline
//! that built up behind the parked command. One reactor + a bounded
//! fleet thus serves any number of concurrently-waiting sessions.
//!
//! Shutdown drains: the listener closes first, established connections
//! stop being read, already-queued commands run to completion and their
//! replies flush, then sockets close — no response is truncated
//! mid-write. Connections still busy past `drain_timeout` are the one
//! exception: they are force-closed (the query's reply is discarded
//! whole, never cut).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use epoll::{Epoll, WakePipe, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

use crate::protocol::{self, Command};
use crate::scheduler::{Scheduler, ServingCounters, Work};
use crate::session::{ReplWait, SessionManager};

/// Hard cap on one request line. Anything longer is rejected (and the
/// oversized line discarded as it streams in) instead of buffering
/// unbounded client input.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Default for [`Limits::write_stall_timeout`]: how long a worker may
/// sit blocked on one connection's full output buffer before the
/// connection is declared stuck and evicted.
pub(crate) const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(30);

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;
const TOKEN_METRICS: u64 = u64::MAX - 2;

/// Sizing knobs the reactor and its connections share.
#[derive(Clone, Copy)]
pub(crate) struct Limits {
    /// Parsed-but-unexecuted commands per connection before reads pause.
    pub max_pipeline: usize,
    /// Staged reply bytes per connection before the producing worker
    /// blocks (and, past `write_stall_timeout`, the peer is evicted).
    pub max_outbound: usize,
    /// How long a worker may sit blocked on one connection's full
    /// output buffer before the peer is evicted as a stuck reader.
    pub write_stall_timeout: Duration,
    /// How long shutdown waits for in-flight commands to finish and
    /// flush before force-closing the stragglers.
    pub drain_timeout: Duration,
}

/// State the reactor and the scheduler workers both touch, shared via
/// [`Conn`].
pub(crate) struct ReactorShared {
    pub epoll: Epoll,
    pub wake: WakePipe,
    /// Connections whose output/queue state changed off-reactor.
    dirty: Mutex<Vec<Arc<Conn>>>,
    pub shutdown: AtomicBool,
}

impl ReactorShared {
    pub fn new() -> io::Result<ReactorShared> {
        Ok(ReactorShared {
            epoll: Epoll::new()?,
            wake: WakePipe::new()?,
            dirty: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Ask the reactor to revisit `conn` (flush staged output, adjust
    /// interest, reap). Coalesces: a connection is queued at most once.
    fn notify(&self, conn: &Arc<Conn>) {
        if !conn.dirty.swap(true, Ordering::AcqRel) {
            self.dirty
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(conn));
            self.wake.wake();
        }
    }

    /// Drop queued dirty entries (breaks the `Conn` ↔ `ReactorShared`
    /// reference cycle after the reactor exits).
    pub fn clear_dirty(&self) {
        self.dirty.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// One decoded-but-unexecuted unit in a connection's FIFO.
enum Pending {
    /// A parsed command (`admitted` = it holds an admission slot,
    /// stamped with its admission time for the wait histogram).
    Cmd {
        cmd: Command,
        admitted: bool,
        admitted_at: Option<Instant>,
    },
    /// A reply decided at parse time (parse error, `ERR busy`,
    /// oversized request) — it still flows through the FIFO so replies
    /// leave in request order.
    Reply(String),
}

struct ConnState {
    /// Partial request line carried across reads (bounded by
    /// [`MAX_REQUEST_BYTES`]).
    inbuf: Vec<u8>,
    /// Mid-discard of an oversized request line.
    skipping: bool,
    pending: VecDeque<Pending>,
    /// The connection is enqueued with (or running on) the scheduler.
    running: bool,
    /// Graceful close: stop reading, finish `pending`, flush, close.
    closing: bool,
    /// Reads paused by the pipeline cap.
    read_paused: bool,
    /// Interest set currently registered with epoll.
    interest: u32,
}

struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn unsent(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// One client connection: socket + session + command FIFO + staged
/// output. The reactor does all socket I/O; workers execute commands
/// and stage replies.
pub(crate) struct Conn {
    token: u64,
    stream: TcpStream,
    /// Queued on the reactor's dirty list.
    dirty: AtomicBool,
    /// Force-close: socket error, protocol violation, stuck reader, or
    /// drain deadline. Monotonic; once set the connection only drains
    /// toward reaping.
    broken: AtomicBool,
    session: Mutex<crate::session::Session>,
    st: Mutex<ConnState>,
    out: Mutex<OutBuf>,
    /// Signalled whenever flushed output frees buffer space (or the
    /// connection breaks) — wakes workers blocked in [`Conn::stage`].
    out_cv: Condvar,
    shared: Arc<ReactorShared>,
    serving: Arc<ServingCounters>,
    /// Needed off the worker path: a parked command's wake callback
    /// ([`Conn::unpark`]) re-enqueues the connection itself.
    scheduler: Arc<Scheduler>,
    limits: Limits,
}

/// What one executed command left behind.
enum SliceOutcome {
    /// The reply is staged (or streamed); `close` = QUIT semantics.
    Done { close: bool },
    /// The reply is withheld: the command registered with the
    /// replication wait hub and the connection is parked — `running`
    /// stays set, the admission slot stays held, and [`Conn::unpark`]
    /// finishes the slice when the wait resolves.
    Parked,
}

impl Conn {
    /// Append reply bytes to the output buffer, blocking (bounded by
    /// [`WRITE_STALL_TIMEOUT`]) while the buffer is at capacity.
    fn stage(&self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + self.limits.write_stall_timeout;
        loop {
            if self.broken.load(Ordering::Acquire) {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            // Oversized single replies may exceed the cap on an empty
            // buffer; admit them whole rather than deadlocking.
            if out.unsent() + bytes.len() <= self.limits.max_outbound || out.unsent() == 0 {
                out.buf.extend_from_slice(bytes);
                return Ok(());
            }
            if Instant::now() >= deadline {
                // The peer stopped draining: evict it rather than pin
                // a worker (and an admission slot) indefinitely.
                self.serving.slow_reader_evictions.inc();
                pip_obs::warn!(
                    "evicting connection {}: reply backlog not drained in {:?}",
                    self.token,
                    self.limits.write_stall_timeout
                );
                self.broken.store(true, Ordering::Release);
                return Err(io::ErrorKind::TimedOut.into());
            }
            let (next, _) = self
                .out_cv
                .wait_timeout(out, Duration::from_millis(200))
                .unwrap_or_else(|e| e.into_inner());
            out = next;
        }
    }

    /// Complete a parked command: stage its decided reply, release the
    /// admission slot it held across the wait, and settle the `running`
    /// flag exactly as [`Work::run_slice`]'s tail would have (settled
    /// BEFORE the reactor is notified — same reap-ordering argument).
    ///
    /// Runs on the replication wait-hub's monitor thread, not a
    /// scheduler worker, so commands that pipelined up behind the
    /// parked one are re-enqueued here rather than by returning
    /// runnable.
    fn unpark(self: Arc<Self>, text: String, admitted: bool) {
        let _ = self.stage(text.as_bytes());
        if admitted {
            self.serving.finish();
        }
        let again = {
            let mut st = self.st.lock().unwrap_or_else(|e| e.into_inner());
            if self.broken.load(Ordering::Acquire) {
                self.drop_pending(&mut st);
            }
            if st.pending.is_empty() {
                st.running = false;
                false
            } else {
                true
            }
        };
        if self.shared.shutdown.load(Ordering::Acquire) {
            // The reactor is draining (its drain loop revisits every
            // connection on its own tick) or already gone; enqueueing
            // or notifying now could park a `Conn` reference in a
            // queue nobody will ever drain again.
            return;
        }
        if again {
            self.scheduler.enqueue(Arc::clone(&self) as Arc<dyn Work>);
        }
        self.shared.notify(&self);
    }

    /// Answer result-cache hits at the head of an idle connection's FIFO
    /// on the reactor itself, sparing each the round trip through a
    /// scheduler worker. Called with `st` locked and no worker running,
    /// so every earlier reply is already staged and order holds. Never
    /// blocks: the session is only `try_lock`ed, and a hit is inlined
    /// only when its reply fits the free outbound space. A miss leaves
    /// the command queued and its key noted on the session, so the
    /// worker does not probe the cache a second time.
    fn serve_cached_heads(&self, st: &mut ConnState) {
        while let Some(Pending::Cmd {
            cmd: Command::Query(sql),
            admitted: true,
            admitted_at,
        }) = st.pending.front()
        {
            let Ok(mut session) = self.session.try_lock() else {
                return;
            };
            let key = session.query_key(sql);
            let Some(table) = session.cached_result(&key) else {
                session.note_probed_miss(key);
                return;
            };
            let text = protocol::render_table(&table, true);
            let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
            if out.unsent() + text.len() > self.limits.max_outbound {
                return;
            }
            self.serving.start();
            if let Some(t) = admitted_at {
                self.serving.admission_wait_seconds.observe_since(*t);
                session.note_admission_wait_nanos(t.elapsed().as_nanos() as u64);
            }
            session.serve_cached(sql, table);
            out.buf.extend_from_slice(text.as_bytes());
            self.serving.finish();
            st.pending.pop_front();
        }
    }

    /// Drop every queued command, releasing held admission slots.
    fn drop_pending(&self, st: &mut ConnState) {
        for p in st.pending.drain(..) {
            if let Pending::Cmd { admitted: true, .. } = p {
                self.serving.cancel_queued();
            }
        }
    }
}

/// `io::Write` adapter for `STREAM`: rows leave the worker into the
/// connection's output buffer as they are produced (the reactor ships
/// them to the socket concurrently).
struct ConnWriter<'a> {
    conn: &'a Conn,
    shared: &'a ReactorShared,
    me: &'a Arc<Conn>,
}

impl Write for ConnWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.conn.stage(buf)?;
        self.shared.notify(self.me);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.shared.notify(self.me);
        Ok(())
    }
}

impl Work for Conn {
    /// Execute one queued command, stage its reply, and report whether
    /// more work remains.
    fn run_slice(self: Arc<Self>) -> bool {
        let item = {
            let mut st = self.st.lock().unwrap_or_else(|e| e.into_inner());
            if self.broken.load(Ordering::Acquire) {
                self.drop_pending(&mut st);
                st.running = false;
                drop(st);
                self.shared.notify(&self);
                return false;
            }
            match st.pending.pop_front() {
                Some(p) => p,
                None => {
                    st.running = false;
                    drop(st);
                    self.shared.notify(&self);
                    return false;
                }
            }
        };
        match item {
            Pending::Reply(text) => {
                let _ = self.stage(text.as_bytes());
            }
            Pending::Cmd {
                cmd,
                admitted,
                admitted_at,
            } => {
                let wait_nanos = admitted_at.map_or(0, |t| t.elapsed().as_nanos() as u64);
                if admitted {
                    self.serving.start();
                    if let Some(t) = admitted_at {
                        self.serving.admission_wait_seconds.observe_since(t);
                    }
                }
                let slice_start = Instant::now();
                let outcome = {
                    let mut session = self.session.lock().unwrap_or_else(|e| e.into_inner());
                    session.note_admission_wait_nanos(wait_nanos);
                    match cmd {
                        Command::Stream(sql) => {
                            let mut w = ConnWriter {
                                conn: &self,
                                shared: &self.shared,
                                me: &self,
                            };
                            // An Err is an I/O failure on this very
                            // connection (broken/evicted) — nothing
                            // left to tell the peer.
                            let _ = protocol::handle_stream(&mut session, &sql, &mut w);
                            SliceOutcome::Done { close: false }
                        }
                        Command::WaitVersion {
                            version,
                            timeout_ms,
                        } if session.replication().is_some() => {
                            // Park through the wait hub instead of the
                            // blocking fallback in `handle_command`:
                            // the worker is released immediately and
                            // the reply is staged when the version
                            // lands (or the timeout fires).
                            let repl = Arc::clone(session.replication().expect("guard"));
                            let timeout = timeout_ms
                                .map(Duration::from_millis)
                                .unwrap_or(session.repl_wait_timeout);
                            let me = Arc::clone(&self);
                            let r = Arc::clone(&repl);
                            let parked_at = Instant::now();
                            let done = Box::new(move |ok: bool| {
                                let applied = r.applied_version();
                                let text = if ok {
                                    format!("OK version={applied}\n")
                                } else {
                                    format!(
                                        "ERR repl_timeout waiting for version {version} (applied {applied})\n"
                                    )
                                };
                                me.serving.park_seconds.observe_since(parked_at);
                                me.unpark(text, admitted);
                            });
                            if repl.register_version_wait(version, timeout, done) {
                                let _ = self.stage(
                                    format!("OK version={}\n", repl.applied_version()).as_bytes(),
                                );
                                SliceOutcome::Done { close: false }
                            } else {
                                SliceOutcome::Parked
                            }
                        }
                        cmd => {
                            let v0 = session.database().version();
                            let reply = protocol::handle_command(&mut session, cmd);
                            // Synchronous replication: a session under
                            // `SET REPLICATION WAIT` has this primary
                            // withhold a mutation's reply until enough
                            // followers ACKed the resulting version.
                            // Detection is the catalog-version delta
                            // across the command — only a successful
                            // write advances it. (Concurrent writers
                            // may inflate v1; ACKs are monotone in
                            // version, so waiting on a later version
                            // still covers this write.)
                            let gate = match (session.repl_wait, session.replication()) {
                                (ReplWait::Off, _) | (_, None) => None,
                                (wait, Some(repl)) if repl.role() == "primary" => {
                                    let v1 = session.database().version();
                                    (v1 > v0 && !reply.close).then(|| {
                                        let need = match wait {
                                            ReplWait::Count(n) => n as usize,
                                            ReplWait::Majority => repl.majority_need(),
                                            ReplWait::Off => 0,
                                        };
                                        (Arc::clone(repl), v1, need)
                                    })
                                }
                                _ => None,
                            };
                            match gate {
                                Some((repl, v1, need)) if need > 0 => {
                                    let timeout = session.repl_wait_timeout;
                                    let inline = reply.text.clone();
                                    let me = Arc::clone(&self);
                                    let text = reply.text;
                                    let parked_at = Instant::now();
                                    let done = Box::new(move |ok: bool| {
                                        let text = if ok {
                                            text
                                        } else {
                                            format!(
                                                "ERR repl_timeout write committed at version {v1} but {need} follower ack(s) did not arrive in {}ms (the write is durable and replicating; only the synchronous confirmation timed out)\n",
                                                timeout.as_millis()
                                            )
                                        };
                                        me.serving.park_seconds.observe_since(parked_at);
                                        me.unpark(text, admitted);
                                    });
                                    if repl.register_ack_wait(v1, need, timeout, done) {
                                        // Already acked by the time the
                                        // write returned — reply now.
                                        let _ = self.stage(inline.as_bytes());
                                        SliceOutcome::Done { close: false }
                                    } else {
                                        SliceOutcome::Parked
                                    }
                                }
                                _ => {
                                    let _ = self.stage(reply.text.as_bytes());
                                    SliceOutcome::Done { close: reply.close }
                                }
                            }
                        }
                    }
                };
                self.serving.slice_seconds.observe_since(slice_start);
                let close = match outcome {
                    SliceOutcome::Parked => {
                        // The park: return not-runnable WITHOUT
                        // settling `running` and WITHOUT releasing the
                        // admission slot. The scheduler forgets the
                        // connection, `ingest` cannot re-enqueue it
                        // (running is still set), and no worker thread
                        // is held across the wait. `Conn::unpark`
                        // finishes what this slice started.
                        return false;
                    }
                    SliceOutcome::Done { close } => close,
                };
                if admitted {
                    self.serving.finish();
                }
                if close {
                    let mut st = self.st.lock().unwrap_or_else(|e| e.into_inner());
                    st.closing = true;
                    // Input pipelined behind QUIT is not executed —
                    // same as the blocking server, which stopped
                    // reading after BYE.
                    self.drop_pending(&mut st);
                }
            }
        }
        // Settle the running flag BEFORE notifying the reactor: the
        // notification triggers `update_conn`, whose graceful-close
        // reap requires `!running`. Notifying first would let the
        // reactor observe `closing && running`, skip the reap, and —
        // with this slice returning not-runnable — never be told
        // again, leaking the connection (and its socket) forever.
        let again = {
            let mut st = self.st.lock().unwrap_or_else(|e| e.into_inner());
            if self.broken.load(Ordering::Acquire) {
                self.drop_pending(&mut st);
            }
            if st.pending.is_empty() {
                st.running = false;
                false
            } else {
                true
            }
        };
        self.shared.notify(&self);
        again
    }
}

/// The reactor: accepts connections, turns socket bytes into queued
/// commands, and ships staged replies back out. Runs on one thread;
/// everything it owns exclusively lives here rather than in `Conn`.
pub(crate) struct Reactor {
    shared: Arc<ReactorShared>,
    scheduler: Arc<Scheduler>,
    manager: Arc<SessionManager>,
    serving: Arc<ServingCounters>,
    listener: TcpListener,
    /// Optional Prometheus scrape endpoint (`--metrics-addr`): plain
    /// HTTP/1.0 `GET /metrics`, served by this same reactor thread.
    metrics_listener: Option<TcpListener>,
    conns: HashMap<u64, Arc<Conn>>,
    http_conns: HashMap<u64, HttpConn>,
    next_token: u64,
    active: Arc<AtomicUsize>,
    limits: Limits,
}

/// One scrape connection: buffered request head in, one response out,
/// then close. Scrapes are tiny and rare, so no flow control beyond a
/// request-size cap.
struct HttpConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    pos: usize,
}

fn find_newline(haystack: &[u8]) -> Option<usize> {
    haystack.iter().position(|&b| b == b'\n')
}

fn oversize_reply() -> String {
    format!("ERR request exceeds {MAX_REQUEST_BYTES} bytes\n")
}

impl Reactor {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        listener: TcpListener,
        metrics_listener: Option<TcpListener>,
        shared: Arc<ReactorShared>,
        scheduler: Arc<Scheduler>,
        manager: Arc<SessionManager>,
        serving: Arc<ServingCounters>,
        active: Arc<AtomicUsize>,
        limits: Limits,
    ) -> io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        shared
            .epoll
            .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        shared
            .epoll
            .add(shared.wake.read_fd(), EPOLLIN, TOKEN_WAKE)?;
        if let Some(ml) = &metrics_listener {
            ml.set_nonblocking(true)?;
            shared.epoll.add(ml.as_raw_fd(), EPOLLIN, TOKEN_METRICS)?;
        }
        Ok(Reactor {
            shared,
            scheduler,
            manager,
            serving,
            listener,
            metrics_listener,
            conns: HashMap::new(),
            http_conns: HashMap::new(),
            next_token: 0,
            active,
            limits,
        })
    }

    pub fn run(mut self) {
        let mut events = Vec::new();
        let mut draining = false;
        let mut deadline = None;
        loop {
            let timeout = if draining { 20 } else { -1 };
            if self.shared.epoll.wait(&mut events, 256, timeout).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.shared.wake.drain(),
                    TOKEN_LISTENER => self.accept_ready(draining),
                    TOKEN_METRICS => self.accept_metrics(draining),
                    token => {
                        if let Some(conn) = self.conns.get(&token).cloned() {
                            if ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                                self.handle_readable(&conn);
                            }
                            self.update_conn(&conn);
                        } else if self.http_conns.contains_key(&token) {
                            self.step_http(token);
                        }
                    }
                }
            }
            // Worker notifications: flush/adjust the connections whose
            // state changed off-reactor.
            let dirty =
                std::mem::take(&mut *self.shared.dirty.lock().unwrap_or_else(|e| e.into_inner()));
            for conn in dirty {
                conn.dirty.store(false, Ordering::Release);
                if self.conns.contains_key(&conn.token) {
                    self.update_conn(&conn);
                }
            }
            if !draining && self.shared.shutdown.load(Ordering::Acquire) {
                // Begin the drain: stop accepting, stop reading, let
                // queued work finish and flush.
                draining = true;
                deadline = Some(Instant::now() + self.limits.drain_timeout);
                let _ = self.shared.epoll.delete(self.listener.as_raw_fd());
                for conn in self.conns.values() {
                    conn.st.lock().unwrap_or_else(|e| e.into_inner()).closing = true;
                }
            }
            if draining {
                let overdue = deadline.is_some_and(|d| Instant::now() >= d);
                for conn in self.conns.values().cloned().collect::<Vec<_>>() {
                    if overdue {
                        conn.broken.store(true, Ordering::Release);
                        conn.out_cv.notify_all();
                    }
                    self.update_conn(&conn);
                }
                if self.conns.is_empty() || overdue {
                    break;
                }
            }
        }
        // Scrape connections hold no replies worth draining: close them.
        for http in std::mem::take(&mut self.http_conns).into_values() {
            let _ = self.shared.epoll.delete(http.stream.as_raw_fd());
        }
        // Anything still registered at this point is force-closed.
        for conn in std::mem::take(&mut self.conns).into_values() {
            conn.broken.store(true, Ordering::Release);
            conn.out_cv.notify_all();
            let _ = self.shared.epoll.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            let mut st = conn.st.lock().unwrap_or_else(|e| e.into_inner());
            conn.drop_pending(&mut st);
            self.active.fetch_sub(1, Ordering::Relaxed);
        }
        self.shared.clear_dirty();
    }

    fn accept_ready(&mut self, draining: bool) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if !draining {
                        self.add_conn(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_metrics(&mut self, draining: bool) {
        let Some(listener) = &self.metrics_listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if draining || stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .shared
                        .epoll
                        .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
                        .is_err()
                    {
                        continue;
                    }
                    self.http_conns.insert(
                        token,
                        HttpConn {
                            stream,
                            inbuf: Vec::new(),
                            out: Vec::new(),
                            pos: 0,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Render the `GET /metrics` response body: the catalog registry
    /// (server/engine/store/replication families) plus the process-wide
    /// one (sampling runtime).
    fn render_metrics(&self) -> String {
        let mut body = String::new();
        self.manager
            .database()
            .obs_registry()
            .render_into(&mut body);
        pip_obs::Registry::global().render_into(&mut body);
        body
    }

    /// Drive one scrape connection: buffer the request head, answer one
    /// response, close when it is flushed. Any protocol or socket
    /// trouble just drops the connection — scrapes are best-effort.
    fn step_http(&mut self, token: u64) {
        let Some(mut http) = self.http_conns.remove(&token) else {
            return;
        };
        let mut drop_conn = false;
        let mut eof = false;
        if http.out.is_empty() {
            // Still reading the request head.
            let mut buf = [0u8; 4096];
            loop {
                match (&http.stream).read(&mut buf) {
                    Ok(0) => {
                        drop_conn = http.inbuf.is_empty();
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        http.inbuf.extend_from_slice(&buf[..n]);
                        if http.inbuf.len() > 16 * 1024 {
                            drop_conn = true; // not a scrape request
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }
            let head_complete = eof
                || http.inbuf.windows(4).any(|w| w == b"\r\n\r\n")
                || http.inbuf.windows(2).any(|w| w == b"\n\n");
            if !drop_conn && head_complete {
                let request = String::from_utf8_lossy(&http.inbuf);
                let target = request.split_whitespace().nth(1).unwrap_or("");
                let is_get = request.starts_with("GET ") || request.starts_with("get ");
                let (status, body) = if is_get && (target == "/metrics" || target == "/metrics/") {
                    ("200 OK", self.render_metrics())
                } else {
                    (
                        "404 Not Found",
                        "not found (try GET /metrics)\n".to_string(),
                    )
                };
                http.out = format!(
                    "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes();
                let _ = self
                    .shared
                    .epoll
                    .modify(http.stream.as_raw_fd(), EPOLLOUT, token);
            }
        }
        if !drop_conn && !http.out.is_empty() {
            while http.pos < http.out.len() {
                match (&http.stream).write(&http.out[http.pos..]) {
                    Ok(0) => {
                        drop_conn = true;
                        break;
                    }
                    Ok(n) => http.pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }
            if http.pos == http.out.len() {
                drop_conn = true; // response delivered
            }
        }
        if drop_conn {
            let _ = self.shared.epoll.delete(http.stream.as_raw_fd());
        } else {
            self.http_conns.insert(token, http);
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let session = self.manager.open();
        let banner = format!(
            "PIP server ready (session {}); commands: QUERY/STREAM/PREPARE/EXEC/SET/CHECKPOINT/STATS/PING/QUIT\n",
            session.id()
        );
        let token = self.next_token;
        self.next_token += 1;
        let conn = Arc::new(Conn {
            token,
            stream,
            dirty: AtomicBool::new(false),
            broken: AtomicBool::new(false),
            session: Mutex::new(session),
            st: Mutex::new(ConnState {
                inbuf: Vec::new(),
                skipping: false,
                pending: VecDeque::new(),
                running: false,
                closing: false,
                read_paused: false,
                interest: EPOLLIN | EPOLLRDHUP,
            }),
            out: Mutex::new(OutBuf {
                buf: banner.into_bytes(),
                pos: 0,
            }),
            out_cv: Condvar::new(),
            shared: Arc::clone(&self.shared),
            serving: Arc::clone(&self.serving),
            scheduler: Arc::clone(&self.scheduler),
            limits: self.limits,
        });
        if self
            .shared
            .epoll
            .add(conn.stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
            .is_err()
        {
            return;
        }
        self.serving.accepts.inc();
        self.active.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(token, Arc::clone(&conn));
        self.update_conn(&conn); // flush the banner
    }

    /// Read everything available, decoding complete request lines into
    /// the connection's FIFO as they appear.
    fn handle_readable(&mut self, conn: &Arc<Conn>) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            {
                let st = conn.st.lock().unwrap_or_else(|e| e.into_inner());
                if st.closing || st.read_paused || self.broken(conn) {
                    return;
                }
            }
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    self.ingest(conn, &[], true);
                    return;
                }
                Ok(n) => {
                    self.serving.read_bytes.add(n as u64);
                    self.ingest(conn, &buf[..n], false);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.broken.store(true, Ordering::Release);
                    conn.out_cv.notify_all();
                    return;
                }
            }
        }
    }

    fn broken(&self, conn: &Conn) -> bool {
        conn.broken.load(Ordering::Acquire)
    }

    /// Decode `data` (plus any carried partial line) into queued
    /// commands; `eof` means the peer half-closed, which executes any
    /// unterminated trailing request and begins a graceful close —
    /// exactly the blocking server's `read_line`-at-EOF semantics.
    fn ingest(&mut self, conn: &Arc<Conn>, data: &[u8], eof: bool) {
        let mut st = conn.st.lock().unwrap_or_else(|e| e.into_inner());
        let st = &mut *st;
        let mut i = 0;
        while i < data.len() && !self.broken(conn) {
            if st.skipping {
                match find_newline(&data[i..]) {
                    Some(j) => {
                        st.skipping = false;
                        self.serving.oversize_kills.inc();
                        st.pending.push_back(Pending::Reply(oversize_reply()));
                        i += j + 1;
                    }
                    None => break, // discard the whole chunk
                }
            } else {
                match find_newline(&data[i..]) {
                    Some(j) => {
                        if st.inbuf.len() + j > MAX_REQUEST_BYTES {
                            st.inbuf.clear();
                            self.serving.oversize_kills.inc();
                            st.pending.push_back(Pending::Reply(oversize_reply()));
                        } else if st.inbuf.is_empty() {
                            enqueue_line(st, conn, &data[i..i + j], &self.serving);
                        } else {
                            st.inbuf.extend_from_slice(&data[i..i + j]);
                            let line = std::mem::take(&mut st.inbuf);
                            enqueue_line(st, conn, &line, &self.serving);
                        }
                        i += j + 1;
                    }
                    None => {
                        st.inbuf.extend_from_slice(&data[i..]);
                        i = data.len();
                        if st.inbuf.len() > MAX_REQUEST_BYTES {
                            // Oversized: drop what we buffered and keep
                            // discarding until the newline arrives.
                            st.inbuf.clear();
                            st.skipping = true;
                        }
                    }
                }
            }
        }
        if eof {
            if !st.skipping && !st.inbuf.is_empty() {
                let line = std::mem::take(&mut st.inbuf);
                enqueue_line(st, conn, &line, &self.serving);
            }
            st.closing = true;
        }
        if !st.running && !self.broken(conn) {
            conn.serve_cached_heads(st);
        }
        if st.pending.len() >= self.limits.max_pipeline {
            if !st.read_paused {
                self.serving.backpressure_pauses.inc();
            }
            st.read_paused = true;
        }
        if !st.running && !st.pending.is_empty() && !self.broken(conn) {
            st.running = true;
            self.scheduler.enqueue(Arc::clone(conn) as Arc<dyn Work>);
        }
    }

    /// Flush staged output, recompute epoll interest, resume paused
    /// reads, and reap the connection once it is drained (or broken).
    fn update_conn(&mut self, conn: &Arc<Conn>) {
        let mut broke = false;
        let mut flushed = 0u64;
        let unsent = {
            let mut out = conn.out.lock().unwrap_or_else(|e| e.into_inner());
            while out.pos < out.buf.len() {
                match (&conn.stream).write(&out.buf[out.pos..]) {
                    Ok(0) => {
                        broke = true;
                        break;
                    }
                    Ok(n) => {
                        out.pos += n;
                        flushed += n as u64;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broke = true;
                        break;
                    }
                }
            }
            if out.pos == out.buf.len() {
                out.buf.clear();
                out.pos = 0;
            } else if out.pos > (1 << 16) {
                // Reclaim the flushed prefix of a long-lived backlog.
                let pos = out.pos;
                out.buf.drain(..pos);
                out.pos = 0;
            }
            out.unsent()
        };
        if flushed > 0 {
            self.serving.flushed_bytes.add(flushed);
        }
        if broke {
            conn.broken.store(true, Ordering::Release);
        }
        // Space freed (or the connection died): unblock staging workers.
        conn.out_cv.notify_all();

        let mut remove = false;
        {
            let mut st = conn.st.lock().unwrap_or_else(|e| e.into_inner());
            if self.broken(conn) {
                remove = true;
            } else if st.closing && !st.running && st.pending.is_empty() && unsent == 0 {
                remove = true; // graceful close: everything ran + flushed
            } else {
                if st.read_paused && !st.closing && st.pending.len() * 2 <= self.limits.max_pipeline
                {
                    st.read_paused = false;
                }
                let mut want = 0;
                if !st.closing && !st.read_paused {
                    want |= EPOLLIN | EPOLLRDHUP;
                }
                if unsent > 0 {
                    want |= EPOLLOUT;
                }
                if want != st.interest {
                    match self
                        .shared
                        .epoll
                        .modify(conn.stream.as_raw_fd(), want, conn.token)
                    {
                        Ok(()) => st.interest = want,
                        Err(_) => {
                            conn.broken.store(true, Ordering::Release);
                            remove = true;
                        }
                    }
                }
            }
        }
        if remove {
            self.reap(conn);
        }
    }

    fn reap(&mut self, conn: &Arc<Conn>) {
        if self.conns.remove(&conn.token).is_none() {
            return; // already reaped
        }
        conn.broken.store(true, Ordering::Release);
        conn.out_cv.notify_all();
        let _ = self.shared.epoll.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        let mut st = conn.st.lock().unwrap_or_else(|e| e.into_inner());
        conn.drop_pending(&mut st);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Parse one request line into the FIFO, applying admission control to
/// expensive commands at decode time.
fn enqueue_line(st: &mut ConnState, conn: &Conn, line: &[u8], serving: &ServingCounters) {
    let Ok(text) = std::str::from_utf8(line) else {
        // Binary garbage: drop the connection, as the blocking server's
        // `read_line` did.
        serving.utf8_kills.inc();
        conn.broken.store(true, Ordering::Release);
        return;
    };
    if text.trim().is_empty() {
        return;
    }
    match protocol::parse_command(text) {
        Err(e) => st
            .pending
            .push_back(Pending::Reply(protocol::Reply::err(e).text)),
        Ok(cmd) => {
            let expensive = matches!(
                cmd,
                Command::Query(_) | Command::Exec(_) | Command::Stream(_)
            );
            if expensive && !serving.try_admit() {
                st.pending.push_back(Pending::Reply(format!(
                    "ERR busy (admission queue full, capacity {})\n",
                    serving.capacity()
                )));
            } else {
                st.pending.push_back(Pending::Cmd {
                    cmd,
                    admitted: expensive,
                    admitted_at: expensive.then(Instant::now),
                });
            }
        }
    }
}
