//! Deterministic parallel Monte-Carlo runtime.
//!
//! Monte-Carlo integration of PIP's expectation/confidence operators is
//! embarrassingly parallel — every sampled world is independent — but a
//! naive fan-out would make results depend on thread scheduling. This
//! module keeps the paper's reproducibility guarantee (Section III-B:
//! seeds derive from identity, not execution order) under parallelism:
//!
//! * [`ParallelSampler`] — a fixed pool of worker threads executing
//!   index-addressed work items. Output slot `i` is always produced by
//!   work item `i`, so the merged result is a pure function of the
//!   inputs regardless of which thread ran what.
//! * **Row fan-out** — aggregate operators (`expected_sum` et al.)
//!   already seed each row's sampler from `(world_seed, row index)`;
//!   [`expected_sum_parallel`] and friends evaluate rows concurrently
//!   and fold partial results in row order, bit-identical to the serial
//!   loop for every thread count.
//! * **Chunked expectation** — [`expectation_chunked`] splits one
//!   operator's sample budget into fixed-size chunks, each with an RNG
//!   stream seeded from `(world_seed, site, chunk index)`. Chunks merge
//!   in chunk order and the adaptive stopping rule fires at chunk
//!   boundaries, so the estimate is bit-stable from 1 thread to N.
//!
//! The confidence-interval machinery is unchanged — partial sums merge
//! into the same [`ExpectationResult`] CLT statistics the serial
//! operator produces (cf. `confidence.rs`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use pip_core::{PipError, Result};
use pip_dist::{mix64, rng_from_seed};
use pip_expr::{Assignment, Conjunction, Equation};

use pip_ctable::CTable;

use crate::aggregate::AggregateResult;
use crate::confidence::conf;
use crate::config::SamplerConfig;
use crate::expectation::{
    condition_probability, expectation, linear_exact, prepare, ExpectationResult, Prepared,
};

/// Domain-separation constants for per-chunk / per-purpose RNG streams.
const CHUNK_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;
const PROBABILITY_STREAM: u64 = 0x5D8F_21C6_0F14_9A3B;

/// Chunks dispatched per scheduling wave of the chunked executor. The
/// wave size is a *constant*: making it depend on the thread count
/// would move the adaptive stopping point and break bit-stability.
const WAVE_CHUNKS: usize = 8;

// ---------------------------------------------------------------------
// The fixed thread pool.
// ---------------------------------------------------------------------

/// An index-addressed unit of pool work: claim indices, run, mark done.
struct Job {
    /// Total number of work items.
    n: usize,
    /// Next unclaimed index (may overshoot `n`).
    claim: AtomicUsize,
    /// Maximum *helper* threads (the submitting thread always drives).
    helper_limit: usize,
    /// Helpers currently driving this job.
    helpers: AtomicUsize,
    /// The work closure. Lifetime-erased: the submitter keeps the real
    /// closure alive on its stack until `completed == n`, and indices
    /// `>= n` are never executed, so the reference is never dangling
    /// when dereferenced.
    run: &'static (dyn Fn(usize) + Sync),
    /// Completed item count, paired with `done` for the submitter wait.
    completed: Mutex<usize>,
    done: Condvar,
    /// First panic message observed while running items.
    panicked: Mutex<Option<String>>,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.claim.load(Ordering::Relaxed) >= self.n
    }

    /// Claim and run items until none remain.
    fn drive(&self) {
        loop {
            let i = self.claim.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.run)(i)));
            if let Err(payload) = outcome {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "unknown panic".to_string());
                let mut p = self.panicked.lock().unwrap_or_else(|e| e.into_inner());
                p.get_or_insert(msg);
            }
            let mut c = self.completed.lock().unwrap_or_else(|e| e.into_inner());
            *c += 1;
            if *c == self.n {
                self.done.notify_all();
            }
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// A fixed pool of sampling worker threads.
///
/// Work is submitted as `n` indexed items; workers and the submitting
/// thread claim indices from a shared counter and each index writes its
/// own output slot, so results are position-stable. Submitting from
/// inside a worker (nested parallelism) is safe: the submitter always
/// participates, so progress never depends on free workers.
pub struct ParallelSampler {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ParallelSampler {
    /// A pool able to run `threads` work items concurrently (the
    /// submitting thread counts, so `threads - 1` workers are spawned).
    /// `threads <= 1` spawns no workers and runs everything inline.
    pub fn new(threads: usize) -> Self {
        Self::with_workers(threads.saturating_sub(1))
    }

    /// A pool with exactly `n_workers` background worker threads.
    pub fn with_workers(n_workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pip-sampler-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sampler worker")
            })
            .collect();
        ParallelSampler { shared, workers }
    }

    /// The process-wide shared pool used by the engine and server. Sized
    /// for the machine (at least 3 workers so multi-thread configs can
    /// be exercised even on small containers).
    pub fn global() -> &'static ParallelSampler {
        static GLOBAL: OnceLock<ParallelSampler> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            ParallelSampler::with_workers(cores.max(4) - 1)
        })
    }

    /// Background worker threads in this pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Evaluate `f(0..n)` with up to `parallelism` concurrent executors
    /// (capped by pool size + 1) and return the outputs in index order.
    ///
    /// Output `i` is always `f(i)`; thread count and scheduling cannot
    /// change the result, only the wall-clock time. Panics in `f` are
    /// re-raised on the submitting thread after all items settle.
    pub fn run<T, F>(&self, parallelism: usize, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let helper_limit = parallelism.max(1).saturating_sub(1).min(self.workers.len());
        if helper_limit == 0 || n == 1 {
            return (0..n).map(f).collect();
        }

        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let work = |i: usize| {
            let v = f(i);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
        };
        let work_ref: &(dyn Fn(usize) + Sync) = &work;
        // SAFETY: `run` outlives this call only inside queue entries that
        // are already exhausted (`claim >= n`) and therefore never invoke
        // it again; we block below until every claimed index completed.
        let work_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(work_ref) };
        let job = Arc::new(Job {
            n,
            claim: AtomicUsize::new(0),
            helper_limit,
            helpers: AtomicUsize::new(0),
            run: work_static,
            completed: Mutex::new(0),
            done: Condvar::new(),
            panicked: Mutex::new(None),
        });
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(Arc::clone(&job));
        }
        self.shared.work_ready.notify_all();

        job.drive();

        let mut completed = job.completed.lock().unwrap_or_else(|e| e.into_inner());
        while *completed < n {
            completed = job.done.wait(completed).unwrap_or_else(|e| e.into_inner());
        }
        drop(completed);

        if let Some(msg) = job
            .panicked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            panic!("ParallelSampler work item panicked: {msg}");
        }
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("all items completed")
            })
            .collect()
    }
}

impl Drop for ParallelSampler {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under that
        // lock before waiting, so the notify below cannot slip in between
        // its check and its wait and leave `join` hanging.
        {
            let _q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q.retain(|j| !j.exhausted());
                let mut picked = None;
                for j in q.iter() {
                    let joined = j
                        .helpers
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                            (h < j.helper_limit).then_some(h + 1)
                        })
                        .is_ok();
                    if joined {
                        picked = Some(Arc::clone(j));
                        break;
                    }
                }
                if let Some(j) = picked {
                    break j;
                }
                q = shared.work_ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.drive();
        job.helpers.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Mergeable accumulators.
// ---------------------------------------------------------------------

/// Partial Monte-Carlo sums produced by one chunk of worlds, mergeable
/// in chunk order into the statistics [`ExpectationResult`] reports.
#[derive(Debug, Clone, Default)]
pub struct ChunkAccumulator {
    /// Samples accumulated.
    pub n: usize,
    /// Σ value.
    pub sum: f64,
    /// Σ value².
    pub sum_sq: f64,
    /// Any group fell back to Metropolis inside this chunk.
    pub used_metropolis: bool,
    /// Sampler failure (rejection cap exhausted): the chunk aborted
    /// early and the executor stops consuming chunks, mirroring the
    /// serial operator, which treats it as numerical unsatisfiability
    /// and keeps the samples drawn so far (Algorithm 4.3 line 25).
    pub sampling_error: Option<PipError>,
    /// Expression-evaluation failure: fatal, propagated as `Err` —
    /// exactly like the serial operator's `expr.eval_f64(&a)?`.
    pub eval_error: Option<PipError>,
}

impl ChunkAccumulator {
    /// Fold `other` into `self`. Merging is performed in ascending chunk
    /// order by the executor, which is what pins down the adaptive
    /// stopping point; the sums themselves are order-insensitive.
    pub fn merge(&mut self, other: &ChunkAccumulator) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.used_metropolis |= other.used_metropolis;
        if self.sampling_error.is_none() {
            self.sampling_error = other.sampling_error.clone();
        }
        if self.eval_error.is_none() {
            self.eval_error = other.eval_error.clone();
        }
    }

    /// Running mean.
    pub fn mean(&self) -> f64 {
        self.sum / self.n as f64
    }

    /// Standard error of the running mean.
    pub fn std_error(&self) -> f64 {
        let mean = self.mean();
        let var = (self.sum_sq / self.n as f64 - mean * mean).max(0.0);
        (var / self.n as f64).sqrt()
    }
}

// ---------------------------------------------------------------------
// Chunked single-operator execution.
// ---------------------------------------------------------------------

/// RNG stream for `(site, chunk)` — depends only on identity.
fn chunk_rng(cfg: &SamplerConfig, site: u64, chunk_idx: u64) -> pip_dist::PipRng {
    rng_from_seed(mix64(
        mix64(cfg.world_seed ^ site) ^ (chunk_idx + 1).wrapping_mul(CHUNK_STREAM),
    ))
}

/// Compiled twin of [`eval_chunk`]: fresh kernels per chunk, one cached
/// columnar block fill (the identical draw sequence — sample-major, per
/// chunk stream), tape evaluation over the block. Returns `None` on a
/// Metropolis escalation, in which case the caller runs the interpreted
/// [`eval_chunk`], whose result this reproduces bit for bit otherwise.
fn eval_chunk_compiled(
    cq: &crate::blocks::CompiledQuery,
    cfg: &SamplerConfig,
    site: u64,
    chunk_idx: u64,
    len: usize,
) -> Option<ChunkAccumulator> {
    let mut kernels = cq.kernels.clone();
    let mut rng = chunk_rng(cfg, site, chunk_idx);
    let block = crate::blocks::fill_block_cached(
        &mut kernels,
        &mut rng,
        cfg,
        cq.slots.len(),
        len,
        cfg.reuse_blocks,
    )?;
    let (mut regs, mut values) = (Vec::new(), Vec::new());
    let first_err = cq.expr.eval_block(
        &block.data,
        block.requested,
        block.filled,
        &mut regs,
        &mut values,
    );
    let mut acc = ChunkAccumulator::default();
    for (s, &v) in values.iter().enumerate().take(block.filled) {
        if first_err == Some(s) {
            acc.eval_error = Some(crate::tape::div_by_zero());
            break;
        }
        acc.n += 1;
        acc.sum += v;
        acc.sum_sq += v * v;
    }
    if acc.eval_error.is_none() {
        acc.sampling_error = block.sampling_error.clone();
    }
    Some(acc)
}

/// Draw `len` conditioned samples of `expr` with a chunk-private RNG
/// stream and fresh sampler state.
fn eval_chunk(
    expr: &Equation,
    prep: &Prepared,
    cfg: &SamplerConfig,
    site: u64,
    chunk_idx: u64,
    len: usize,
) -> ChunkAccumulator {
    let mut samplers = prep.fresh_samplers(cfg);
    let mut rng = chunk_rng(cfg, site, chunk_idx);
    let mut a = Assignment::new();
    let mut acc = ChunkAccumulator::default();
    'sample: for _ in 0..len {
        for &i in &prep.relevant {
            if let Err(e) = samplers[i].sample_into(&mut rng, cfg, &prep.bounds, &mut a) {
                acc.sampling_error = Some(e);
                break 'sample;
            }
        }
        match expr.eval_f64(&a) {
            Ok(v) => {
                acc.n += 1;
                acc.sum += v;
                acc.sum_sq += v * v;
            }
            Err(e) => {
                acc.eval_error = Some(e);
                break 'sample;
            }
        }
    }
    acc.used_metropolis = samplers.iter().any(|s| s.uses_metropolis());
    acc
}

/// `P[condition]` with a dedicated deterministic stream, independent of
/// the averaging loop (unlike the serial operator, which reuses loop
/// acceptance counts — the chunked result must not depend on how many
/// chunks the stopping rule consumed).
fn fresh_condition_probability(prep: &Prepared, cfg: &SamplerConfig, site: u64) -> Result<f64> {
    let mut fresh = Prepared {
        samplers: prep.fresh_samplers(cfg),
        relevant: prep.relevant.clone(),
        bounds: prep.bounds.clone(),
        condition: prep.condition.clone(),
    };
    let mut rng = rng_from_seed(mix64(cfg.world_seed ^ site ^ PROBABILITY_STREAM));
    condition_probability(&mut fresh, &[], cfg, &mut rng)
}

/// Compute `E[expr | condition]` (and optionally `P[condition]`) on the
/// pool, bit-identically for every thread count.
///
/// The operator's sample budget is split into `cfg.chunk_samples`-sized
/// chunks with per-chunk RNG streams seeded by `(world_seed, site,
/// chunk index)`. Chunks are evaluated in waves of [`WAVE_CHUNKS`] and
/// merged strictly in chunk order; the ε–δ stopping rule of Algorithm
/// 4.3 is applied at chunk boundaries. All exact fast paths (constant
/// expressions, linearity of expectation, CDF integration) are shared
/// with the serial operator.
pub fn expectation_chunked(
    expr: &Equation,
    condition: &Conjunction,
    want_probability: bool,
    cfg: &SamplerConfig,
    site: u64,
    pool: &ParallelSampler,
) -> Result<ExpectationResult> {
    let expr = expr.simplify();
    let prep = match prepare(&expr, condition, cfg) {
        None => return Ok(ExpectationResult::nan(want_probability)),
        Some(p) => p,
    };

    if let Some(v) = expr.as_const() {
        let expectation = v.as_f64()?;
        let probability = if want_probability {
            fresh_condition_probability(&prep, cfg, site)?
        } else {
            f64::NAN
        };
        return Ok(ExpectationResult {
            expectation,
            probability,
            n_samples: 0,
            std_error: 0.0,
            used_metropolis: false,
        });
    }

    if let Some(expectation) = linear_exact(&expr, &prep, cfg) {
        return Ok(ExpectationResult {
            expectation,
            probability: if want_probability { 1.0 } else { f64::NAN },
            n_samples: 0,
            std_error: 0.0,
            used_metropolis: false,
        });
    }

    // Compile once per operator; every chunk clones the fresh kernels.
    // A chunk that escalates to Metropolis falls back to the interpreted
    // eval_chunk (identical numbers either way).
    let compiled = if cfg.compile {
        crate::blocks::CompiledQuery::compile(&expr, &prep)
    } else {
        None
    };

    let chunk = cfg.chunk_samples.max(1);
    let budget = cfg.max_samples.max(1);
    let n_chunks = budget.div_ceil(chunk);
    let target = cfg.z_target();

    let mut merged = ChunkAccumulator::default();
    let mut next_chunk = 0usize;
    'waves: while next_chunk < n_chunks {
        let wave = WAVE_CHUNKS.min(n_chunks - next_chunk);
        let base = next_chunk;
        let stats = pool.run(cfg.threads, wave, |k| {
            let ci = base + k;
            let len = chunk.min(budget - ci * chunk);
            compiled
                .as_ref()
                .and_then(|cq| eval_chunk_compiled(cq, cfg, site, ci as u64, len))
                .unwrap_or_else(|| eval_chunk(&expr, &prep, cfg, site, ci as u64, len))
        });
        for st in &stats {
            merged.merge(st);
            if st.sampling_error.is_some() || st.eval_error.is_some() {
                break 'waves;
            }
            // Stopping rule: z·SE ≤ δ·|mean| once past the floor.
            if merged.n >= cfg.min_samples
                && target * merged.std_error() <= cfg.delta * merged.mean().abs()
            {
                break 'waves;
            }
        }
        next_chunk += wave;
    }

    // Expression-evaluation failure is fatal, exactly as in the serial
    // averaging loop; sampler exhaustion is not (the partial estimate —
    // or NaN below — stands, per Algorithm 4.3 line 25).
    if let Some(e) = merged.eval_error {
        return Err(e);
    }

    if merged.n == 0 {
        // Not one satisfying sample: numerically unsatisfiable context
        // (Algorithm 4.3 line 25), as in the serial operator.
        return Ok(ExpectationResult::nan(want_probability));
    }

    let probability = if want_probability {
        fresh_condition_probability(&prep, cfg, site)?
    } else {
        f64::NAN
    };

    Ok(ExpectationResult {
        expectation: merged.mean(),
        probability,
        n_samples: merged.n,
        std_error: merged.std_error(),
        used_metropolis: merged.used_metropolis,
    })
}

// ---------------------------------------------------------------------
// Row-parallel aggregate operators.
// ---------------------------------------------------------------------

/// Parallel `expected_sum`: per-row expectations fan out onto the pool
/// (each row already owns the stream `(world_seed, row index)`), partial
/// results fold in row order — bit-identical to the serial operator.
pub fn expected_sum_parallel(
    table: &CTable,
    col: &str,
    cfg: &SamplerConfig,
    pool: &ParallelSampler,
) -> Result<AggregateResult> {
    let idx = table.schema().index_of(col)?;
    let row_cfg = cfg.scaled_for_rows(table.len());
    let rows = table.rows();
    let per_row = pool.run(cfg.threads, rows.len(), |i| {
        expectation(
            &rows[i].cells[idx],
            &rows[i].condition,
            true,
            &row_cfg,
            i as u64,
        )
    });
    let mut total = 0.0;
    let mut n_samples = 0;
    for r in per_row {
        let r = r?;
        n_samples += r.n_samples;
        if r.expectation.is_nan() {
            continue; // unsatisfiable row: present in no world
        }
        total += r.expectation * r.probability;
    }
    Ok(AggregateResult {
        value: total,
        n_samples,
    })
}

/// Parallel `expected_count`: per-row `conf` fan-out, folded in order.
pub fn expected_count_parallel(
    table: &CTable,
    cfg: &SamplerConfig,
    pool: &ParallelSampler,
) -> Result<AggregateResult> {
    let rows = table.rows();
    let per_row = pool.run(cfg.threads, rows.len(), |i| {
        conf(&rows[i].condition, cfg, i as u64)
    });
    let mut total = 0.0;
    for p in per_row {
        total += p?;
    }
    Ok(AggregateResult {
        value: total,
        n_samples: 0,
    })
}

/// Parallel `expected_avg`: the same ratio estimator as the serial
/// operator, both legs row-parallel.
pub fn expected_avg_parallel(
    table: &CTable,
    col: &str,
    cfg: &SamplerConfig,
    pool: &ParallelSampler,
) -> Result<AggregateResult> {
    let s = expected_sum_parallel(table, col, cfg, pool)?;
    let c = expected_count_parallel(table, cfg, pool)?;
    let value = if c.value == 0.0 {
        f64::NAN
    } else {
        s.value / c.value
    };
    Ok(AggregateResult {
        value,
        n_samples: s.n_samples,
    })
}

/// Rows whose confidences are evaluated per scheduling wave of the
/// parallel `expected_max` scan. Constant, like [`WAVE_CHUNKS`]: the
/// set of rows whose `conf` runs must not depend on the thread count.
const MAX_SCAN_WAVE: usize = 16;

/// Parallel `expected_max` (constant cells): the sorted scan of
/// Example 4.4, with row confidences computed a fixed-size wave at a
/// time on the pool. The scan consumes confidences strictly in sorted
/// order and stops at the serial operator's early-exit bound, so both
/// the value and the error behaviour match the serial operator —
/// `conf` failures in a wave's unconsumed speculative tail are
/// discarded, exactly as if they had never been computed.
pub fn expected_max_const_parallel(
    table: &CTable,
    col: &str,
    cfg: &SamplerConfig,
    precision: f64,
    pool: &ParallelSampler,
) -> Result<AggregateResult> {
    let idx = table.schema().index_of(col)?;
    let mut rows: Vec<(f64, usize)> = Vec::with_capacity(table.len());
    for (i, row) in table.rows().iter().enumerate() {
        let v = row.cells[idx]
            .as_const()
            .ok_or_else(|| {
                PipError::Unsupported(format!(
                    "expected_max_const requires constant '{col}' cells; use expected_max_sampled"
                ))
            })?
            .as_f64()?;
        rows.push((v, i));
    }
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));

    let trows = table.rows();
    let mut acc = 0.0;
    let mut carry = 1.0; // Π (1 − p_j) over rows scanned so far
    let mut next = 0usize;
    'scan: while next < rows.len() {
        let wave = &rows[next..(next + MAX_SCAN_WAVE).min(rows.len())];
        let confs = pool.run(cfg.threads, wave.len(), |k| {
            let (_, i) = wave[k];
            conf(&trows[i].condition, cfg, i as u64)
        });
        for (&(v, _), p) in wave.iter().zip(confs) {
            if v.abs() * carry <= precision {
                break 'scan;
            }
            let p = p?;
            acc += v * p * carry;
            carry *= 1.0 - p;
            if carry <= 0.0 {
                break 'scan;
            }
        }
        next += wave.len();
    }
    Ok(AggregateResult {
        value: acc,
        n_samples: 0,
    })
}

/// Parallel row-level confidence column (the `Plan::Conf` head): one
/// `conf` per row, site = row index, results in row order.
pub fn conf_rows_parallel(
    table: &CTable,
    cfg: &SamplerConfig,
    pool: &ParallelSampler,
) -> Result<Vec<f64>> {
    let rows = table.rows();
    pool.run(cfg.threads, rows.len(), |i| {
        conf(&rows[i].condition, cfg, i as u64)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_core::{DataType, Schema};
    use pip_ctable::CRow;
    use pip_dist::prelude::builtin;
    use pip_dist::special;
    use pip_expr::{atoms, RandomVar};

    fn normal(mu: f64, sigma: f64) -> RandomVar {
        RandomVar::create(builtin::normal(), &[mu, sigma]).unwrap()
    }

    #[test]
    fn pool_preserves_index_order() {
        let pool = ParallelSampler::new(4);
        let out = pool.run(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_inline_when_serial() {
        let pool = ParallelSampler::new(1);
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(pool.run(1, 5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pool_supports_nested_submission() {
        let pool = ParallelSampler::new(4);
        let out = pool.run(4, 8, |i| pool.run(4, 4, move |j| i * 10 + j));
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    #[should_panic(expected = "work item panicked")]
    fn pool_propagates_panics() {
        let pool = ParallelSampler::new(4);
        pool.run(4, 16, |i| {
            if i == 7 {
                panic!("boom at {i}");
            }
            i
        });
    }

    #[test]
    fn chunked_expectation_bit_stable_across_thread_counts() {
        let y = normal(0.0, 1.0);
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 0.5));
        let expr = Equation::from(y);
        let baseline = {
            let cfg = SamplerConfig::fixed_samples(2000).with_threads(1);
            expectation_chunked(&expr, &cond, true, &cfg, 3, &ParallelSampler::new(1)).unwrap()
        };
        for threads in [2usize, 4, 8] {
            let cfg = SamplerConfig::fixed_samples(2000).with_threads(threads);
            let pool = ParallelSampler::new(threads);
            let r = expectation_chunked(&expr, &cond, true, &cfg, 3, &pool).unwrap();
            assert_eq!(r, baseline, "threads={threads} diverged");
        }
    }

    #[test]
    fn chunked_matches_truth() {
        // E[Y | Y > 1] = φ(1)/(1−Φ(1)) ≈ 1.5251 for Y ~ N(0,1).
        let y = normal(0.0, 1.0);
        let cond = Conjunction::single(atoms::gt(Equation::from(y.clone()), 1.0));
        let cfg = SamplerConfig::fixed_samples(4000).with_threads(4);
        let pool = ParallelSampler::new(4);
        let r = expectation_chunked(&Equation::from(y), &cond, true, &cfg, 0, &pool).unwrap();
        assert!((r.expectation - 1.5251).abs() < 0.1, "{}", r.expectation);
        let p_truth = 1.0 - special::normal_cdf(1.0);
        assert!((r.probability - p_truth).abs() < 1e-9, "{}", r.probability);
        assert!(r.n_samples > 0);
    }

    #[test]
    fn chunked_keeps_exact_paths() {
        // Linear fast path: no sampling, exact mean — same as serial.
        let y = normal(5.0, 2.0);
        let cfg = SamplerConfig::default().with_threads(4);
        let pool = ParallelSampler::new(4);
        let r = expectation_chunked(
            &Equation::from(y),
            &Conjunction::top(),
            true,
            &cfg,
            0,
            &pool,
        )
        .unwrap();
        assert_eq!(r.expectation, 5.0);
        assert_eq!(r.n_samples, 0);
        assert_eq!(r.probability, 1.0);
    }

    #[test]
    fn chunked_adaptive_stop_fires() {
        let u = RandomVar::create(builtin::uniform(), &[0.999, 1.001]).unwrap();
        let cfg = SamplerConfig {
            min_samples: 16,
            max_samples: 100_000,
            ..Default::default()
        }
        .with_threads(4);
        let pool = ParallelSampler::new(4);
        let r = expectation_chunked(
            &Equation::from(u),
            &Conjunction::top(),
            false,
            &cfg,
            5,
            &pool,
        )
        .unwrap();
        assert!(r.n_samples < 5000, "stopped after {} samples", r.n_samples);
        assert!((r.expectation - 1.0).abs() < 1e-3);
    }

    #[test]
    fn chunked_inconsistent_is_nan() {
        let y = normal(0.0, 1.0);
        let dead = Conjunction::of(vec![
            atoms::gt(Equation::from(y.clone()), 5.0),
            atoms::lt(Equation::from(y.clone()), 3.0),
        ]);
        let cfg = SamplerConfig::default().with_threads(2);
        let pool = ParallelSampler::new(2);
        let r = expectation_chunked(&Equation::from(y), &dead, true, &cfg, 0, &pool).unwrap();
        assert!(r.expectation.is_nan());
        assert_eq!(r.probability, 0.0);
    }

    fn sum_table(n: usize) -> CTable {
        let schema = Schema::of(&[("v", DataType::Symbolic)]);
        let mut t = CTable::empty(schema);
        for i in 0..n {
            let y = normal(i as f64, 1.0 + (i % 3) as f64);
            let gate = normal(0.0, 1.0);
            t.push(CRow::new(
                vec![Equation::from(y)],
                Conjunction::single(atoms::gt(Equation::from(gate), -0.5)),
            ))
            .unwrap();
        }
        t
    }

    #[test]
    fn row_parallel_aggregates_match_serial_bitwise() {
        use crate::aggregate::{expected_avg, expected_count, expected_sum};
        let t = sum_table(23);
        let serial_cfg = SamplerConfig::fixed_samples(200);
        let par_cfg = serial_cfg.clone().with_threads(4);
        let pool = ParallelSampler::new(4);

        let s0 = expected_sum(&t, "v", &serial_cfg).unwrap();
        let s4 = expected_sum_parallel(&t, "v", &par_cfg, &pool).unwrap();
        assert_eq!(s0, s4);

        let c0 = expected_count(&t, &serial_cfg).unwrap();
        let c4 = expected_count_parallel(&t, &par_cfg, &pool).unwrap();
        assert_eq!(c0, c4);

        let a0 = expected_avg(&t, "v", &serial_cfg).unwrap();
        let a4 = expected_avg_parallel(&t, "v", &par_cfg, &pool).unwrap();
        assert_eq!(a0, a4);
    }

    #[test]
    fn max_parallel_matches_serial_bitwise() {
        use crate::aggregate::expected_max_const;
        let schema = Schema::of(&[("v", DataType::Symbolic)]);
        let mut t = CTable::empty(schema);
        for i in 0..12 {
            let y = normal(0.0, 1.0);
            let z = special::inverse_normal_cdf(1.0 - 0.8 / (1.0 + i as f64 * 0.3));
            t.push(CRow::new(
                vec![Equation::val((12 - i) as f64)],
                Conjunction::single(atoms::gt(Equation::from(y), z)),
            ))
            .unwrap();
        }
        let cfg = SamplerConfig::default();
        let pool = ParallelSampler::new(4);
        for precision in [0.0, 0.1] {
            let serial = expected_max_const(&t, "v", &cfg, precision).unwrap();
            let par = expected_max_const_parallel(
                &t,
                "v",
                &cfg.clone().with_threads(4),
                precision,
                &pool,
            )
            .unwrap();
            assert_eq!(serial, par, "precision {precision}");
        }
    }

    #[test]
    fn conf_rows_match_serial() {
        let t = sum_table(9);
        let cfg = SamplerConfig::default().with_threads(3);
        let pool = ParallelSampler::new(3);
        let par = conf_rows_parallel(&t, &cfg, &pool).unwrap();
        for (i, row) in t.rows().iter().enumerate() {
            assert_eq!(par[i], conf(&row.condition, &cfg, i as u64).unwrap());
        }
    }
}
