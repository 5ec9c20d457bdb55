//! What a run sends and what it expects back: the catalog, the request
//! streams generated from the seed, and the check of every answer.

use std::time::Duration;

use pip_ctable::CRow;
use pip_expr::Equation;
use pip_sampling::SamplerConfig;
use pip_workloads::tpch::{self, TpchConfig, TpchData};

use perfbench::exact::normal_partial_mean;
use perfbench::gen::{Digest, SplitMix, Zipf};
use perfbench::wire::Reply;

/// `groupby_cdf` table: rows in groups, `x ~ Normal(mu, sigma)`. 32 rows
/// keep one adaptive query near 90 ms, so two connections complete the 400
/// checked queries in a 30 s window (256 rows take ~600 ms a query).
pub(crate) const GROUPBY_ROWS: usize = 32;
pub(crate) const GROUPS: usize = 16;
/// Rows of the Q5 table: fewer than 2×cores on the 2-core reference host.
pub(crate) const Q5_ROWS: usize = 3;
/// Poisson demand rate levels of the Q5 rows.
pub(crate) const Q5_RATES: [f64; Q5_ROWS] = [3.0, 6.0, 10.0];
/// Fixed per-query sample budget of `rejection_few_rows`.
pub(crate) const Q5_SAMPLES: usize = 2000;
/// fig6 Q3 join catalog: the `Product` the SQL join plans today has
/// `JOIN_CUSTOMERS × JOIN_SUPPLIERS` rows.
pub(crate) const JOIN_CUSTOMERS: usize = 400;
pub(crate) const JOIN_SUPPLIERS: usize = 100;
pub(crate) const SELECTIVITY: f64 = 0.1;
/// Closed-loop readers send this many point lookups after each query.
pub(crate) const LOOKUPS_PER_ROUND: u64 = 8;
/// Zipf exponent of lookup keys: the hottest 64 keys (the result-cache
/// size) take most lookups.
pub(crate) const ZIPF_S: f64 = 1.2;
pub(crate) const INSERT_ROWS: usize = 10;
/// Text payload bytes per inserted row. A run stays under the 8 MiB
/// checkpoint trigger: recovering a snapshot that holds long strings takes
/// time quadratic in the snapshot's size (the JSON decoder re-validates
/// the rest of the document for every string character), so a snapshot of
/// one window's payload would take hours to recover.
pub(crate) const PAYLOAD_BYTES: usize = 100;
/// Longest think time between the rounds of a `groupby_cdf` connection.
pub(crate) const THINK_MAX: Duration = Duration::from_millis(20);
/// Open-loop rate of the `join_ingest` writer, inserts/s: well under the
/// ~2,000/s one connection sustains closed loop.
pub(crate) const WRITER_RATE: f64 = 25.0;

/// Answers must score under these normalized RMS errors.
pub(crate) fn rms_bound(w: Workload) -> f64 {
    match w {
        Workload::GroupbyCdf => 0.05,
        Workload::RejectionFewRows => 0.5,
        Workload::JoinIngest => 0.05,
    }
}

pub(crate) const JOIN_SQL: &str = "SELECT expected_sum(spend * incr) FROM customers, deliveries \
WHERE supp = supp_id AND duration > thr";
pub(crate) const Q5_SQL: &str = "SELECT id, expected_avg(x - s) FROM r WHERE x > s GROUP BY id";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    GroupbyCdf,
    RejectionFewRows,
    JoinIngest,
}

impl Workload {
    pub(crate) fn parse(s: &str) -> Option<Workload> {
        match s {
            "groupby_cdf" => Some(Workload::GroupbyCdf),
            "rejection_few_rows" => Some(Workload::RejectionFewRows),
            "join_ingest" => Some(Workload::JoinIngest),
            _ => None,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::GroupbyCdf => "groupby_cdf",
            Workload::RejectionFewRows => "rejection_few_rows",
            Workload::JoinIngest => "join_ingest",
        }
    }
}

/// Request classes, each with its own latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Class {
    Query,
    Lookup,
    Insert,
}

/// Generator streams (see [`SplitMix::at`]).
pub(crate) const S_CATALOG: u64 = 1;
pub(crate) const S_QUERY: u64 = 2;
pub(crate) const S_LOOKUP: u64 = 3;
pub(crate) const S_INSERT: u64 = 4;
pub(crate) const S_ARRIVAL: u64 = 5;
pub(crate) const S_THINK: u64 = 6;

pub(crate) struct Request {
    pub(crate) class: Class,
    pub(crate) index: u64,
    pub(crate) sql: String,
    /// Sampling seed for this one query (`SET SEED` around it).
    pub(crate) world_seed: Option<u64>,
}

impl Request {
    pub(crate) fn wire(&self) -> String {
        match self.world_seed {
            Some(s) => format!(
                "SET SEED {s}\nQUERY {}\nSET SEED {}\n",
                self.sql,
                SamplerConfig::default().world_seed
            ),
            None => format!("QUERY {}\n", self.sql),
        }
    }

    pub(crate) fn replies(&self) -> usize {
        if self.world_seed.is_some() {
            3
        } else {
            1
        }
    }

    pub(crate) fn answer_at(&self) -> usize {
        usize::from(self.world_seed.is_some())
    }
}

/// Everything generated from the seed, with the exact answers.
pub(crate) struct Inputs {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    pub(crate) tpch: TpchData,
    /// `(mu, sigma)` of `t` row `i`, which belongs to group `i % GROUPS`.
    pub(crate) groupby: Vec<(f64, f64)>,
    q5_exact: Vec<f64>,
    q3_exact: f64,
    pub(crate) zipf: Zipf,
    pub(crate) key_offset: usize,
    pub(crate) payload: String,
}

impl Inputs {
    pub(crate) fn new(workload: Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix::at(seed, S_CATALOG, 0);
        let mut tpch = tpch::generate(&TpchConfig {
            n_customers: JOIN_CUSTOMERS,
            n_parts: Q5_ROWS,
            n_suppliers: JOIN_SUPPLIERS,
            seed: rng.next_u64(),
        });
        // Demand rates within ±5% of fixed levels: rejection cost depends
        // steeply on the rate, and three rows cannot average it out.
        for (p, level) in tpch.parts.iter_mut().zip(Q5_RATES) {
            p.sales_rate = level * rng.range(0.95, 1.05);
        }
        // Stratified: one mean from each of GROUPBY_ROWS equal strata of
        // [10, 20) and one sigma from each of [1, 3), paired by a seeded
        // shuffle, so every seed's table costs about the same to sample.
        let mut strata: Vec<usize> = (0..GROUPBY_ROWS).collect();
        for i in (1..GROUPBY_ROWS).rev() {
            strata.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let n = GROUPBY_ROWS as f64;
        let groupby = (0..GROUPBY_ROWS)
            .map(|i| {
                let mu = 10.0 + 10.0 * (i as f64 + rng.unit()) / n;
                let sigma = 1.0 + 2.0 * (strata[i] as f64 + rng.unit()) / n;
                (mu, sigma)
            })
            .collect();
        let payload = (0..PAYLOAD_BYTES)
            .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
            .collect();
        Inputs {
            workload,
            seed,
            q5_exact: pip_workloads::queries::q5_exact(&tpch),
            q3_exact: pip_workloads::queries::q3_exact(&tpch, SELECTIVITY),
            tpch,
            groupby,
            zipf: Zipf::new(JOIN_CUSTOMERS, ZIPF_S),
            key_offset: (rng.next_u64() % JOIN_CUSTOMERS as u64) as usize,
            payload,
        }
    }

    /// Catalog DDL/DML beyond the fig6 join tables, as SQL.
    pub(crate) fn catalog_sql(&self) -> Vec<String> {
        let mut out = vec![
            "CREATE INDEX customers_cust ON customers (cust)".to_string(),
            "CREATE TABLE t (g TEXT, x SYMBOLIC)".to_string(),
            "CREATE TABLE r (id INT, x SYMBOLIC, s SYMBOLIC)".to_string(),
            "CREATE TABLE events (id INT, k INT, v FLOAT, p TEXT)".to_string(),
            "CREATE TABLE events_shadow (id INT, k INT, v FLOAT, p TEXT)".to_string(),
        ];
        for (i, (mu, sigma)) in self.groupby.iter().enumerate() {
            out.push(format!(
                "INSERT INTO t VALUES ('g{}', create_variable('Normal', {mu}, {sigma}))",
                i % GROUPS
            ));
        }
        for p in &self.tpch.parts {
            let lambda = p.sales_rate;
            out.push(format!(
                "INSERT INTO r VALUES ({}, create_variable('Poisson', {lambda}), \
                 create_variable('Exponential', {}))",
                p.id,
                1.0 / (20.0 * lambda)
            ));
        }
        out.push("ANALYZE".to_string());
        out
    }

    /// The `i`-th analytical query of this workload.
    pub(crate) fn query(&self, i: u64) -> Request {
        let mut rng = SplitMix::at(self.seed, S_QUERY, i);
        let (sql, world_seed) = match self.workload {
            Workload::GroupbyCdf => {
                let c = rng.range(12.0, 16.0);
                (
                    format!("SELECT g, expected_sum(x), conf() FROM t WHERE x > {c:.5} GROUP BY g"),
                    Some(rng.next_u64() >> 1),
                )
            }
            Workload::RejectionFewRows => (Q5_SQL.to_string(), Some(rng.next_u64() >> 1)),
            Workload::JoinIngest => (JOIN_SQL.to_string(), Some(rng.next_u64() >> 1)),
        };
        Request {
            class: Class::Query,
            index: i,
            sql,
            world_seed,
        }
    }

    /// Round `i` of a closed-loop reader: query `i`, then its lookups.
    pub(crate) fn round(&self, i: u64) -> Vec<Request> {
        let mut out = vec![self.query(i)];
        out.extend((0..LOOKUPS_PER_ROUND).map(|j| self.lookup(i * LOOKUPS_PER_ROUND + j)));
        out
    }

    pub(crate) fn lookup_key(&self, i: u64) -> usize {
        let rank = self
            .zipf
            .sample(SplitMix::at(self.seed, S_LOOKUP, i).unit());
        // 7 is coprime with the key count: a seed-rotated bijection.
        (rank * 7 + self.key_offset) % JOIN_CUSTOMERS
    }

    pub(crate) fn lookup(&self, i: u64) -> Request {
        Request {
            class: Class::Lookup,
            index: i,
            sql: format!(
                "SELECT expected_sum(spend * incr) FROM customers WHERE cust = {}",
                self.lookup_key(i)
            ),
            world_seed: None,
        }
    }

    /// `(id, k, v)` of the rows of insert `i`.
    pub(crate) fn insert_values(&self, i: u64) -> Vec<(i64, i64, String)> {
        let mut rng = SplitMix::at(self.seed, S_INSERT, i);
        (0..INSERT_ROWS)
            .map(|j| {
                let id = (i * INSERT_ROWS as u64 + j as u64) as i64;
                let k = (rng.next_u64() % 1000) as i64;
                (id, k, format!("{:.3}", rng.range(0.0, 100.0)))
            })
            .collect()
    }

    pub(crate) fn insert_sql(&self, table: &str, i: u64) -> String {
        let rows: Vec<String> = self
            .insert_values(i)
            .into_iter()
            .map(|(id, k, v)| format!("({id}, {k}, {v}, '{}')", self.payload))
            .collect();
        format!("INSERT INTO {table} VALUES {}", rows.join(", "))
    }

    /// Think time after closed-loop round `i`: uniform in `[0, THINK_MAX)`.
    pub(crate) fn think(&self, i: u64) -> Duration {
        THINK_MAX.mul_f64(SplitMix::at(self.seed, S_THINK, i).unit())
    }

    /// Due offsets of `n` writer requests: Poisson arrivals at
    /// `WRITER_RATE`, so they sample every phase of the reader's cycle.
    pub(crate) fn arrivals(&self, n: u64) -> Vec<Duration> {
        let mut rng = SplitMix::at(self.seed, S_ARRIVAL, 0);
        let mut t = 0.0;
        (0..n)
            .map(|_| {
                let due = Duration::from_secs_f64(t);
                t += -(1.0 - rng.unit()).ln() / WRITER_RATE;
                due
            })
            .collect()
    }

    pub(crate) fn insert(&self, i: u64) -> Request {
        Request {
            class: Class::Insert,
            index: i,
            sql: self.insert_sql("events", i),
            world_seed: None,
        }
    }

    /// Rows of insert `i` built directly, for the traced replay through
    /// `Database::insert_rows`.
    pub(crate) fn insert_rows(&self, i: u64) -> Vec<CRow> {
        self.insert_values(i)
            .into_iter()
            .map(|(id, k, v)| {
                CRow::unconditional(vec![
                    Equation::val(id),
                    Equation::val(k),
                    Equation::val(v.parse::<f64>().expect("generated float")),
                    Equation::val(self.payload.as_str()),
                ])
            })
            .collect()
    }

    /// Digest of the catalog and of the first requests of every class.
    pub(crate) fn digest(&self) -> String {
        let mut d = Digest::default();
        d.add(self.workload.name().as_bytes());
        for s in self.catalog_sql() {
            d.add(s.as_bytes());
        }
        for c in &self.tpch.customers {
            d.add(&c.spend.to_bits().to_le_bytes());
            d.add(&c.increase_rate().to_bits().to_le_bytes());
        }
        for due in self.arrivals(1000) {
            d.add(&due.as_nanos().to_le_bytes());
        }
        for i in 0..1000 {
            d.add(self.query(i).wire().as_bytes());
            d.add(self.lookup(i).wire().as_bytes());
            d.add(self.insert(i).wire().as_bytes());
        }
        d.hex()
    }

    /// Check one answer; returns its `(estimate, exact)` pairs.
    pub(crate) fn check(&self, req: &Request, reply: &Reply) -> Result<Vec<(f64, f64)>, String> {
        if !reply.ok {
            return Err(reply.status.clone());
        }
        let num = |s: &str| -> Result<f64, String> {
            let v: f64 = s.parse().map_err(|_| format!("not a number: {s:?}"))?;
            if v.is_finite() {
                Ok(v)
            } else {
                Err(format!("non-finite estimate {s}"))
            }
        };
        let shape = |rows: usize, cols: usize| -> Result<(), String> {
            if reply.rows.len() == rows && reply.rows.iter().all(|r| r.len() == cols) {
                Ok(())
            } else {
                Err(format!(
                    "expected {rows}x{cols} result, got {:?}",
                    reply.rows
                ))
            }
        };
        match req.class {
            Class::Insert if reply.rows.is_empty() => Ok(Vec::new()),
            Class::Insert => Err(format!("insert returned rows: {:?}", reply.rows)),
            Class::Lookup => {
                shape(1, 1)?;
                let c = &self.tpch.customers[self.lookup_key(req.index)];
                Ok(vec![(num(&reply.rows[0][0])?, c.spend * c.increase_rate())])
            }
            Class::Query => match self.workload {
                Workload::GroupbyCdf => {
                    shape(GROUPS, 3)?;
                    let c: f64 = req
                        .sql
                        .split("x > ")
                        .nth(1)
                        .and_then(|t| t.split(' ').next())
                        .and_then(|t| t.parse().ok())
                        .ok_or("threshold missing")?;
                    let mut pairs = Vec::new();
                    for row in &reply.rows {
                        let g: usize = row[0]
                            .trim_matches('\'')
                            .trim_start_matches('g')
                            .parse()
                            .map_err(|_| format!("bad group {:?}", row[0]))?;
                        let exact: f64 = (g..GROUPBY_ROWS)
                            .step_by(GROUPS)
                            .map(|i| normal_partial_mean(self.groupby[i].0, self.groupby[i].1, c))
                            .sum();
                        let conf = num(&row[2])?;
                        if !(0.0..=1.0).contains(&conf) {
                            return Err(format!("conf() out of range: {conf}"));
                        }
                        pairs.push((num(&row[1])?, exact));
                    }
                    Ok(pairs)
                }
                Workload::RejectionFewRows => {
                    shape(Q5_ROWS, 2)?;
                    reply
                        .rows
                        .iter()
                        .map(|row| {
                            let id: usize =
                                row[0].parse().map_err(|_| format!("bad id {:?}", row[0]))?;
                            let exact = *self.q5_exact.get(id).ok_or("unknown id")?;
                            Ok((num(&row[1])?, exact))
                        })
                        .collect()
                }
                Workload::JoinIngest => {
                    shape(1, 1)?;
                    Ok(vec![(num(&reply.rows[0][0])?, self.q3_exact)])
                }
            },
        }
    }
}
