//! The three closed-loop workloads: set up the engine or hub, then one
//! client thread submits, flushes and (on the stream) updates for a set
//! number of flushes. Every answer is checked off the clock.

use crate::inputs::{Operands, Truth, UpdateStream};
use crate::{reference, stats};
use amd_engine::{Engine, EngineConfig, MatrixId, MultiplyQuery};
use amd_graph::generators::datasets::DatasetKind;
use amd_sparse::{CsrMatrix, SparseResult};
use amd_stream::{HubConfig, StalenessBudget, StreamHub, TenantId};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Multiply iterations per query: `y = A·(A·x)`.
pub const ITERS: u32 = 2;

/// Staleness budget of stream tenants, as a share of base nnz.
pub const BUDGET_FRACTION: f64 = 0.01;

/// Independent set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Probes on each side of a query's own whose median scales its latency:
/// the host's speed changes within seconds, so each flush is scaled by
/// the probes around it, not by the run's.
const PROBE_HALF_WINDOW: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: DatasetKind,
    pub n: u32,
    /// Queries answered by one flush.
    pub per_flush: usize,
    pub max_batch: usize,
    /// Stream tenants; 0 serves one matrix through a plain `Engine`.
    pub tenants: usize,
    /// Seed of the graph and the update stream, when they do not follow
    /// the run's seed. The stream's peak RSS is set by its inputs: spliced
    /// refreshes keep more memory than full re-decompositions, and
    /// whether a refresh can splice depends on where the updates fall in
    /// the graph (one seed's 24 refreshes all splice, at 71 MB; another's
    /// 5 fall back, at 55 MB). Its structure is therefore fixed and the
    /// seed draws only the operands.
    pub structure_seed: Option<u64>,
    /// The fixed tail percentile `query_tail_ms` reports.
    pub tail_pct: f64,
    /// Flushes served before the timed phase (about three seconds):
    /// rank threads, allocator and caches settle in the first ones. A
    /// count, not a time, so the timed phase starts from the same state
    /// on a slow host and a fast one.
    pub warmup_flushes: u64,
    /// Flushes per measured second at nominal host speed. A timed phase
    /// of `s` seconds serves `s · flush_rate` flushes: the same work on
    /// a slow host and a fast one, so the stream's state (its versions,
    /// refreshes and memory) at the end does not depend on host speed.
    pub flush_rate: f64,
    /// CPU µs per operand column of the reference check at nominal host
    /// speed; end-to-end times are scaled to it (see `reference`). The
    /// values are typical probe medians on a 2-vCPU Intel Xeon VM: they
    /// only fix the host the scaled times refer to, the same on every
    /// commit.
    pub nominal_reference_us: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "point-mawi",
        kind: DatasetKind::Mawi,
        n: 100_000,
        per_flush: 1,
        max_batch: 1,
        tenants: 0,
        structure_seed: None,
        tail_pct: 90.0,
        flush_rate: 170.0,
        nominal_reference_us: 3500.0,
        warmup_flushes: 300,
    },
    Workload {
        name: "batch-web",
        kind: DatasetKind::WebBase,
        n: 30_000,
        per_flush: 64,
        max_batch: 64,
        tenants: 0,
        structure_seed: None,
        tail_pct: 90.0,
        flush_rate: 7.0,
        nominal_reference_us: 1100.0,
        warmup_flushes: 15,
    },
    Workload {
        name: "stream-genbank",
        kind: DatasetKind::GenBank,
        n: 20_000,
        per_flush: 4,
        max_batch: 1,
        tenants: 4,
        structure_seed: Some(0),
        tail_pct: 90.0,
        flush_rate: 130.0,
        nominal_reference_us: 620.0,
        warmup_flushes: 300,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The paper's `b = n/p` with `p` the engine's rank target: at the
    /// default b = 64 the arrow plan wants hundreds of ranks and is
    /// never bound.
    pub fn engine_config(&self) -> EngineConfig {
        let defaults = EngineConfig::default();
        EngineConfig {
            arrow_width: self.n / defaults.target_ranks,
            max_batch: self.max_batch,
            ..defaults
        }
    }

    pub fn is_stream(&self) -> bool {
        self.tenants > 0
    }

    /// Factor that scales times to nominal host speed: the nominal
    /// reference CPU time over the median of those `probes` measured.
    pub fn host_scale(&self, probes: &[f64]) -> f64 {
        self.nominal_reference_us / stats::median_or_nan(probes)
    }

    /// Columns one reference check multiplies at once: a flush's queries
    /// on one engine, a single tenant's answer on the hub.
    pub fn check_width(&self) -> usize {
        if self.is_stream() {
            1
        } else {
            self.per_flush
        }
    }

    /// Seed of the graph and the update stream of a run with `seed`.
    pub fn structure(&self, seed: u64) -> u64 {
        self.structure_seed.unwrap_or(seed)
    }

    /// Flushes that take `seconds` of measured time at nominal speed.
    pub fn flushes(&self, seconds: f64) -> u64 {
        (seconds * self.flush_rate).ceil().max(1.0) as u64
    }

    /// Flushes of the timed phase: `seconds` worth, and at least enough
    /// for the tail percentile.
    pub fn measured_flushes(&self, seconds: f64) -> u64 {
        self.flushes(seconds)
            .max(stats::tail_flushes(self.per_flush, self.tail_pct))
    }
}

/// A set-up server, ready for its first query. At most two are alive at
/// once, so the variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Server {
    Engine {
        engine: Engine,
        id: MatrixId,
    },
    Hub {
        hub: StreamHub,
        tenants: Vec<TenantId>,
    },
}

impl Server {
    /// Builds the engine or hub and registers or admits every matrix.
    /// `catalog` is a fresh directory the hub writes through to.
    pub fn setup(w: &Workload, a: &CsrMatrix<f64>, catalog: &Path) -> SparseResult<Server> {
        if !w.is_stream() {
            let mut engine = Engine::new(w.engine_config())?;
            let id = engine.register(a)?;
            return Ok(Server::Engine { engine, id });
        }
        let mut hub = StreamHub::new(HubConfig {
            engine: EngineConfig {
                spill_dir: Some(catalog.to_path_buf()),
                ..w.engine_config()
            },
            budget: StalenessBudget::nnz_fraction(BUDGET_FRACTION),
            ..HubConfig::default()
        })?;
        let tenants = (0..w.tenants)
            .map(|_| hub.admit(a.clone()))
            .collect::<SparseResult<_>>()?;
        Ok(Server::Hub { hub, tenants })
    }

    /// The algorithm and rank count serving the (first) matrix.
    pub fn binding(&self) -> (String, u32) {
        let (algo, plan) = match self {
            Server::Engine { engine, id } => (
                engine.chosen_algorithm(*id).unwrap_or("?").to_string(),
                engine.plan_report(*id).unwrap_or(&[]),
            ),
            Server::Hub { hub, tenants } => (
                hub.chosen_algorithm(tenants[0]).unwrap_or("?").to_string(),
                hub.plan_report(tenants[0]).unwrap_or(&[]),
            ),
        };
        let ranks = plan.first().map_or(0, |p| p.ranks);
        (algo, ranks)
    }
}

/// A recorded span: one call the client made into a layer.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// The traced run's span log, kept in memory; off in untraced runs.
#[derive(Default)]
pub struct Spans {
    log: Option<Vec<Span>>,
}

impl Spans {
    pub fn on() -> Self {
        Spans {
            log: Some(Vec::new()),
        }
    }

    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(log) = self.log.as_mut() {
            log.push(Span { name, start, end });
        }
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.log
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .collect()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one timed phase did.
#[derive(Default)]
pub struct Outcome {
    /// Per answered query, submit to the return of its flush.
    pub latencies_ms: Vec<f64>,
    /// Per tripped staleness budget, trip to advanced version.
    pub refresh_lags_ms: Vec<f64>,
    /// Client time inside calls; verification excluded.
    pub timed: Duration,
    pub flushes: u64,
    pub queries: u64,
    pub answered: u64,
    pub updates: u64,
    /// Failed calls plus wrong answers.
    pub failed: u64,
    pub verified: u64,
    /// Per reference check, its thread CPU µs per operand column.
    pub reference_us: Vec<f64>,
    /// Per answered query, the index of the check of its answer.
    probe_of: Vec<usize>,
    /// Per flush, the measured ms of its loop step (updates, submits and
    /// the flush) and the index of the last check after it.
    steps: Vec<(f64, usize)>,
    /// Peak RSS of the process when the phase ended.
    pub peak_rss_mb: f64,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.queries + self.updates
    }

    /// Checks the answers of one flush against the benchmark's reference
    /// multiply on `a`, as one block of the flush's width, bit for bit
    /// (integer data: every product and sum is exact), and records the
    /// reference's CPU time per column.
    fn verify(&mut self, a: &CsrMatrix<f64>, answers: &[(Vec<f64>, Vec<f64>)]) {
        if answers.is_empty() {
            return;
        }
        let n = a.rows() as usize;
        let xs: Vec<&[f64]> = answers.iter().map(|(x, _)| x.as_slice()).collect();
        let k = xs.len();
        let (want, us) = reference::timed(a, &xs, ITERS);
        self.reference_us.push(us);
        self.probe_of
            .resize(self.latencies_ms.len(), self.reference_us.len() - 1);
        for (j, (_, y)) in answers.iter().enumerate() {
            let exact = y.len() == n && (0..n).all(|r| want[r * k + j] == y[r]);
            if !exact {
                self.failed += 1;
            }
            self.verified += 1;
        }
    }

    /// Factor that scales this phase's times to nominal host speed.
    pub fn host_scale(&self, w: &Workload) -> f64 {
        w.host_scale(&self.reference_us)
    }

    /// Records a finished loop step of `measured` time.
    fn step(&mut self, measured: Duration) {
        let probe = self.reference_us.len().saturating_sub(1);
        self.steps.push((ms(measured), probe));
    }

    /// Host-speed factor from the probes around probe `p`.
    fn scale_at(&self, w: &Workload, p: usize) -> f64 {
        let lo = p.saturating_sub(PROBE_HALF_WINDOW);
        let hi = (p + PROBE_HALF_WINDOW).min(self.reference_us.len().saturating_sub(1));
        w.host_scale(self.reference_us.get(lo..=hi).unwrap_or(&[]))
    }

    /// Each query's latency scaled to nominal host speed by the probes
    /// around the check of its answer.
    pub fn scaled_latencies_ms(&self, w: &Workload) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(&self.probe_of)
            .map(|(&l, &p)| l * self.scale_at(w, p))
            .collect()
    }

    /// Answered queries per second of measured time, each step's time
    /// scaled to nominal host speed by the probes around it.
    pub fn scaled_throughput(&self, w: &Workload) -> f64 {
        let scaled_ms: f64 = self
            .steps
            .iter()
            .map(|&(t, p)| t * self.scale_at(w, p))
            .sum();
        self.answered as f64 * 1e3 / scaled_ms
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A field of `/proc/self/status`, trimmed.
pub fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// The client thread's state, carried across timed phases: its operand
/// and update streams, each tenant's truth mirror, and the staleness
/// trips whose refresh has not landed yet.
pub struct Client {
    ops: Operands,
    updates: UpdateStream,
    truth: Vec<Truth>,
    /// Per tenant: when the tripping update started and the version it
    /// tripped at.
    tripped: Vec<Option<(Instant, u64)>>,
}

impl Client {
    /// Operands drawn from `seed`, updates from `update_seed`.
    pub fn new(a: &CsrMatrix<f64>, tenants: usize, seed: u64, update_seed: u64) -> Self {
        Self {
            ops: Operands::new(a.rows(), seed),
            updates: UpdateStream::new(a.rows(), update_seed),
            truth: (0..tenants).map(|_| Truth::new(a.clone())).collect(),
            tripped: vec![None; tenants],
        }
    }

    /// Runs the workload's closed loop for `flushes` flushes, then lets
    /// background refreshes settle (off the clock).
    pub fn run(
        &mut self,
        server: &mut Server,
        w: &Workload,
        a: &CsrMatrix<f64>,
        flushes: u64,
        spans: &mut Spans,
    ) -> Outcome {
        let done = |out: &Outcome| out.flushes >= flushes;
        let mut out = Outcome::default();
        match server {
            Server::Engine { engine, id } => {
                self.serve_engine(engine, *id, w, a, &done, spans, &mut out)
            }
            Server::Hub { hub, tenants } => {
                self.serve_hub(hub, tenants, &done, spans, &mut out);
                hub.wait_refreshes().expect("background refreshes settle");
            }
        }
        out.peak_rss_mb = peak_rss_mb();
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn serve_engine(
        &mut self,
        engine: &mut Engine,
        id: MatrixId,
        w: &Workload,
        a: &CsrMatrix<f64>,
        done: &dyn Fn(&Outcome) -> bool,
        spans: &mut Spans,
        out: &mut Outcome,
    ) {
        while !done(out) {
            let before = out.timed;
            let xs: Vec<Vec<f64>> = (0..w.per_flush).map(|_| self.ops.next()).collect();
            let queries: Vec<MultiplyQuery> = xs
                .iter()
                .map(|x| MultiplyQuery {
                    matrix: id,
                    x: x.clone(),
                    iters: ITERS,
                    sigma: None,
                })
                .collect();
            let round = Instant::now();
            let mut submitted = HashMap::new();
            for (j, q) in queries.into_iter().enumerate() {
                let t = Instant::now();
                match engine.submit(q) {
                    Ok(qid) => {
                        submitted.insert(qid, (j, t));
                    }
                    Err(_) => out.failed += 1,
                }
            }
            let flush = Instant::now();
            let result = engine.flush();
            let end = Instant::now();
            out.timed += end - round;
            spans.record("engine.submit", round, flush);
            spans.record("engine.flush", flush, end);
            out.flushes += 1;
            out.queries += xs.len() as u64;
            let mut answers = Vec::with_capacity(xs.len());
            match result {
                Ok(responses) => {
                    for r in responses {
                        let Some(&(j, t)) = submitted.get(&r.id) else {
                            out.failed += 1;
                            continue;
                        };
                        out.latencies_ms.push(ms(end - t));
                        out.answered += 1;
                        answers.push((xs[j].clone(), r.y));
                    }
                }
                Err(_) => out.failed += submitted.len() as u64,
            }
            out.verify(a, &answers);
            out.step(out.timed - before);
        }
    }

    fn serve_hub(
        &mut self,
        hub: &mut StreamHub,
        tenants: &[TenantId],
        done: &dyn Fn(&Outcome) -> bool,
        spans: &mut Spans,
        out: &mut Outcome,
    ) {
        while !done(out) {
            let before = out.timed;
            for t in 0..tenants.len() {
                self.update(hub, tenants, t, out, spans);
            }
            let x = self.ops.next();
            let xs: Vec<Vec<f64>> = tenants.iter().map(|_| x.clone()).collect();
            let round = Instant::now();
            let mut submitted = HashMap::new();
            for (t, x) in xs.into_iter().enumerate() {
                let s = Instant::now();
                match hub.submit(tenants[t], x, ITERS, None) {
                    Ok(qid) => {
                        submitted.insert(qid, (t, s));
                    }
                    Err(_) => out.failed += 1,
                }
            }
            let flush = Instant::now();
            let result = hub.flush();
            let end = Instant::now();
            out.timed += end - round;
            spans.record("stream.submit", round, flush);
            spans.record("engine.flush", flush, end);
            out.flushes += 1;
            out.queries += tenants.len() as u64;
            self.landed(hub, tenants, end, out);
            match result {
                Ok(responses) => {
                    for r in responses {
                        let Some(&(t, s)) = submitted.get(&r.id) else {
                            out.failed += 1;
                            continue;
                        };
                        out.latencies_ms.push(ms(end - s));
                        out.answered += 1;
                        out.verify(&self.truth[t].matrix(), &[(x.clone(), r.y)]);
                    }
                }
                Err(_) => out.failed += submitted.len() as u64,
            }
            out.step(out.timed - before);
        }
    }

    /// One update (its symmetric pair) to tenant `t`.
    pub fn update(
        &mut self,
        hub: &mut StreamHub,
        tenants: &[TenantId],
        t: usize,
        out: &mut Outcome,
        spans: &mut Spans,
    ) {
        for part in self.updates.next() {
            let pending = hub.refresh_pending(tenants[t]).unwrap_or(true);
            let version = hub.version(tenants[t]).unwrap_or(0);
            let start = Instant::now();
            let result = hub.update(tenants[t], part);
            let end = Instant::now();
            out.timed += end - start;
            spans.record("stream.update", start, end);
            out.updates += 1;
            match result {
                Ok(true) if !pending && self.tripped[t].is_none() => {
                    self.tripped[t] = Some((start, version));
                }
                Ok(_) => {}
                Err(_) => out.failed += 1,
            }
            self.truth[t].apply(part);
            self.landed(hub, tenants, end, out);
        }
    }

    /// Whether tenant `t` tripped its budget and the refresh has not
    /// landed yet.
    pub fn awaiting(&self, t: usize) -> bool {
        self.tripped[t].is_some()
    }

    /// Closes the lag of every trip whose refresh has committed by the
    /// end of the call that returned at `now`.
    pub fn landed(
        &mut self,
        hub: &StreamHub,
        tenants: &[TenantId],
        now: Instant,
        out: &mut Outcome,
    ) {
        for (t, trip) in self.tripped.iter_mut().enumerate() {
            if let Some((start, version)) = *trip {
                if hub.version(tenants[t]).is_ok_and(|v| v > version) {
                    out.refresh_lags_ms.push(ms(now - start));
                    *trip = None;
                }
            }
        }
    }
}
