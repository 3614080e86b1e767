//! The traced run's layer sweep: each layer's public functions, timed
//! from outside on the workload's own inputs, each answer checked
//! against the serial reference like the served ones.

use crate::inputs::{columns, Operands, Truth, UpdateStream};
use crate::serve::{ms, Client, Outcome, Server, Spans, Workload, BUDGET_FRACTION, ITERS};
use crate::stats::{median, remainder};
use amd_comm::Machine;
use amd_engine::{plan, Engine, PlannerConfig};
use amd_graph::Graph;
use amd_partition::{hype_partition, HypeConfig};
use amd_sparse::{CsrMatrix, DenseMatrix};
use amd_spmm::reference::iterated_spmm;
use amd_spmm::{best_c, A15dSpmm, A2dSpmm, ArrowSpmm, DeltaSpmm, DistSpmm, Hp1dSpmm};
use arrow_core::{
    decompose_snapshot_incremental, la_decompose, Catalog, DecomposeConfig, IncrementalPolicy,
    RandomForestLa,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of each timed layer call; the median is reported.
const REPS: usize = 5;

/// Empty `Machine::run`s timed for the dispatch cost.
const DISPATCH_REPS: usize = 101;

/// A stream probe (non-stream workloads) stops after this many refreshes
/// have landed, or after `PROBE_LIMIT` of update time.
const PROBE_REFRESHES: usize = 3;
const PROBE_LIMIT: Duration = Duration::from_secs(5);
const PROBE_POLL: Duration = Duration::from_micros(100);

pub type Metrics = BTreeMap<String, f64>;

/// Median wall time of `f` over `reps` calls, and its last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = std::hint::black_box(f());
        times.push(ms(t.elapsed()));
        last = Some(v);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Counts answers of the sweep that differ from the reference.
#[derive(Default)]
pub struct Checks {
    pub verified: u64,
    pub wrong: Vec<String>,
}

impl Checks {
    fn check(&mut self, what: &str, got: &DenseMatrix<f64>, want: &DenseMatrix<f64>) {
        self.verified += got.cols() as u64;
        if got.data() != want.data() {
            self.wrong.push(what.to_string());
        }
    }
}

/// The update stream's first budget's worth of changes, applied to `a`.
pub fn recorded_delta(a: &CsrMatrix<f64>, seed: u64) -> Truth {
    let budget = (BUDGET_FRACTION * a.nnz() as f64).ceil() as usize;
    let mut stream = UpdateStream::new(a.rows(), seed);
    let mut truth = Truth::new(a.clone());
    while truth.delta().nnz() < budget {
        for _ in 0..16 {
            for part in stream.next() {
                truth.apply(part);
            }
        }
    }
    truth
}

/// Times every layer below the engine on the workload's inputs.
/// `lines` collects the human-readable breakdown.
pub fn sweep(
    w: &Workload,
    a: &CsrMatrix<f64>,
    seed: u64,
    work: &Path,
    checks: &mut Checks,
    lines: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::new();
    let ec = w.engine_config();
    let n = a.rows();
    let k = w.max_batch.min(w.per_flush) as u32;
    let mut ops = Operands::new(n, seed);
    let x = columns(n, &(0..k).map(|_| ops.next()).collect::<Vec<_>>());
    let want = iterated_spmm(a, &x, ITERS).expect("reference multiply");

    // core: LA-Decompose, as the engine's cache runs it.
    let cfg = DecomposeConfig::with_width(ec.arrow_width);
    let (decompose_ms, d) = timed(REPS, || {
        la_decompose(a, &cfg, &mut RandomForestLa::new(ec.decompose_seed)).expect("decompose")
    });
    m.insert("core.decompose_ms".into(), decompose_ms);
    m.insert("core.levels".into(), d.levels().len() as f64);
    m.insert("core.active_prefix".into(), d.active_prefix_fraction());

    // engine: the four-candidate plan, and a whole registration.
    let pc = PlannerConfig {
        cost: ec.cost,
        target_ranks: ec.target_ranks,
        k_hint: (ec.max_batch as u32).clamp(1, 64),
        dtype: ec.dtype,
        ..PlannerConfig::default()
    };
    let (plan_ms, bound) = timed(REPS, || plan(a, &d, &pc).expect("plan"));
    let (register_ms, _) = timed(REPS, || {
        let mut e = Engine::new(ec.clone()).expect("engine");
        e.register(a).expect("register");
        e
    });
    let register_rest = remainder(register_ms, &[decompose_ms, plan_ms]);
    m.insert("engine.plan_ms".into(), plan_ms);
    m.insert("engine.register_ms".into(), register_ms);
    m.insert("engine.register_remainder_ms".into(), register_rest);
    lines.push(format!(
        "register {register_ms:.2} ms = decompose {decompose_ms:.2} + plan {plan_ms:.2} \
         + remainder {register_rest:.2}"
    ));

    // partition: HYPE, as the planner runs it for the HP-1D candidate.
    let g = Graph::from_matrix_structure(a);
    let (hype_ms, part) = timed(REPS, || {
        let mut rng = ChaCha8Rng::seed_from_u64(pc.partition_seed);
        hype_partition(&g, pc.target_ranks, &HypeConfig::default(), &mut rng)
    });
    m.insert("partition.hype_ms".into(), hype_ms);

    // spmm + comm: every candidate at the workload's k.
    let p = pc.target_ranks;
    let q = (p as f64).sqrt().round().max(1.0) as u32;
    let candidates: Vec<(&str, Box<dyn DistSpmm + Send + Sync>)> = vec![
        (
            "arrow",
            Box::new(
                ArrowSpmm::new(&d)
                    .expect("arrow")
                    .with_cost(ec.cost)
                    .with_dtype(ec.dtype),
            ),
        ),
        (
            "a15d",
            Box::new(
                A15dSpmm::new(a, p, best_c(p))
                    .expect("1.5D")
                    .with_cost(ec.cost)
                    .with_dtype(ec.dtype),
            ),
        ),
        (
            "a2d",
            Box::new(
                A2dSpmm::new(a, q * q)
                    .expect("2D")
                    .with_cost(ec.cost)
                    .with_dtype(ec.dtype),
            ),
        ),
        (
            "hp1d",
            Box::new(
                Hp1dSpmm::new(a, &part)
                    .expect("HP-1D")
                    .with_cost(ec.cost)
                    .with_dtype(ec.dtype),
            ),
        ),
    ];
    for (slug, algo) in &candidates {
        let mut walls = Vec::new();
        let (run_ms, run) = timed(REPS, || {
            let run = algo.run_sigma(&x, ITERS, None).expect("distributed run");
            walls.push(run.stats.wall_seconds * 1e3);
            run
        });
        checks.check(slug, &run.y, &want);
        let predicted = algo.predict_volume(k);
        m.insert(format!("spmm.{slug}.run_ms"), run_ms);
        m.insert(format!("comm.{slug}.bytes_per_iter"), run.volume_per_iter());
        m.insert(
            format!("comm.{slug}.msgs_per_iter"),
            run.messages_per_iter(),
        );
        m.insert(
            format!("comm.{slug}.sim_s_per_iter"),
            run.sim_time_per_iter(),
        );
        m.insert(
            format!("comm.{slug}.predicted_bytes_per_iter"),
            predicted.max_rank_bytes,
        );
        m.insert(format!("comm.{slug}.machine_wall_ms"), median(&walls));
    }

    // The bound plan run directly on a flush's operands, and through the
    // corrected path on a recorded stream delta.
    let truth = recorded_delta(a, w.structure(seed));
    let delta = truth.delta();
    let merged = truth.matrix();
    let (direct_ms, run) = timed(REPS, || {
        bound.algo.run_sigma(&x, ITERS, None).expect("bound run")
    });
    checks.check("bound", &run.y, &want);
    let corrected = DeltaSpmm::new(&*bound.algo, &delta)
        .expect("delta")
        .with_cost(ec.cost);
    let (delta_ms, run) = timed(REPS, || {
        corrected.run_sigma(&x, ITERS, None).expect("delta run")
    });
    checks.check(
        "delta",
        &run.y,
        &iterated_spmm(&merged, &x, ITERS).expect("reference multiply"),
    );
    m.insert("spmm.delta.run_ms".into(), delta_ms);
    // A stream flush answers each tenant through its corrected path.
    let flush_direct = if w.is_stream() {
        w.tenants as f64 * delta_ms
    } else {
        direct_ms
    };
    m.insert("engine.flush_direct_ms".into(), flush_direct);

    // sparse: the single-host baseline, plain CSR SpMM on A (which is
    // what the reference runs).
    let (csr_ms, _) = timed(REPS, || iterated_spmm(a, &x, ITERS).expect("csr spmm"));
    m.insert("sparse.csr_spmm_ms".into(), csr_ms);
    m.insert(
        "sparse.flops_per_query".into(),
        2.0 * a.nnz() as f64 * ITERS as f64,
    );

    // core: the fused decomposition kernel, the splice, the catalog.
    let compiled = d.compile::<f64>();
    let (fused_ms, y) = timed(REPS, || {
        let mut cur = x.clone();
        for _ in 0..ITERS {
            cur = compiled.multiply(&cur).expect("fused multiply");
        }
        cur
    });
    checks.check("fused", &y, &want);
    m.insert("core.fused_multiply_ms".into(), fused_ms);
    let touched = truth.touched_vertices();
    let (incremental_ms, (_, outcome)) = timed(REPS, || {
        decompose_snapshot_incremental(
            &merged,
            &cfg,
            ec.decompose_seed,
            Some(&d),
            Some(&touched),
            &IncrementalPolicy::default(),
        )
        .expect("incremental decompose")
    });
    m.insert("core.incremental_ms".into(), incremental_ms);
    lines.push(format!(
        "incremental decompose of a {}-entry delta: {incremental_ms:.2} ms ({})",
        delta.nnz(),
        match outcome.fallback {
            None => "spliced".to_string(),
            Some(reason) => format!("cold: {reason:?}"),
        }
    ));
    let fingerprint = a.fingerprint();
    let mut put_times = Vec::new();
    for rep in 0..REPS {
        let mut catalog = Catalog::open(work.join(format!("put-{rep}"))).expect("catalog");
        let t = Instant::now();
        catalog
            .put(&d, fingerprint, &cfg, ec.decompose_seed, 0, 0)
            .expect("catalog put");
        put_times.push(ms(t.elapsed()));
    }
    m.insert("core.catalog_put_ms".into(), median(&put_times));

    // exec: dispatching an empty run over the bound plan's ranks.
    let machine = Machine::new(bound.algo.ranks());
    let (dispatch_ms, _) = timed(DISPATCH_REPS, || machine.run(|_| ()));
    m.insert("exec.dispatch_ms".into(), dispatch_ms);
    m
}

/// For a workload that serves no stream: a one-tenant hub on the same
/// matrix and update stream, so the stream layer is measured on these
/// inputs too. Updates only; after each trip the client polls until the
/// refresh lands, so every lag is the refresh alone.
pub fn stream_probe(
    w: &Workload,
    a: &CsrMatrix<f64>,
    seed: u64,
    work: &Path,
    spans: &mut Spans,
) -> (Outcome, amd_stream::HubStats) {
    let one = Workload {
        tenants: 1,
        per_flush: 1,
        ..*w
    };
    let mut server = Server::setup(&one, a, &work.join("probe")).expect("probe hub");
    let Server::Hub { hub, tenants } = &mut server else {
        unreachable!("a one-tenant workload sets up a hub")
    };
    let mut client = Client::new(a, 1, seed, w.structure(seed));
    let mut out = Outcome::default();
    let start = Instant::now();
    while out.refresh_lags_ms.len() < PROBE_REFRESHES && start.elapsed() < PROBE_LIMIT {
        client.update(hub, tenants, 0, &mut out, spans);
        while client.awaiting(0) && start.elapsed() < PROBE_LIMIT {
            std::thread::sleep(PROBE_POLL);
            if hub.poll().is_err() {
                out.failed += 1;
            }
            client.landed(hub, tenants, Instant::now(), &mut out);
        }
    }
    hub.wait_refreshes().expect("probe refreshes settle");
    (out, hub.stats())
}
