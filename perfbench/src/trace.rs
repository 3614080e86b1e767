//! The traced run: the workload's loop served half untraced, half with
//! spans around every call into the program and the layer counters read
//! before and after; then the layer sweep on the same inputs.

use crate::layers::{self, Checks, Metrics};
use crate::serve::{Client, Outcome, Server, Spans, Workload};
use crate::stats;
use amd_sparse::CsrMatrix;
use std::path::Path;

/// Metrics with their units, in output order.
pub type Named = Vec<(String, f64, &'static str)>;

/// Runs the traced loop and the sweep. Returns the traced phase, every
/// per-layer metric with its unit, and the other phases it served.
#[allow(clippy::too_many_arguments)]
pub fn run(
    server: &mut Server,
    client: &mut Client,
    w: &Workload,
    a: &CsrMatrix<f64>,
    seed: u64,
    half: u64,
    work: &Path,
    checks: &mut Checks,
    lines: &mut Vec<String>,
) -> (Outcome, Named, Vec<Outcome>) {
    let untraced = client.run(server, w, a, half, &mut Spans::default());
    let before = counters(server);
    let mut spans = Spans::on();
    let traced = client.run(server, w, a, half, &mut spans);
    let after = counters(server);
    let mut m = layers::sweep(w, a, seed, work, checks, lines);

    let flush_ms = stats::median_or_nan(&spans.durations_ms("engine.flush"));
    let direct = m["engine.flush_direct_ms"];
    let self_ms = stats::remainder(flush_ms, &[direct]);
    m.insert("engine.flush_ms".into(), flush_ms);
    m.insert("engine.self_ms".into(), self_ms);
    lines.push(format!(
        "flush {flush_ms:.3} ms = direct run {direct:.3} + engine self {self_ms:.3}"
    ));
    let (e0, e1) = (&before.engine, &after.engine);
    m.insert(
        "engine.runs_per_query".into(),
        ratio(e1.runs - e0.runs, e1.queries - e0.queries),
    );
    m.insert(
        "engine.corrected_share".into(),
        ratio(e1.corrected_runs - e0.corrected_runs, e1.runs - e0.runs),
    );
    let cache = match server {
        Server::Engine { engine, .. } => engine.cache_stats(),
        Server::Hub { hub, .. } => hub.cache_stats(),
    };
    m.insert(
        "cache.hit_ratio".into(),
        ratio(cache.hits, cache.hits + cache.misses),
    );
    m.insert("cache.spills".into(), cache.spills as f64);
    m.insert("cache.spill_failures".into(), cache.spill_failures as f64);
    let (x0, x1) = (&before.exec, &after.exec);
    let reused = x1.rank_threads_reused - x0.rank_threads_reused;
    let spawned = x1.rank_threads_spawned - x0.rank_threads_spawned;
    m.insert(
        "exec.rank_reuse_ratio".into(),
        ratio(reused, reused + spawned),
    );
    m.insert(
        "exec.compute_jobs_per_query".into(),
        ratio(x1.compute_jobs - x0.compute_jobs, traced.answered),
    );
    let mut others = Vec::new();
    match (&before.hub, &after.hub) {
        (Some(h0), Some(h1)) => stream_metrics(&mut m, &traced, &spans, h0, h1),
        _ => {
            let mut probe_spans = Spans::on();
            let (probe, hub) = layers::stream_probe(w, a, seed, work, &mut probe_spans);
            lines.push(format!(
                "stream probe: one tenant, {} updates, {} refreshes landed",
                probe.updates,
                probe.refresh_lags_ms.len()
            ));
            stream_metrics(&mut m, &probe, &probe_spans, &Default::default(), &hub);
            others.push(probe);
        }
    }
    m.insert(
        "trace.overhead_frac".into(),
        stats::median(&traced.latencies_ms) / stats::median(&untraced.latencies_ms) - 1.0,
    );
    let metrics = m
        .into_iter()
        .map(|(k, v)| {
            let unit = layer_unit(&k);
            (k, v, unit)
        })
        .collect();
    others.push(untraced);
    (traced, metrics, others)
}

/// Units of the per-layer metrics, by name.
fn layer_unit(name: &str) -> &'static str {
    match name {
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_us") => "us",
        n if n.ends_with("sim_s_per_iter") => "s",
        n if n.ends_with("bytes_per_iter") => "B",
        n if n.ends_with("msgs_per_iter") => "count",
        "sparse.flops_per_query" => "flop",
        n if n.ends_with("_ratio") || n.ends_with("_share") || n.ends_with("_frac") => "ratio",
        "core.active_prefix" => "ratio",
        _ => "count",
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

struct Counters {
    engine: amd_engine::EngineStats,
    exec: amd_exec::ExecStats,
    hub: Option<amd_stream::HubStats>,
}

fn counters(server: &Server) -> Counters {
    let (engine, hub) = match server {
        Server::Engine { engine, .. } => (engine.stats(), None),
        Server::Hub { hub, .. } => (hub.engine_stats(), Some(hub.stats())),
    };
    Counters {
        engine,
        exec: amd_exec::global().stats(),
        hub,
    }
}

/// Stream-layer metrics from a phase and the hub counters it moved.
fn stream_metrics(
    m: &mut Metrics,
    out: &Outcome,
    spans: &Spans,
    before: &amd_stream::HubStats,
    after: &amd_stream::HubStats,
) {
    let update_us: Vec<f64> = spans
        .durations_ms("stream.update")
        .iter()
        .map(|v| v * 1e3)
        .collect();
    m.insert("stream.update_us".into(), stats::median_or_nan(&update_us));
    m.insert(
        "stream.refresh_lag_ms".into(),
        stats::median_or_nan(&out.refresh_lags_ms),
    );
    let done = after.refreshes_completed - before.refreshes_completed;
    let incremental = after.splice.incremental_refreshes - before.splice.incremental_refreshes;
    m.insert("stream.refreshes".into(), done as f64);
    m.insert("stream.incremental_share".into(), ratio(incremental, done));
    m.insert(
        "stream.suppressed_triggers".into(),
        (after.suppressed_triggers - before.suppressed_triggers) as f64,
    );
    m.insert(
        "stream.refresh_failures".into(),
        (after.refresh_failures - before.refresh_failures) as f64,
    );
    m.insert(
        "stream.worker_restarts".into(),
        (after.worker_restarts - before.worker_restarts) as f64,
    );
}
