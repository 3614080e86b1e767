//! One serving benchmark: three closed-loop workloads driven through
//! `amd_engine::Engine` and `amd_stream::StreamHub`, every answer checked
//! against the serial reference.
//!
//! ```text
//! perfbench --workload <point-mawi|batch-web|stream-genbank> --seed <n>
//!           --seconds <s> --trace <0|1> [--revision <id>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! loop untraced then traced, and times each layer's public functions
//! from outside on the same inputs. The last stdout line is the result
//! object; the line before it is the report (provenance, sample counts,
//! error rate). See `README.md` beside this crate.

mod inputs;
mod layers;
mod reference;
mod serve;
mod stats;
mod trace;

use layers::Checks;
use serve::{proc_status, Client, Outcome, Server, Spans, Workload, SETUP_REPS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut revision = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or(format!(
                    "unknown workload {value}; one of {}",
                    serve::WORKLOADS.map(|w| w.name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("bad --seconds: {s} (0 < s ≤ 600)"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace: {value} (0 or 1)")),
                })
            }
            "--revision" => revision = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        revision,
    })
}

/// CPUs of the host, whichever of them this process may run on.
fn host_cpus() -> u64 {
    std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count() as u64
    })
}

/// A JSON value, enough for the two output lines.
enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, J)>),
}

impl J {
    fn obj(fields: Vec<(&str, J)>) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
            J::Num(_) => out.push_str("null"),
            J::Int(v) => write!(out, "{v}").expect("write to String"),
            J::Bool(b) => write!(out, "{b}").expect("write to String"),
            J::Str(s) => write!(out, "{s:?}").expect("write to String"),
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write!(out, "{k:?}: ").expect("write to String");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn line(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> J {
    J::Obj(
        metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.clone(),
                    J::obj(vec![
                        ("value", J::Num(*v)),
                        ("unit", J::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The end-to-end view of one timed phase, from its per-query
/// `latencies_ms` and its throughput (as measured for the wall-clock
/// view, scaled to nominal host speed otherwise).
fn end_to_end(
    w: &Workload,
    out: &Outcome,
    latencies_ms: &[f64],
    setup_s: f64,
    throughput_qps: f64,
) -> trace::Named {
    let lat = stats::sorted(latencies_ms);
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("query_p50_ms".into(), stats::percentile(&lat, 50.0), "ms"),
        (
            "query_tail_ms".into(),
            stats::percentile(&lat, w.tail_pct),
            "ms",
        ),
        ("throughput_qps".into(), throughput_qps, "1/s"),
        ("peak_rss_mb".into(), out.peak_rss_mb, "MB"),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create the work directory");

    let structure = w.structure(args.seed);
    let a = inputs::graph(w.kind, w.n, structure);
    // Each set-up is followed by a reference multiply of a check's width,
    // the host-speed probe that scales `setup_s` (see `reference`).
    let mut ops = inputs::Operands::new(a.rows(), args.seed ^ 0x0070_726f_6265); // "probe"
    let probe_xs: Vec<Vec<f64>> = (0..w.check_width()).map(|_| ops.next()).collect();
    let probe_xs: Vec<&[f64]> = probe_xs.iter().map(|x| x.as_slice()).collect();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setup_probes = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let catalog = work.join(format!("catalog-{rep}"));
        let t = Instant::now();
        let s = Server::setup(&w, &a, &catalog).expect("set-up registers every matrix");
        setups.push(t.elapsed().as_secs_f64());
        drop(server.replace(s));
        setup_probes.push(reference::timed(&a, &probe_xs, serve::ITERS).1);
    }
    let mut server = server.expect("at least one set-up");
    let setup_s = stats::median(&setups);
    let setup_scale = w.host_scale(&setup_probes);
    let (algo, ranks) = server.binding();
    println!(
        "{}: n = {}, nnz = {}, b = {}, bound {algo} on {ranks} ranks, set-up {:.3} s (median of {SETUP_REPS})",
        w.name,
        a.rows(),
        a.nnz(),
        w.engine_config().arrow_width,
        setup_s
    );

    let mut client = Client::new(&a, w.tenants, args.seed, structure);
    let mut checks = Checks::default();
    let mut lines = Vec::new();
    let warmup = client.run(&mut server, &w, &a, w.warmup_flushes, &mut Spans::default());
    // The phase the metrics describe, and the other phases (warm-up, and
    // those of a traced run): their operations count into `attempted`
    // and `failed` too.
    let (main_phase, metrics, mut others) = if !args.trace {
        let flushes = w.measured_flushes(args.seconds);
        let out = client.run(&mut server, &w, &a, flushes, &mut Spans::default());
        let metrics = end_to_end(
            &w,
            &out,
            &out.scaled_latencies_ms(&w),
            setup_s * setup_scale,
            out.scaled_throughput(&w),
        );
        (out, metrics, Vec::new())
    } else {
        trace::run(
            &mut server,
            &mut client,
            &w,
            &a,
            args.seed,
            w.flushes(args.seconds / 2.0),
            &work,
            &mut checks,
            &mut lines,
        )
    };

    others.push(warmup);
    // Everything the phases attempted, warm-up and traced run included.
    let phases: Vec<&Outcome> = std::iter::once(&main_phase).chain(&others).collect();
    let sum = |f: fn(&Outcome) -> u64| phases.iter().map(|o| f(o)).sum::<u64>();
    let attempted = sum(Outcome::attempted);
    let answered = sum(|o| o.answered);
    let verified = sum(|o| o.verified);
    let failed = sum(|o| o.failed) + checks.wrong.len() as u64;
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let lags = &main_phase.refresh_lags_ms;
    let scale = main_phase.host_scale(&w);
    let wall = end_to_end(
        &w,
        &main_phase,
        &main_phase.latencies_ms,
        setup_s,
        main_phase.answered as f64 / main_phase.timed.as_secs_f64(),
    );
    for line in &lines {
        println!("{line}");
    }
    println!(
        "{}: {} queries answered in {:.2} s measured ({} flushes), {verified} verified, \
         {failed} failed of {attempted} attempted (error rate {error_rate}){}",
        w.name,
        main_phase.answered,
        main_phase.timed.as_secs_f64(),
        main_phase.flushes,
        if w.is_stream() {
            format!(
                "; refresh lag median {:.2} ms over {} refreshes",
                stats::median_or_nan(lags),
                lags.len()
            )
        } else {
            String::new()
        }
    );
    println!(
        "host speed: reference check {:.3} CPU µs per column (median of {}), nominal {}; \
         serving times scaled by {scale:.4}, set-up by {setup_scale:.4}",
        stats::median_or_nan(&main_phase.reference_us),
        main_phase.reference_us.len(),
        w.nominal_reference_us,
    );
    if !checks.wrong.is_empty() {
        println!(
            "layer answers that differ from the reference: {}",
            checks.wrong.join(", ")
        );
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let ec = w.engine_config();
    let report = J::obj(vec![(
        "report",
        J::obj(vec![
            (
                "provenance",
                J::obj(vec![
                    ("workload", J::Str(w.name.into())),
                    ("seed", J::Int(args.seed)),
                    ("structure_seed", J::Int(structure)),
                    ("revision", J::Str(args.revision.clone())),
                    ("nproc", J::Int(nproc as u64)),
                    ("host_cpus", J::Int(host_cpus())),
                    (
                        "cpus_allowed",
                        J::Str(proc_status("Cpus_allowed_list").unwrap_or_default()),
                    ),
                    ("pool_threads", J::Int(amd_exec::global().threads() as u64)),
                    ("dtype", J::Str(ec.dtype.to_string())),
                    ("n", J::Int(a.rows() as u64)),
                    ("nnz", J::Int(a.nnz() as u64)),
                    ("arrow_width", J::Int(ec.arrow_width as u64)),
                    ("max_batch", J::Int(ec.max_batch as u64)),
                    ("tenants", J::Int(w.tenants as u64)),
                    ("iters", J::Int(serve::ITERS as u64)),
                    ("bound_algorithm", J::Str(algo.clone())),
                    ("bound_ranks", J::Int(ranks as u64)),
                    ("trace", J::Bool(args.trace)),
                ]),
            ),
            (
                "samples",
                J::obj(vec![
                    ("setup", J::Int(setups.len() as u64)),
                    (
                        "query_latency",
                        J::Int(main_phase.latencies_ms.len() as u64),
                    ),
                    ("flushes", J::Int(main_phase.flushes)),
                    ("refresh_lag", J::Int(lags.len() as u64)),
                    ("tail_percentile", J::Num(w.tail_pct)),
                    (
                        "tail_supported",
                        J::Bool(stats::tail_supported(
                            main_phase.latencies_ms.len(),
                            w.per_flush,
                            w.tail_pct,
                        )),
                    ),
                    ("measured_s", J::Num(main_phase.timed.as_secs_f64())),
                    (
                        "reference_checks",
                        J::Int(main_phase.reference_us.len() as u64),
                    ),
                ]),
            ),
            (
                "host_speed",
                J::obj(vec![
                    (
                        "reference_us_per_column",
                        J::Num(stats::median_or_nan(&main_phase.reference_us)),
                    ),
                    (
                        "setup_reference_us_per_column",
                        J::Num(stats::median(&setup_probes)),
                    ),
                    ("nominal_us_per_column", J::Num(w.nominal_reference_us)),
                ]),
            ),
            ("host_scale", J::Num(scale)),
            ("setup_host_scale", J::Num(setup_scale)),
            ("wall", metrics_json(&wall)),
            ("answered", J::Int(answered)),
            ("verified", J::Int(verified + checks.verified)),
            ("error_rate", J::Num(error_rate)),
            (
                "refresh_lag_ms",
                if w.is_stream() {
                    J::Num(stats::median_or_nan(lags))
                } else {
                    J::Str("n/a: no stream".into())
                },
            ),
        ]),
    )]);
    println!("{}", report.line());

    let correct = failed == 0 && verified == answered;
    let result = J::obj(vec![
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(attempted)),
        ("failed", J::Int(failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    drop(server);
    let _ = std::fs::remove_dir_all(&work);
    // Only removed when no other run is using it.
    let _ = std::fs::remove_dir(".perfbench-work");
    println!("{}", result.line());
}
