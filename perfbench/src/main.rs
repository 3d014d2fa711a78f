//! `perfbench`: the repository benchmark. It drives the real
//! `bitfusion-cli` with one of two seeded workloads, byte-checks every
//! reply against an in-process reference, and prints every metric by name
//! with its unit. See `README.md` beside this crate for the workloads and
//! the metric map.
//!
//! ```text
//! perfbench --workload serve_unique|dse_cold --seed N
//!           --seconds S --trace 0|1 --cli PATH --out DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of a timed run. `--trace 1`
//! runs the same served load, then replays the workload in-process with
//! spans (written to `DIR`) and prints the per-layer metrics. The last
//! stdout line is the result object; the line before it records the run's
//! context (seed, cores, clients, samples, coverage remainder).

mod gen;
mod load;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

use bitfusion_core::json::Json;

use crate::load::{Sample, CLIENTS};
use crate::stats::{median, quantile};
use crate::trace::Sessions;

/// Requests of the `serve_unique` stream in its traced replay.
const TRACE_UNIQUE_REQUESTS: usize = 600;
/// Rounds over the `dse_cold` grids in its traced replay.
const TRACE_DSE_ROUNDS: usize = 4;
/// Slice length of the `serve_unique` timed window, seconds.
const SERVE_SLICE_S: f64 = 1.0;
/// Slice length of the `dse_cold` timed window, seconds.
const DSE_SLICE_S: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {argv:?}")),
        }
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let workload = get("--workload")?.to_string();
    if !["serve_unique", "dse_cold"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        cli: PathBuf::from(get("--cli")?),
        out: PathBuf::from(get("--out")?),
    })
}

/// What a timed run measured, whichever workload drove it.
struct Measured {
    setup_s: Vec<f64>,
    /// Timed operations. Their groups are one for `serve_unique` and one
    /// per grid for `dse_cold`, whose grids differ in cost, so a
    /// percentile over their mixture would jump between grids from run to
    /// run.
    samples: Vec<Sample>,
    groups: usize,
    window: (Instant, Instant),
    /// Operations ran one at a time with harness work between them
    /// (`dse_cold`), so throughput is operations over their summed time.
    sequential: bool,
    attempted: u64,
    errors: u64,
    mismatched: u64,
    distinct: u64,
    peak_rss_mb: f64,
    /// `net.*` metrics (`serve_unique` only).
    net: BTreeMap<&'static str, f64>,
    /// Median client-side latency, microseconds.
    client_p50_us: f64,
}

fn measure(args: &Args, cores: usize) -> Result<Measured, String> {
    if args.workload == "dse_cold" {
        let grids = gen::dse_grids(args.seed);
        let run = load::run_dse(&args.cli, &grids, args.seconds)?;
        return Ok(Measured {
            setup_s: run.setup_s,
            client_p50_us: median(&mut run.samples.iter().map(|s| s.us).collect::<Vec<_>>()),
            samples: run.samples,
            groups: grids.len(),
            window: run.window,
            sequential: true,
            attempted: run.attempted,
            errors: run.errors,
            mismatched: run.mismatched,
            distinct: (grids.len() as u64).min(run.attempted),
            peak_rss_mb: median(&mut run.peak_rss_mb.clone()),
            net: BTreeMap::new(),
        });
    }
    let source = Mutex::new((gen::UniqueStream::new(args.seed), Vec::new()));
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let sock = args.out.join(format!("serve-{}.sock", std::process::id()));
    let run = load::run_serve(&args.cli, &sock, cores, &source, args.seconds)?;
    let s = &run.stats;
    let net = BTreeMap::from([
        ("net.server_p50_us", s.latency.p50_us as f64),
        (
            "net.coalesced_frac",
            s.coalesced as f64 / s.received.max(1) as f64,
        ),
        ("net.shed", s.shed as f64),
    ]);
    Ok(Measured {
        setup_s: run.setup_s,
        client_p50_us: median(&mut run.samples.iter().map(|s| s.us).collect::<Vec<_>>()),
        samples: run.samples,
        groups: 1,
        window: run.window,
        sequential: false,
        attempted: run.attempted,
        errors: run.errors,
        mismatched: run.mismatched,
        distinct: run.distinct,
        peak_rss_mb: run.peak_rss_mb,
        net,
    })
}

/// The requests the traced run replays, and how they share a session.
fn trace_lines(args: &Args) -> (Vec<String>, Sessions) {
    match args.workload.as_str() {
        "serve_unique" => {
            let mut stream = gen::UniqueStream::new(args.seed);
            let lines = (0..TRACE_UNIQUE_REQUESTS)
                .map(|_| stream.next_line())
                .collect();
            (lines, Sessions::Shared)
        }
        _ => {
            // Rounds over the grids, so that each grid is replayed with
            // the traced and the untraced side first alike.
            let grids = gen::dse_grids(args.seed);
            let lines = (0..TRACE_DSE_ROUNDS)
                .flat_map(|_| grids.iter().map(|g| g.request().encode()))
                .collect();
            (lines, Sessions::PerRequest)
        }
    }
}

/// The per-layer metrics every `--trace 1` run reports, with their units;
/// a layer that is not on the workload's path reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.reply_kb", "KB"),
    ("net.server_p50_us", "us"),
    ("net.transport_us", "us"),
    ("net.coalesced_frac", "frac"),
    ("net.shed", "count"),
    ("baselines.compare_us", "us"),
    ("resolve.us", "us"),
    ("compiler.compile_us", "us"),
    ("compiler.plan_hit_rate", "frac"),
    ("isa.program_build_us", "us"),
    ("sim.analytic_layer_us", "us"),
    ("sim.event_layer_us", "us"),
    ("sim.layer_hit_rate", "frac"),
    ("energy.layer_us", "us"),
    ("dse.explore_1w_ms", "ms"),
    ("dse.explore_2w_ms", "ms"),
    ("dse.layer_evals", "count"),
    ("dse.layer_unique", "count"),
    ("dse.compile_unique", "count"),
    ("session.handle_us", "us"),
    ("trace.coverage", "frac"),
    ("trace.overhead", "frac"),
    ("workload.distinct_frac", "frac"),
    ("workload.ops", "count"),
];

/// Throughput and latency percentiles of one slice of the timed window.
struct SliceFigures {
    ops_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    samples: usize,
}

/// Cuts the timed window into slices of about `slice_s` seconds, by
/// completion time, and computes each slice's figures.
///
/// Each sample is scaled by its group's median over the run, the slice's
/// samples are pooled, and a pooled quantile is scaled back by the mean
/// group median; with one group this is the plain quantile.
fn slices(m: &Measured, slice_s: f64) -> Vec<SliceFigures> {
    let window_s = (m.window.1 - m.window.0).as_secs_f64();
    let n = ((window_s / slice_s).round() as usize).max(1);
    let width = window_s / n as f64;
    let mut by_group = vec![Vec::new(); m.groups];
    for s in &m.samples {
        by_group[s.group].push(s.us);
    }
    let medians: Vec<f64> = by_group.iter_mut().map(|g| median(g)).collect();
    let present: Vec<f64> = medians.iter().copied().filter(|x| x.is_finite()).collect();
    let mean_median = present.iter().sum::<f64>() / present.len() as f64;
    let mut buckets: Vec<Vec<&Sample>> = vec![Vec::new(); n];
    for s in &m.samples {
        let at = s.done.saturating_duration_since(m.window.0).as_secs_f64();
        buckets[((at / width) as usize).min(n - 1)].push(s);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| {
            let mut scaled: Vec<f64> = b.iter().map(|s| s.us / medians[s.group]).collect();
            let busy_s = if m.sequential {
                b.iter().map(|s| s.us).sum::<f64>() / 1e6
            } else {
                width
            };
            let mut ms = |q: f64| quantile(&mut scaled, q) * mean_median / 1e3;
            SliceFigures {
                ops_per_s: b.len() as f64 / busy_s,
                p50_ms: ms(0.50),
                p90_ms: ms(0.90),
                p99_ms: ms(0.99),
                samples: b.len(),
            }
        })
        .collect()
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    gen::check_determinism(&args.workload, args.seed)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let m = measure(&args, cores)?;
    let failed = m.errors + m.mismatched;
    if m.samples.is_empty() || m.window.1 <= m.window.0 {
        return Err("the timed window completed no operation".to_string());
    }
    let slice_s = if m.sequential {
        DSE_SLICE_S
    } else {
        SERVE_SLICE_S
    };
    let slices = slices(&m, slice_s);
    // The slice quartile on the metric's good side: contention from the
    // host's other tenants comes in bursts and only ever slows a slice.
    let across = |figure: fn(&SliceFigures) -> f64, higher_is_better: bool| {
        let mut values: Vec<f64> = slices.iter().map(figure).collect();
        quantile(&mut values, if higher_is_better { 0.75 } else { 0.25 })
    };

    let mut context = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::uint(args.seed)),
        ("cores", Json::uint(cores as u64)),
        (
            "clients",
            Json::uint(if args.workload == "dse_cold" {
                1
            } else {
                CLIENTS as u64
            }),
        ),
        ("samples", Json::uint(m.samples.len() as u64)),
        ("slices", Json::uint(slices.len() as u64)),
        (
            "slice_samples_min",
            Json::uint(slices.iter().map(|f| f.samples).min().unwrap_or(0) as u64),
        ),
        (
            "window_s",
            Json::float((m.window.1 - m.window.0).as_secs_f64()),
        ),
        ("setup_samples", Json::uint(m.setup_s.len() as u64)),
        ("errors", Json::uint(m.errors)),
        ("mismatched", Json::uint(m.mismatched)),
        ("fail_frac", Json::float(failed as f64 / m.attempted as f64)),
        ("distinct", Json::uint(m.distinct)),
    ];

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let (lines, sessions) = trace_lines(&args);
        let spans = args
            .out
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let report = trace::replay(&lines, sessions, &spans)?;
        let unaccounted_is = if args.workload == "dse_cold" {
            "Session::dse glue outside the stage spans: grid and spec checks, \
             infeasible sampling and reply struct assembly in dse_reply"
        } else {
            "Session::handle glue outside the stage spans (dispatch, reply \
             struct assembly, model clones) and, in sweeps, the DSE engine's \
             bookkeeping (variant fingerprints, layer-key sets, point \
             assembly); negative when timer overhead on many short spans \
             exceeds it"
        };
        context.extend([
            ("trace_requests", Json::uint(report.requests as u64)),
            ("spans", Json::Str(spans.display().to_string())),
            (
                "unaccounted_us_per_op",
                Json::float(report.unaccounted_us_per_op),
            ),
            ("probe_ms", Json::float(report.probe_ms)),
            ("unaccounted_is", Json::Str(unaccounted_is.to_string())),
        ]);
        let mut all = report.metrics;
        all.extend(m.net.iter().map(|(k, v)| (*k, *v)));
        all.insert(
            "workload.distinct_frac",
            m.distinct as f64 / m.attempted as f64,
        );
        all.insert("workload.ops", m.attempted as f64);
        // Both medians are unquantized; the server's own histogram p50 is a
        // power-of-two bucket bound, too coarse to subtract. Clamped at 0,
        // since the two medians come from different runs of the requests.
        if !m.net.is_empty() {
            let handle_us = all.get("session.handle_us").copied().unwrap_or(0.0);
            all.insert("net.transport_us", (m.client_p50_us - handle_us).max(0.0));
        }
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, all.get(name).copied().unwrap_or(0.0), *unit))
            .collect()
    } else {
        vec![
            ("setup_s", median(&mut m.setup_s.clone()), "s"),
            ("ops_per_s", across(|f| f.ops_per_s, true), "1/s"),
            ("op_p50_ms", across(|f| f.p50_ms, false), "ms"),
            ("op_p90_ms", across(|f| f.p90_ms, false), "ms"),
            ("op_p99_ms", across(|f| f.p99_ms, false), "ms"),
            ("ok_frac", 1.0 - failed as f64 / m.attempted as f64, "frac"),
            ("peak_rss_mb", m.peak_rss_mb, "MB"),
        ]
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }

    println!(
        "{}",
        Json::obj(vec![("context", Json::obj(context))]).encode()
    );
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let metric = Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.into())),
            ]);
            (name, metric)
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::uint(m.attempted)),
        ("failed", Json::uint(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.encode());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} error replies, {} replies differ from the in-process reference",
            m.errors, m.mismatched
        );
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
