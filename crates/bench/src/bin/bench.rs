//! The two-backend perf trajectory emitter. It measures the whole-zoo
//! quant × arch DSE sweep cold and warm under **both** simulation backends
//! (analytic and event), microbenchmarks the event backend's cache-miss
//! path — compiled [`SegmentProgram`] replay vs the naive reference tree
//! walk it replaced, as the median of repeated whole-zoo passes — and
//! writes a trajectory file (`BENCH_pr7.json` unless `--out` names
//! another).
//!
//! Three modes:
//!
//! * `cargo run -p bitfusion-bench --bin bench` — full measurement; writes
//!   `BENCH_pr7.json` (override with `--out <path>`), asserts the ≥5×
//!   warm-sweep speedup on runners with ≥4 cores and the ≥2× compiled-walk
//!   speedup over the naive walk.
//! * `-- --test` — shrunken grid for the CI smoke run; all structural
//!   assertions (byte-determinism across warmth and across backends' walk
//!   strategies, ≥50% per-network layer hit rates) still run, only the
//!   wall-clock assertions are skipped.
//! * `-- --check <path>` — no measurement: parses an existing trajectory
//!   file and fails unless it is well-formed, both backend series are
//!   present, the recorded compiled-vs-naive event-walk speedup is ≥2×,
//!   and the ResNet-18 / VGG-7 layer-cache hit rates are ≥50%. This is the
//!   CI gate on the committed `BENCH_*.json` trajectory files.
//!
//! In a file's `event_walk` object, `compiled_seconds` and `naive_seconds`
//! are the median seconds of one whole-zoo pass over `reps` passes; files
//! without `reps` (`BENCH_pr7.json`) hold the total of 5 passes instead.
//! Either way `speedup` is their ratio.
//!
//! [`SegmentProgram`]: bitfusion::isa::SegmentProgram

use std::process::ExitCode;
use std::time::Instant;

use bitfusion::compiler::{compile, ArtifactCache};
use bitfusion::core::arch::ArchConfig;
use bitfusion::core::grid::ArchGrid;
use bitfusion::dnn::zoo::Benchmark;
use bitfusion::dnn::QuantSpec;
use bitfusion::energy::FusionEnergy;
use bitfusion::service::json::{parse, Json};
use bitfusion::sim::layer_cache::run_cached;
use bitfusion::sim::pool::default_workers;
use bitfusion::sim::{
    evaluate_layer_naive, explore_with_caches, AnalyticBackend, DseResult, DseSpec, EventBackend,
    LayerPerfCache, SimBackend, SimOptions,
};

/// The whole-zoo quant × arch sweep (`--test` shrinks it for CI).
fn sweep_spec(test_mode: bool) -> DseSpec {
    let grid = if test_mode {
        ArchGrid {
            rows: vec![16, 32],
            dram_bits_per_cycle: vec![64, 128],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        }
    } else {
        ArchGrid {
            rows: vec![16, 32],
            cols: vec![8, 16],
            dram_bits_per_cycle: vec![64, 128, 256],
            ..ArchGrid::from_base(ArchConfig::isca_45nm())
        }
    };
    let models = if test_mode {
        vec![Benchmark::Lstm, Benchmark::Rnn, Benchmark::ResNet18]
    } else {
        Benchmark::ALL.to_vec()
    };
    DseSpec {
        grid,
        models: models.iter().map(|b| b.model()).collect(),
        quant_specs: vec![
            QuantSpec::paper(),
            QuantSpec::uniform(8).expect("uniform8 is a supported spec"),
        ],
        batches: vec![16],
        options: SimOptions::default(),
    }
}

/// Runs the sweep against the given caches and returns (seconds, result).
fn timed_sweep<B: SimBackend + Sync>(
    spec: &DseSpec,
    backend: &B,
    workers: usize,
    cache: &ArtifactCache,
    layer_cache: &LayerPerfCache,
) -> (f64, DseResult) {
    let start = Instant::now();
    let result = explore_with_caches(spec, backend, workers, cache, layer_cache);
    (start.elapsed().as_secs_f64(), result)
}

/// The cold/warm numbers of one backend's sweep series.
struct SweepSeries {
    cold_seconds: f64,
    warm_seconds: f64,
    layer_evals: u64,
    layer_unique: u64,
    layer_cache_hits: u64,
    layer_cache_misses: u64,
    layer_cache_hit_rate: f64,
}

/// Runs one backend's cold+warm sweep with fresh caches and checks the
/// determinism contract (warmth changes wall-clock, never bytes).
fn backend_series<B: SimBackend + Sync>(
    label: &str,
    spec: &DseSpec,
    backend: &B,
    workers: usize,
) -> SweepSeries {
    let cache = ArtifactCache::default();
    let layer_cache = LayerPerfCache::default();
    let (t_cold, r_cold) = timed_sweep(spec, backend, workers, &cache, &layer_cache);
    let (t_warm, r_warm) = timed_sweep(spec, backend, workers, &cache, &layer_cache);

    let f_cold = r_cold.pareto_frontier();
    let f_warm = r_warm.pareto_frontier();
    assert_eq!(f_cold.len(), f_warm.len(), "{label}: frontier size diverged");
    for (a, b) in f_cold.iter().zip(&f_warm) {
        assert_eq!(a.arch, b.arch, "{label}: frontier membership diverged");
        assert_eq!(
            a.total_cycles, b.total_cycles,
            "{label}: frontier cycles diverged"
        );
    }
    assert_eq!(r_cold.layer_evals, r_warm.layer_evals);
    assert_eq!(r_cold.layer_unique, r_warm.layer_unique);

    let stats = layer_cache.stats();
    let rate = stats
        .hit_rate()
        .expect("the sweep touched the layer cache");
    let points = spec.len() as f64;
    println!(
        "  {label:<8} cold: {:8.1} ms ({:7.1} points/s); {} unique layer evals of {}",
        t_cold * 1e3,
        points / t_cold,
        r_cold.layer_unique,
        r_cold.layer_evals
    );
    println!(
        "  {label:<8} warm: {:8.1} ms ({:7.1} points/s); {:.2}x, layer cache {:.1}% hits",
        t_warm * 1e3,
        points / t_warm,
        t_cold / t_warm,
        rate * 100.0
    );
    SweepSeries {
        cold_seconds: t_cold,
        warm_seconds: t_warm,
        layer_evals: r_cold.layer_evals,
        layer_unique: r_cold.layer_unique,
        layer_cache_hits: stats.hits,
        layer_cache_misses: stats.misses,
        layer_cache_hit_rate: rate,
    }
}

/// Serializes one backend series.
fn series_json(spec: &DseSpec, s: &SweepSeries) -> Json {
    let points = spec.len() as f64;
    Json::obj(vec![
        ("points", Json::uint(spec.len() as u64)),
        ("cold_seconds", Json::float(s.cold_seconds)),
        ("warm_seconds", Json::float(s.warm_seconds)),
        ("cold_points_per_sec", Json::float(points / s.cold_seconds)),
        ("warm_points_per_sec", Json::float(points / s.warm_seconds)),
        ("warm_speedup", Json::float(s.cold_seconds / s.warm_seconds)),
        ("layer_evals", Json::uint(s.layer_evals)),
        ("layer_unique", Json::uint(s.layer_unique)),
        ("layer_cache_hits", Json::uint(s.layer_cache_hits)),
        ("layer_cache_misses", Json::uint(s.layer_cache_misses)),
        ("layer_cache_hit_rate", Json::float(s.layer_cache_hit_rate)),
    ])
}

/// The timings of [`event_walk_bench`].
struct WalkTimes {
    /// Layers evaluated per pass.
    layers: u64,
    /// Passes per walk strategy.
    reps: usize,
    /// Median seconds of one compiled-program pass.
    compiled: f64,
    /// Median seconds of one naive-walk pass.
    naive: f64,
}

/// The median of `samples` (the upper middle one for an even count).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The event-walk microbench: cold per-layer evaluation over the whole zoo
/// (every benchmark, batch 16), compiled segment programs vs the retained
/// naive reference walk. This is exactly the work a layer-cache miss pays.
/// Each strategy makes `reps` whole-zoo passes, timed one by one, and
/// reports the median pass, so one descheduled pass cannot move it.
fn event_walk_bench(test_mode: bool) -> WalkTimes {
    let arch = ArchConfig::isca_45nm();
    let energy = FusionEnergy::isca_45nm();
    let opts = SimOptions::default();
    let models = if test_mode {
        vec![Benchmark::Lstm, Benchmark::Svhn]
    } else {
        Benchmark::ALL.to_vec()
    };
    let batch = if test_mode { 4 } else { 16 };
    let plans: Vec<_> = models
        .iter()
        .map(|b| compile(&b.model(), &arch, batch).expect("zoo models compile"))
        .collect();
    let layers: Vec<_> = plans.iter().flat_map(|p| p.layers.iter()).collect();
    let reps = if test_mode { 1 } else { 9 };

    // Bit-identical first: the fast path must be a pure optimization.
    for l in &layers {
        assert_eq!(
            EventBackend.evaluate_layer(l, &arch, &energy, &opts),
            evaluate_layer_naive(l, &arch, &energy, &opts),
            "{}: compiled replay diverged from the reference walk",
            l.name
        );
    }

    let mut cycles_compiled = 0u64;
    let mut cycles_naive = 0u64;
    let mut t_compiled = Vec::with_capacity(reps);
    let mut t_naive = Vec::with_capacity(reps);
    // Alternate the strategies so a slow stretch of the host hits both.
    for _ in 0..reps {
        let start = Instant::now();
        for l in &layers {
            cycles_compiled += EventBackend.evaluate_layer(l, &arch, &energy, &opts).cycles;
        }
        t_compiled.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for l in &layers {
            cycles_naive += evaluate_layer_naive(l, &arch, &energy, &opts).cycles;
        }
        t_naive.push(start.elapsed().as_secs_f64());
    }
    assert_eq!(cycles_compiled, cycles_naive, "walk strategies diverged");

    WalkTimes {
        layers: layers.len() as u64,
        reps,
        compiled: median(t_compiled),
        naive: median(t_naive),
    }
}

/// One network's layer-cache effectiveness on the session `report` path: a
/// cold pass fills the cache, a warm pass (the steady state of a serving
/// session) reuses it. With `U` unique shapes among `L` layers, the
/// two-pass hit rate is `1 - U/2L ≥ 50%` — strictly above for networks
/// that repeat shapes (ResNet-18's basic blocks).
fn network_hit_rate(benchmark: Benchmark) -> (u64, u64, f64) {
    let arch = ArchConfig::isca_45nm();
    let model = benchmark.model();
    let opts = SimOptions::default();
    let cache = LayerPerfCache::default();
    let cold = run_cached(&AnalyticBackend, &model, &arch, 16, &opts, &cache)
        .expect("zoo models compile");
    let warm = run_cached(&AnalyticBackend, &model, &arch, 16, &opts, &cache)
        .expect("zoo models compile");
    assert_eq!(cold, warm, "{benchmark}: warmth must never change results");
    let stats = cache.stats();
    let rate = stats
        .hit_rate()
        .expect("both passes touched the layer cache");
    (stats.hits, stats.misses, rate)
}

/// Validates one backend series object inside a trajectory file.
fn check_series(doc: &Json, backend: &str) -> Result<(), String> {
    let sweep = doc
        .get("sweeps")
        .and_then(|s| s.get(backend))
        .ok_or(format!("missing field `sweeps.{backend}`"))?;
    for field in ["points", "layer_evals", "layer_unique"] {
        sweep
            .get(field)
            .and_then(Json::as_u64)
            .ok_or(format!("sweeps.{backend}.{field} missing or not an integer"))?;
    }
    for field in ["cold_points_per_sec", "warm_points_per_sec", "warm_speedup"] {
        let v = sweep
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("sweeps.{backend}.{field} missing or not a number"))?;
        if v <= 0.0 {
            return Err(format!(
                "sweeps.{backend}.{field} must be positive, got {v}"
            ));
        }
    }
    Ok(())
}

/// `--check` mode: validate a committed trajectory file.
fn check(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: unreadable: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: malformed JSON: {e}"))?;
    check_series(&doc, "analytic")?;
    check_series(&doc, "event")?;
    let walk = doc.get("event_walk").ok_or("missing field `event_walk`")?;
    walk.get("layer_evals")
        .and_then(Json::as_u64)
        .ok_or("event_walk.layer_evals missing or not an integer")?;
    for field in ["compiled_seconds", "naive_seconds"] {
        let v = walk
            .get(field)
            .and_then(Json::as_f64)
            .ok_or(format!("event_walk.{field} missing or not a number"))?;
        if v <= 0.0 {
            return Err(format!("event_walk.{field} must be positive, got {v}"));
        }
    }
    let speedup = walk
        .get("speedup")
        .and_then(Json::as_f64)
        .ok_or("event_walk.speedup missing or not a number")?;
    // Test-mode files come from shrunken 1-rep smoke runs whose wall clock
    // is noise; only full measurements gate the 2x floor.
    let full = doc.get("mode").and_then(Json::as_str) != Some("test");
    if full && speedup < 2.0 {
        return Err(format!(
            "event_walk.speedup {speedup:.2} below the 2x floor the compiled \
             segment programs must clear"
        ));
    }
    let networks = doc
        .get("networks")
        .and_then(Json::as_arr)
        .ok_or("missing `networks` array")?;
    for required in ["ResNet-18", "VGG-7"] {
        let entry = networks
            .iter()
            .find(|n| n.get("name").and_then(Json::as_str) == Some(required))
            .ok_or(format!("network `{required}` missing"))?;
        let rate = entry
            .get("layer_cache_hit_rate")
            .and_then(Json::as_f64)
            .ok_or(format!("{required}: layer_cache_hit_rate missing"))?;
        if rate < 0.5 {
            return Err(format!(
                "{required}: layer-cache hit rate {rate:.3} below the 50% floor"
            ));
        }
    }
    println!(
        "{path}: OK (both backend series present, event walk {speedup:.2}x >= 2x, \
         per-network layer-cache hit rates >= 50%)"
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let path = args.get(pos + 1).map_or("BENCH_pr7.json", String::as_str);
        return match check(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench --check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let test_mode = args.iter().any(|a| a == "--test");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|p| args.get(p + 1))
        .map_or("BENCH_pr7.json", String::as_str);
    let cores = default_workers();
    let spec = sweep_spec(test_mode);

    println!(
        "two-backend bench: {} archs x {} networks x {} quants = {} points on {cores} core(s)",
        spec.grid.len(),
        spec.models.len(),
        spec.quant_specs.len(),
        spec.len()
    );

    // Cold: empty caches — every point pays compilation and evaluation.
    // Warm: the same caches again — the steady state of a serving session.
    let analytic = backend_series("analytic", &spec, &AnalyticBackend, cores);
    let event = backend_series("event", &spec, &EventBackend, cores);

    println!("\nevent-backend cache-miss walk (whole zoo, per-layer cold eval):");
    let walk = event_walk_bench(test_mode);
    let walk_speedup = walk.naive / walk.compiled;
    println!(
        "  compiled programs: {:8.2} ms per pass, median of {} ({:7.0} layer evals/s)",
        walk.compiled * 1e3,
        walk.reps,
        walk.layers as f64 / walk.compiled
    );
    println!(
        "  naive tree walk:   {:8.2} ms per pass, median of {} ({:7.0} layer evals/s)",
        walk.naive * 1e3,
        walk.reps,
        walk.layers as f64 / walk.naive
    );
    println!("  compiled-walk speedup: {walk_speedup:.2}x");

    let mut networks = Vec::new();
    println!("\nper-network layer-cache hit rate (cold + warm report, batch 16):");
    for b in [Benchmark::ResNet18, Benchmark::Vgg7] {
        let (hits, misses, rate) = network_hit_rate(b);
        println!(
            "  {:<10} {:3} hits / {:3} unique: {:5.1}%",
            b.name(),
            hits,
            misses,
            rate * 100.0
        );
        assert!(
            rate >= 0.5,
            "{}: layer-cache hit rate {rate:.3} below the 50% floor",
            b.name()
        );
        networks.push(Json::obj(vec![
            ("name", Json::Str(b.name().to_string())),
            ("layer_cache_hits", Json::uint(hits)),
            ("layer_cache_misses", Json::uint(misses)),
            ("layer_cache_hit_rate", Json::float(rate)),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("two_backend_trajectory".to_string())),
        (
            "mode",
            Json::Str(if test_mode { "test" } else { "full" }.to_string()),
        ),
        ("cores", Json::uint(cores as u64)),
        (
            "sweeps",
            Json::obj(vec![
                ("analytic", series_json(&spec, &analytic)),
                ("event", series_json(&spec, &event)),
            ]),
        ),
        (
            "event_walk",
            Json::obj(vec![
                ("layer_evals", Json::uint(walk.layers)),
                ("reps", Json::uint(walk.reps as u64)),
                ("compiled_seconds", Json::float(walk.compiled)),
                ("naive_seconds", Json::float(walk.naive)),
                (
                    "compiled_layer_evals_per_sec",
                    Json::float(walk.layers as f64 / walk.compiled),
                ),
                (
                    "naive_layer_evals_per_sec",
                    Json::float(walk.layers as f64 / walk.naive),
                ),
                ("speedup", Json::float(walk_speedup)),
            ]),
        ),
        ("networks", Json::Arr(networks)),
    ]);
    std::fs::write(out_path, doc.encode() + "\n").expect("trajectory file writable");
    println!("\nwrote {out_path}");

    if test_mode {
        println!("(wall-clock assertions require a full run; skipped)");
        return ExitCode::SUCCESS;
    }
    assert!(
        walk_speedup >= 2.0,
        "compiled segment programs must beat the naive walk by >=2x on the \
         cold whole-zoo eval, got {walk_speedup:.2}x"
    );
    println!("PASS: compiled event walk >=2x the naive walk");
    if cores >= 4 {
        let warm = analytic.cold_seconds / analytic.warm_seconds;
        assert!(
            warm >= 5.0,
            "warm analytic sweep must be >=5x the cold one on {cores} cores, got {warm:.2}x"
        );
        println!("PASS: warm analytic sweep >=5x on {cores} cores");
    } else {
        println!("(5x warm-speedup assertion requires >=4 cores; skipped)");
    }
    ExitCode::SUCCESS
}
