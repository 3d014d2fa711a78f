//! Seeded request generators. The program under test sees only what these
//! produce: wire lines for `serve_unique`, argv for `dse_cold`. The
//! same seed always yields byte-identical streams.

use std::collections::HashSet;

use bitfusion_core::util::SplitMix64;
use bitfusion_dnn::model::Model;
use bitfusion_dnn::synth::{synthesize, SynthConfig};
use bitfusion_dnn::zoo::Benchmark;
use bitfusion_service::protocol::{
    ArchPreset, BackendChoice, DseParams, ModelSource, Request, SweepAxis,
};

const ZOO: [&str; 8] = [
    "alexnet",
    "cifar-10",
    "lstm",
    "lenet-5",
    "resnet-18",
    "rnn",
    "svhn",
    "vgg-7",
];

const BACKENDS: [BackendChoice; 2] = [BackendChoice::Analytic, BackendChoice::Event];

const WIDTHS: [u32; 5] = [1, 2, 4, 8, 16];

/// Fisher–Yates shuffle driven by the seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Inline synthesized models per block of the `serve_unique` stream,
/// beside the 8 zoo networks: 3 of 11 model slots, about a quarter.
const SYNTH_SLOTS: usize = 3;

/// Commands per (model, backend) slot pair in a `serve_unique` block.
const UNIQUE_CMDS: [Cmd; 8] = [
    Cmd::Report,
    Cmd::Report,
    Cmd::Report,
    Cmd::Compare,
    Cmd::Compare,
    Cmd::Sweep(SweepAxis::Batch),
    Cmd::Sweep(SweepAxis::Bandwidth),
    Cmd::Quantize,
];

#[derive(Debug, Clone, Copy)]
enum Cmd {
    Report,
    Compare,
    Sweep(SweepAxis),
    Quantize,
}

/// Batch strata of the `serve_unique` stream: 1–256 in 8 bands of 32.
const BATCH_STRATA: u64 = 8;

/// One cell of a `serve_unique` block: which model (a zoo index, or
/// `ZOO.len()..` for a fresh synthesized model), backend and command, and
/// the batch band to draw from.
#[derive(Debug, Clone, Copy)]
struct Slot {
    model: usize,
    backend: BackendChoice,
    cmd: Cmd,
    stratum: u64,
}

/// The `serve_unique` stream: an unbounded, seeded sequence of distinct
/// request lines. Random batch (1–256), bandwidth and per-layer `quant`
/// overrides on both backends; about a quarter carry an inline model from
/// [`synthesize`].
///
/// The stream is stratified: it is a sequence of blocks, each holding
/// every (model slot × backend × command) cell once in a seeded order, and
/// each cell steps through the 8 batch bands of 32 in turn, from a seeded
/// starting band. Every seed thus sends the same mix of work and only the
/// per-request draws differ. A purely random mix lets a few heavy requests
/// (event-backend runs of AlexNet at large batch) swing a run's throughput
/// by a third between seeds.
pub struct UniqueStream {
    rng: SplitMix64,
    seen: HashSet<String>,
    block: Vec<Slot>,
    blocks: u64,
    band_offsets: Vec<u64>,
}

impl UniqueStream {
    /// A fresh stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0002);
        let cells = (ZOO.len() + SYNTH_SLOTS) * BACKENDS.len() * UNIQUE_CMDS.len();
        let band_offsets = (0..cells).map(|_| rng.below(BATCH_STRATA)).collect();
        UniqueStream {
            rng,
            seen: HashSet::new(),
            block: Vec::new(),
            blocks: 0,
            band_offsets,
        }
    }

    /// The next line never produced before by this stream.
    pub fn next_line(&mut self) -> String {
        loop {
            let line = self.draw().encode();
            if self.seen.insert(line.clone()) {
                return line;
            }
        }
    }

    fn next_slot(&mut self) -> Slot {
        if self.block.is_empty() {
            for model in 0..ZOO.len() + SYNTH_SLOTS {
                for backend in BACKENDS {
                    for cmd in UNIQUE_CMDS {
                        let offset = self.band_offsets[self.block.len()];
                        self.block.push(Slot {
                            model,
                            backend,
                            cmd,
                            stratum: (self.blocks + offset) % BATCH_STRATA,
                        });
                    }
                }
            }
            self.blocks += 1;
            shuffle(&mut self.block, &mut self.rng);
        }
        self.block.pop().expect("a block is never empty")
    }

    fn draw(&mut self) -> Request {
        let slot = self.next_slot();
        let rng = &mut self.rng;
        let (model, source) = match ZOO.get(slot.model) {
            Some(name) => {
                let bench = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name().eq_ignore_ascii_case(name))
                    .expect("ZOO names zoo benchmarks");
                (bench.model(), ModelSource::zoo(*name))
            }
            None => {
                let m = synthesize(SynthConfig::default(), rng.next_u64());
                (m.clone(), ModelSource::External(m))
            }
        };
        let quant = Some(layer_overrides(&model, rng));
        let backend = Some(slot.backend);
        let band = 256 / BATCH_STRATA;
        let batch = 1 + band * slot.stratum + rng.below(band);
        match slot.cmd {
            Cmd::Report => Request::Report {
                model: source,
                batch,
                bandwidth: Some(32 + 8 * rng.below(61) as u32),
                arch: ArchPreset::Isca45nm,
                backend,
                quant,
            },
            Cmd::Compare => Request::Compare {
                model: source,
                batch,
                backend,
                quant,
            },
            Cmd::Sweep(axis) => Request::Sweep {
                model: source,
                axis,
                backend,
                quant,
            },
            Cmd::Quantize => Request::Quantize {
                model: source,
                quant,
            },
        }
    }
}

/// One to three `layer:<name>=I/W` clauses on distinct multiplying layers.
fn layer_overrides(model: &Model, rng: &mut SplitMix64) -> String {
    let mut names: Vec<&str> = model.mac_layers().map(|l| l.name.as_str()).collect();
    shuffle(&mut names, rng);
    let clauses = 1 + rng.below(3) as usize;
    names
        .iter()
        .take(clauses)
        .map(|name| {
            let i = WIDTHS[rng.below(WIDTHS.len() as u64) as usize];
            let w = WIDTHS[rng.below(WIDTHS.len() as u64) as usize];
            format!("layer:{name}={i}/{w}")
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// One `dse_cold` design space: the whole zoo on rows {16,32} × cols
/// {8,16} × bandwidth {64,128,256} × quant {paper, uniform8} (192 points)
/// with seeded IBUF/WBUF capacities, naming the zoo networks in a seeded
/// order (the reply lists them in that order; the work is the same).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DseGrid {
    /// IBUF capacity in KB.
    pub ibuf_kb: u64,
    /// WBUF capacity in KB.
    pub wbuf_kb: u64,
    /// The zoo networks, in the order the request names them.
    pub networks: [&'static str; 8],
}

impl DseGrid {
    /// The request the one-shot CLI builds from [`DseGrid::argv`].
    pub fn request(&self) -> Request {
        Request::Dse(DseParams {
            rows: vec![16, 32],
            cols: vec![8, 16],
            bandwidth: vec![64, 128, 256],
            quants: vec!["paper".to_string(), "uniform8".to_string()],
            ibuf_kb: vec![self.ibuf_kb],
            wbuf_kb: vec![self.wbuf_kb],
            networks: Some(self.networks.iter().map(|n| n.to_string()).collect()),
            backend: Some(BackendChoice::Event),
            ..DseParams::default()
        })
    }

    /// The `bitfusion-cli` arguments of one `dse_cold` process.
    pub fn argv(&self) -> Vec<String> {
        [
            "dse",
            "--backend",
            "event",
            "--json",
            "--rows",
            "16,32",
            "--cols",
            "8,16",
            "--bandwidth",
            "64,128,256",
            "--quant",
            "paper,uniform8",
            "--ibuf-kb",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([
            self.ibuf_kb.to_string(),
            "--wbuf-kb".to_string(),
            self.wbuf_kb.to_string(),
            "--networks".to_string(),
            self.networks.join(","),
        ])
        .collect()
    }
}

/// The 3 grids one `dse_cold` run cycles through, drawn by `seed`: the IBUF sizes {16,32,64} KB
/// paired with a seeded permutation of the WBUF sizes {32,64,128} KB, in a
/// seeded order. Every seed thus uses each IBUF and each WBUF size once,
/// so its total work is close to every other seed's.
pub fn dse_grids(seed: u64) -> Vec<DseGrid> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0003);
    let mut wbuf = [32, 64, 128];
    shuffle(&mut wbuf, &mut rng);
    let mut grids: Vec<DseGrid> = [16, 32, 64]
        .into_iter()
        .zip(wbuf)
        .map(|(ibuf_kb, wbuf_kb)| {
            let mut networks = ZOO;
            shuffle(&mut networks, &mut rng);
            DseGrid {
                ibuf_kb,
                wbuf_kb,
                networks,
            }
        })
        .collect();
    shuffle(&mut grids, &mut rng);
    grids
}

/// A prefix of each workload's input, as text: what the determinism checks
/// compare across seeds.
pub fn fingerprint_stream(workload: &str, seed: u64) -> Vec<String> {
    match workload {
        "serve_unique" => {
            let mut s = UniqueStream::new(seed);
            (0..64).map(|_| s.next_line()).collect()
        }
        _ => dse_grids(seed).iter().map(|g| g.argv().join(" ")).collect(),
    }
}

/// Same seed → byte-identical stream; next seed → a different one.
pub fn check_determinism(workload: &str, seed: u64) -> Result<(), String> {
    let a = fingerprint_stream(workload, seed);
    if a != fingerprint_stream(workload, seed) {
        return Err(format!(
            "{workload}: seed {seed} gave two different streams"
        ));
    }
    if a == fingerprint_stream(workload, seed.wrapping_add(1)) {
        return Err(format!(
            "{workload}: seeds {seed} and {} gave the same stream",
            seed + 1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitfusion_service::protocol::Response;
    use bitfusion_service::Session;

    #[test]
    fn streams_are_seed_deterministic() {
        for workload in ["serve_unique", "dse_cold"] {
            for seed in [0, 1, 7, 12345] {
                check_determinism(workload, seed).unwrap();
            }
        }
    }

    #[test]
    fn unique_stream_never_repeats_and_never_fails() {
        let mut stream = UniqueStream::new(11);
        let session = Session::new();
        let mut seen = HashSet::new();
        let mut inline = 0;
        for _ in 0..300 {
            let line = stream.next_line();
            inline += usize::from(line.contains(r#""model":{"#));
            let reply = session.handle(&Request::parse(&line).unwrap());
            assert!(
                !matches!(reply, Response::Error { .. }),
                "{line}: {reply:?}"
            );
            assert!(seen.insert(line));
        }
        assert!(
            (40..=110).contains(&inline),
            "about a quarter inline: {inline}"
        );
    }

    #[test]
    fn dse_grids_are_distinct_and_match_the_cli_flags() {
        let grids = dse_grids(5);
        let distinct: HashSet<&DseGrid> = grids.iter().collect();
        assert_eq!(distinct.len(), 3);
        let argv = grids[0].argv().join(" ");
        assert!(
            argv.contains(&format!("--ibuf-kb {}", grids[0].ibuf_kb)),
            "{argv}"
        );
    }
}
