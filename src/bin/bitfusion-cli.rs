//! `bitfusion-cli` — drive the Bit Fusion reproduction from the command
//! line.
//!
//! This binary is a thin adapter over the service layer: every subcommand
//! parses argv into a typed [`Request`], hands it to a [`Session`], and
//! prints either the human-readable rendering or (with `--json`) the
//! response's single-line wire form. `serve` runs the long-running
//! JSON-lines loop over stdin/stdout with the same session machinery, so
//! one-shot `--json` output and serve responses are byte-identical.
//!
//! ```text
//! bitfusion-cli list
//! bitfusion-cli report cifar-10 --batch 16 --bandwidth 256 --json
//! bitfusion-cli compare alexnet
//! bitfusion-cli asm lstm --layer lstm1
//! bitfusion-cli sweep rnn --batch
//! bitfusion-cli sweep vgg-7 --bandwidth
//! bitfusion-cli dse --rows 16,32 --cols 8,16 --bandwidth 64,128,256 --json
//! echo '{"cmd":"report","benchmark":"lstm"}' | bitfusion-cli serve
//! bitfusion-cli serve --unix /tmp/bitfusion.sock &
//! bitfusion-cli client --unix /tmp/bitfusion.sock report lstm --batch 4
//! ```

use std::env;
use std::io::{BufRead, BufReader, BufWriter, Write};
#[cfg(unix)]
use std::os::fd::AsRawFd;
use std::process::ExitCode;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use bitfusion::dnn::{export_model, parse_model, Model, QuantSpec};
use bitfusion::energy::TechNode;
use bitfusion::service::protocol::{
    quant_spec_from_json, ArchPreset, BackendChoice, DseParams, ModelSource, SweepAxis,
    DEFAULT_BATCH,
};
use bitfusion::service::net::{self, NetConfig, NetListener, Stop};
use bitfusion::service::session::find_model;
use bitfusion::service::{render, serve, Request, Response, Session};
use bitfusion::sim::SimOptions;

fn usage() -> &'static str {
    "bitfusion-cli — Bit Fusion (ISCA 2018) reproduction driver

USAGE:
  bitfusion-cli list     [--json]
  bitfusion-cli report   <benchmark | --model FILE> [--batch N] [--bandwidth BITS]
                         [--arch 45nm|16nm|stripes] [--backend analytic|event] [--quant SPEC]
                         [--json] [calibration]
  bitfusion-cli compare  <benchmark | --model FILE> [--batch N] [--backend analytic|event]
                         [--quant SPEC] [--json] [calibration]
  bitfusion-cli asm      <benchmark | --model FILE> [--layer NAME] [--batch N]
                         [--arch 45nm|16nm|stripes] [--json]
  bitfusion-cli sweep    <benchmark | --model FILE> (--batch | --bandwidth)
                         [--backend analytic|event] [--quant SPEC] [--json] [calibration]
  bitfusion-cli quantize <benchmark | --model FILE> [--quant SPEC] [--json]
  bitfusion-cli dse      [--rows LIST] [--cols LIST] [--ibuf-kb LIST] [--wbuf-kb LIST]
                         [--obuf-kb LIST] [--bandwidth LIST] [--batch LIST]
                         [--quant SPEC,SPEC] [--networks all|name,name] [--model FILE]...
                         [--workers N] [--backend analytic|event] [--json] [calibration]
  bitfusion-cli export-model <benchmark|attention-block|depthwise-net>
  bitfusion-cli serve    [--listen ADDR | --unix PATH] [--workers N] [--cache-capacity N]
                         [--max-queue N] [--idle-timeout SECS] [--backend analytic|event]
                         [calibration]
  bitfusion-cli client   (--connect ADDR | --unix PATH) [--keep-alive]
                         [REQUEST-JSON | SUBCOMMAND ARGS...]

external models (`bitfusion-model/1` JSON documents):
  `--model FILE` simulates a model file instead of a zoo benchmark; the
  simulating subcommands take a benchmark name or --model, never both.
  `dse --model` may repeat to add external networks to the explored set
  (combine with `--networks` to keep zoo networks too). `export-model`
  prints a zoo network — or the attention-block / depthwise-net example —
  as a model document to edit and feed back through --model.

quantization SPEC (per-layer bitwidth policies, applied over the paper's
Table II assignment):
  paper | uniform1|2|4|8|16 | a clause list like default=4/1,conv=2/2,layer:fc8=8/8
  | a path to a .json spec file ({\"preset\":\"uniform8\"} or
  {\"default\":\"4/1\",\"kinds\":[{\"kind\":\"conv\",\"precision\":\"2/2\"}],...}).
  `dse --quant` takes a comma list of presets/files and explores them as an
  axis, reporting per-network speedups vs uniform8.

calibration (threaded through the session's SimOptions):
  --systolic-efficiency F   fraction of peak systolic throughput (default 0.85)
  --dram-efficiency F       fraction of peak DRAM bandwidth (default 0.70)
  --node 45nm|16nm|65nm     technology node energies are reported at (default 45nm)

`--json` prints the response as one line of JSON — the same bytes `serve`
writes for the equivalent request. `serve` reads one JSON request per stdin
line ({\"cmd\":\"report\",\"benchmark\":\"lstm\",...}) and writes one
response per stdout line, in request order, dispatching concurrently. A line
that is not a request gets an error response in its slot; a line over 1 MiB
also ends input.

network serve: `serve --listen 127.0.0.1:7040` or `serve --unix PATH` runs
a concurrent server instead of the stdin loop — thread per connection, one
shared cache, a bounded admission queue (`--max-queue`, default 64) that
answers overflow with an error response, and an idle-connection timeout
(`--idle-timeout` seconds, default 300, 0 disables). `{\"cmd\":\"stats\"}`
reports live counters; `{\"cmd\":\"shutdown\"}` (unix socket only) or
SIGINT drains and exits. `client` sends one request to a running server and prints the
response: give it a raw JSON request line, a normal subcommand spelling
(e.g. `client --unix P report lstm --json`), or pipe the request on stdin.
`client --keep-alive` pipelines instead: it holds one connection open and
sends every stdin line as a request, printing one response line per
request in order — same bytes as one-shot clients, without the
per-request reconnect.

BENCHMARKS:
  alexnet cifar-10 lstm lenet-5 resnet-18 rnn svhn vgg-7 (case-insensitive)"
}

/// A usage error: which subcommand, which flag, what went wrong.
#[derive(Debug)]
struct UsageError {
    subcommand: String,
    message: String,
}

impl UsageError {
    fn new(subcommand: &str, message: impl Into<String>) -> Self {
        UsageError {
            subcommand: subcommand.to_string(),
            message: message.into(),
        }
    }
}

/// Cursor over argv with subcommand-aware error messages.
struct Flags<'a> {
    subcommand: &'a str,
    argv: &'a [String],
    pos: usize,
}

impl<'a> Flags<'a> {
    fn new(subcommand: &'a str, argv: &'a [String]) -> Self {
        Flags {
            subcommand,
            argv,
            pos: 0,
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.argv.get(self.pos)?;
        self.pos += 1;
        Some(arg)
    }

    fn err(&self, message: impl Into<String>) -> UsageError {
        UsageError::new(self.subcommand, message)
    }

    /// The value following `flag`, or an error naming flag + subcommand.
    fn value(&mut self, flag: &str) -> Result<&'a str, UsageError> {
        // A following token that is itself a flag is not a value.
        match self.argv.get(self.pos) {
            Some(v) if !v.starts_with("--") => {
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.err(format!("{flag} needs a value"))),
        }
    }

    /// Parses `flag`'s value, or an error naming flag, value, and
    /// subcommand.
    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, UsageError> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| self.err(format!("{flag}: invalid value `{v}`")))
    }

    /// Parses `flag`'s comma-separated list value.
    fn list<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Vec<T>, UsageError> {
        let v = self.value(flag)?;
        let items: Result<Vec<T>, _> = v.split(',').map(str::parse).collect();
        match items {
            Ok(items) if !items.is_empty() => Ok(items),
            _ => Err(self.err(format!("{flag} needs a comma-separated list, got `{v}`"))),
        }
    }

    fn unknown(&self, flag: &str) -> UsageError {
        self.err(format!("unknown flag `{flag}`"))
    }

    /// Resolves one `--quant` value to its canonical compact spelling: a
    /// preset/clause-list spelling parsed directly, or a `.json` spec file
    /// read from disk.
    fn quant_value(&mut self, value: &str) -> Result<String, UsageError> {
        let spec = if value.ends_with(".json") {
            let text = std::fs::read_to_string(value)
                .map_err(|e| self.err(format!("--quant: cannot read `{value}`: {e}")))?;
            let doc = bitfusion::service::json::parse(&text)
                .map_err(|e| self.err(format!("--quant: `{value}` is not valid JSON: {e}")))?;
            quant_spec_from_json(&doc).map_err(|e| self.err(format!("--quant `{value}`: {e}")))?
        } else {
            QuantSpec::parse(value).map_err(|e| self.err(format!("--quant: {e}")))?
        };
        Ok(spec.to_string())
    }

    /// Reads `--model`'s file and parses it as a `bitfusion-model/1`
    /// document, with the path in every diagnostic.
    fn model_value(&mut self) -> Result<Model, UsageError> {
        let path = self.value("--model")?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| self.err(format!("--model: cannot read `{path}`: {e}")))?;
        parse_model(&text).map_err(|e| self.err(format!("--model `{path}`: {e}")))
    }
}

/// Everything a parsed invocation needs to run.
#[derive(Debug)]
struct Invocation {
    mode: Mode,
    json: bool,
    options: SimOptions,
    /// `--backend`: a per-request override for one-shot commands, the
    /// session default for `serve`.
    backend: Option<BackendChoice>,
}

// One Mode lives per process; the Request-sized variant is not worth a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Mode {
    OneShot(Request),
    ExportModel(String),
    Serve {
        workers: usize,
        cache_capacity: Option<usize>,
        listen: Option<String>,
        unix: Option<String>,
        max_queue: usize,
        /// `--idle-timeout` in seconds; `0` disables. Only meaningful
        /// with `--listen`/`--unix` (the stdin loop reads until EOF).
        idle_timeout: u64,
    },
    Client {
        connect: Option<String>,
        unix: Option<String>,
        payload: ClientPayload,
    },
}

/// What `client` sends: a raw request line, a parsed subcommand, or
/// whatever stdin provides.
#[derive(Debug)]
enum ClientPayload {
    /// A raw `{"cmd":...}` line, forwarded verbatim; the response prints
    /// verbatim too.
    Raw(String),
    /// A normal subcommand spelling, rendered like the one-shot command
    /// would be (`--json` for wire bytes).
    Request { request: Box<Request>, json: bool },
    /// Read one request line from stdin, print the response verbatim.
    Stdin,
    /// `--keep-alive`: hold one connection open and pipeline every stdin
    /// line as a request, one response line per request, in order.
    Pipeline,
}

/// Tries to consume one shared flag (`--json`, `--backend`, calibration
/// knobs). Returns whether the flag was recognized.
#[allow(clippy::too_many_arguments)]
fn shared_flag(
    flags: &mut Flags<'_>,
    arg: &str,
    json: &mut bool,
    backend: &mut Option<BackendChoice>,
    options: &mut SimOptions,
) -> Result<bool, UsageError> {
    match arg {
        "--json" => *json = true,
        "--backend" => {
            let v = flags.value("--backend")?;
            *backend = Some(BackendChoice::parse(v).map_err(|e| flags.err(e))?);
        }
        "--systolic-efficiency" => {
            let v: f64 = flags.parse("--systolic-efficiency")?;
            if !(v > 0.0 && v <= 1.0) {
                return Err(flags.err(format!(
                    "--systolic-efficiency must be in (0, 1], got `{v}`"
                )));
            }
            options.systolic_efficiency = v;
        }
        "--dram-efficiency" => {
            let v: f64 = flags.parse("--dram-efficiency")?;
            if !(v > 0.0 && v <= 1.0) {
                return Err(flags.err(format!("--dram-efficiency must be in (0, 1], got `{v}`")));
            }
            options.dram_efficiency = v;
        }
        "--node" => {
            options.node = match flags.value("--node")? {
                "45nm" => TechNode::Nm45,
                "16nm" => TechNode::Nm16,
                "65nm" => TechNode::Nm65,
                other => {
                    return Err(flags.err(format!("--node: unknown node `{other}` (45nm|16nm|65nm)")))
                }
            };
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses `client`'s argv: extracts the target address, treats everything
/// else as the payload — a raw JSON request or a nested subcommand
/// spelling (parsed through [`parse_invocation`] so it accepts exactly
/// the one-shot syntax).
fn parse_client(rest: &[String]) -> Result<Invocation, UsageError> {
    let mut flags = Flags::new("client", rest);
    let mut connect: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut keep_alive = false;
    let mut payload_args: Vec<String> = Vec::new();
    while let Some(arg) = flags.next() {
        match arg {
            "--connect" => connect = Some(flags.value("--connect")?.to_string()),
            "--unix" => unix = Some(flags.value("--unix")?.to_string()),
            "--keep-alive" => keep_alive = true,
            // Everything else — flags included — belongs to the nested
            // subcommand spelling.
            other => payload_args.push(other.to_string()),
        }
    }
    if connect.is_some() == unix.is_some() {
        return Err(UsageError::new(
            "client",
            "`client` needs exactly one of --connect ADDR or --unix PATH",
        ));
    }
    if keep_alive && !payload_args.is_empty() {
        return Err(UsageError::new(
            "client",
            "--keep-alive reads its requests from stdin; drop the inline request",
        ));
    }
    let payload = match payload_args.as_slice() {
        [] if keep_alive => ClientPayload::Pipeline,
        [] => ClientPayload::Stdin,
        [raw] if raw.trim_start().starts_with('{') => ClientPayload::Raw(raw.clone()),
        _ => {
            let inner = parse_invocation(&payload_args)?;
            let Mode::OneShot(request) = inner.mode else {
                return Err(UsageError::new(
                    "client",
                    format!(
                        "`client` sends one-shot requests; `{}` is not one",
                        payload_args[0]
                    ),
                ));
            };
            if inner.options != SimOptions::default() {
                return Err(UsageError::new(
                    "client",
                    "calibration flags configure the server's session; \
                     set them on `serve`, not `client`",
                ));
            }
            ClientPayload::Request {
                request: Box::new(request),
                json: inner.json,
            }
        }
    };
    Ok(Invocation {
        mode: Mode::Client {
            connect,
            unix,
            payload,
        },
        json: false,
        options: SimOptions::default(),
        backend: None,
    })
}

fn parse_invocation(argv: &[String]) -> Result<Invocation, UsageError> {
    let Some(subcommand) = argv.first() else {
        return Err(UsageError::new("", usage()));
    };
    let subcommand = subcommand.as_str();
    let rest = &argv[1..];
    if subcommand == "client" {
        return parse_client(rest);
    }
    let mut flags = Flags::new(subcommand, rest);
    let mut json = false;
    let mut backend: Option<BackendChoice> = None;
    let mut options = SimOptions::default();
    let mut positional: Vec<&str> = Vec::new();

    // Subcommand-specific state.
    let mut batch: Option<u64> = None;
    let mut bandwidth: Option<u32> = None;
    let mut arch = ArchPreset::default();
    let mut layer: Option<String> = None;
    let mut sweep_axis: Option<SweepAxis> = None;
    let mut quant: Option<String> = None;
    let mut model: Option<Model> = None;
    let mut dse = DseParams::default();
    let mut workers: usize = 0;
    let mut cache_capacity: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut max_queue: usize = 64;
    let mut idle_timeout: u64 = 300;
    let mut net_only_flag: Option<&str> = None;

    while let Some(arg) = flags.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        if shared_flag(&mut flags, arg, &mut json, &mut backend, &mut options)? {
            let calibration = matches!(
                arg,
                "--systolic-efficiency" | "--dram-efficiency" | "--node"
            );
            let takes_backend = matches!(
                subcommand,
                "report" | "compare" | "sweep" | "dse" | "serve"
            );
            if arg == "--backend" && !takes_backend {
                return Err(flags.err(format!("`{subcommand}` does not take --backend")));
            }
            if calibration && !takes_backend {
                return Err(flags.err(format!("`{subcommand}` does not take {arg}")));
            }
            if arg == "--json" && subcommand == "serve" {
                return Err(flags.err("`serve` always speaks JSON; drop --json"));
            }
            continue;
        }
        match (subcommand, arg) {
            ("report", "--batch") | ("compare", "--batch") | ("asm", "--batch") => {
                batch = Some(flags.parse("--batch")?);
            }
            ("report", "--bandwidth") => bandwidth = Some(flags.parse("--bandwidth")?),
            ("report", "--arch") | ("asm", "--arch") => {
                let v = flags.value("--arch")?;
                arch = ArchPreset::parse(v).map_err(|e| flags.err(e))?;
            }
            ("asm", "--layer") => layer = Some(flags.value("--layer")?.to_string()),
            ("sweep", "--batch") => sweep_axis = Some(SweepAxis::Batch),
            ("sweep", "--bandwidth") => sweep_axis = Some(SweepAxis::Bandwidth),
            ("report", "--quant") | ("compare", "--quant") | ("sweep", "--quant")
            | ("quantize", "--quant") => {
                let v = flags.value("--quant")?.to_string();
                quant = Some(flags.quant_value(&v)?);
            }
            ("dse", "--quant") => {
                let v = flags.value("--quant")?.to_string();
                let mut quants = Vec::new();
                for entry in v.split(',') {
                    if entry.contains('=') {
                        return Err(flags.err(format!(
                            "--quant: clause-list specs (`{entry}`) are ambiguous in a comma \
                             list; put the spec in a .json file instead"
                        )));
                    }
                    quants.push(flags.quant_value(entry.trim())?);
                }
                // split(',') always yields at least one entry, and an empty
                // entry already failed inside quant_value.
                dse.quants = quants;
            }
            ("report", "--model") | ("compare", "--model") | ("asm", "--model")
            | ("sweep", "--model") | ("quantize", "--model") => {
                if model.is_some() {
                    return Err(flags.err("--model given twice"));
                }
                model = Some(flags.model_value()?);
            }
            ("dse", "--model") => dse.models.push(flags.model_value()?),
            ("dse", "--rows") => dse.rows = flags.list("--rows")?,
            ("dse", "--cols") => dse.cols = flags.list("--cols")?,
            ("dse", "--ibuf-kb") => dse.ibuf_kb = flags.list("--ibuf-kb")?,
            ("dse", "--wbuf-kb") => dse.wbuf_kb = flags.list("--wbuf-kb")?,
            ("dse", "--obuf-kb") => dse.obuf_kb = flags.list("--obuf-kb")?,
            ("dse", "--bandwidth") => dse.bandwidth = flags.list("--bandwidth")?,
            ("dse", "--batch") => dse.batches = flags.list("--batch")?,
            ("dse", "--networks") => {
                let v = flags.value("--networks")?;
                dse.networks = if v == "all" {
                    None
                } else {
                    Some(v.split(',').map(str::to_string).collect())
                };
            }
            ("dse", "--workers") => dse.workers = flags.parse("--workers")?,
            ("serve", "--workers") => workers = flags.parse("--workers")?,
            ("serve", "--cache-capacity") => {
                cache_capacity = Some(flags.parse("--cache-capacity")?)
            }
            ("serve", "--listen") => listen = Some(flags.value("--listen")?.to_string()),
            ("serve", "--unix") => unix = Some(flags.value("--unix")?.to_string()),
            ("serve", "--max-queue") => {
                max_queue = flags.parse("--max-queue")?;
                net_only_flag.get_or_insert("--max-queue");
            }
            ("serve", "--idle-timeout") => {
                idle_timeout = flags.parse("--idle-timeout")?;
                net_only_flag.get_or_insert("--idle-timeout");
            }
            _ => return Err(flags.unknown(arg)),
        }
    }

    let benchmark = |positional: &[&str]| -> Result<String, UsageError> {
        match positional {
            [name] => Ok(name.to_string()),
            [] => Err(UsageError::new(
                subcommand,
                format!("`{subcommand}` needs a benchmark name"),
            )),
            more => Err(UsageError::new(
                subcommand,
                format!("unexpected argument `{}`", more[1]),
            )),
        }
    };
    // The simulating subcommands name their workload either way — a zoo
    // benchmark positional XOR an external `--model` file.
    let source = |positional: &[&str], model: Option<Model>| -> Result<ModelSource, UsageError> {
        match (positional, model) {
            ([name], None) => Ok(ModelSource::zoo(*name)),
            ([], Some(m)) => Ok(ModelSource::External(m)),
            ([_], Some(_)) => Err(UsageError::new(
                subcommand,
                "give either a benchmark name or --model, not both",
            )),
            ([], None) => Err(UsageError::new(
                subcommand,
                format!("`{subcommand}` needs a benchmark name or --model FILE"),
            )),
            (more, _) => Err(UsageError::new(
                subcommand,
                format!("unexpected argument `{}`", more[1]),
            )),
        }
    };
    let no_positional = |positional: &[&str]| -> Result<(), UsageError> {
        match positional.first() {
            None => Ok(()),
            Some(extra) => Err(UsageError::new(
                subcommand,
                format!("unexpected argument `{extra}`"),
            )),
        }
    };

    let mode = match subcommand {
        "list" => {
            no_positional(&positional)?;
            Mode::OneShot(Request::List)
        }
        "report" => Mode::OneShot(Request::Report {
            model: source(&positional, model)?,
            batch: batch.unwrap_or(DEFAULT_BATCH),
            bandwidth,
            arch,
            backend,
            quant,
        }),
        "compare" => Mode::OneShot(Request::Compare {
            model: source(&positional, model)?,
            batch: batch.unwrap_or(DEFAULT_BATCH),
            backend,
            quant,
        }),
        "asm" => Mode::OneShot(Request::Asm {
            model: source(&positional, model)?,
            batch: batch.unwrap_or(DEFAULT_BATCH),
            arch,
            layer,
        }),
        "sweep" => Mode::OneShot(Request::Sweep {
            model: source(&positional, model)?,
            axis: sweep_axis.ok_or_else(|| {
                UsageError::new(subcommand, "`sweep` needs an axis: --batch or --bandwidth")
            })?,
            backend,
            quant,
        }),
        "quantize" => Mode::OneShot(Request::Quantize {
            model: source(&positional, model)?,
            quant,
        }),
        "export-model" => Mode::ExportModel(benchmark(&positional)?),
        "dse" => {
            no_positional(&positional)?;
            dse.backend = backend;
            Mode::OneShot(Request::Dse(dse))
        }
        "serve" => {
            no_positional(&positional)?;
            if listen.is_some() && unix.is_some() {
                return Err(UsageError::new(
                    subcommand,
                    "give --listen or --unix, not both",
                ));
            }
            if let (None, None, Some(flag)) = (&listen, &unix, net_only_flag) {
                return Err(UsageError::new(
                    subcommand,
                    format!("{flag} needs --listen or --unix (stdin serve reads until EOF)"),
                ));
            }
            Mode::Serve {
                workers,
                cache_capacity,
                listen,
                unix,
                max_queue,
                idle_timeout,
            }
        }
        other => {
            return Err(UsageError::new(
                other,
                format!("unknown command `{other}`"),
            ))
        }
    };
    Ok(Invocation {
        mode,
        json,
        options,
        backend,
    })
}

/// The final two-tier cache summary every serve flavour prints on exit.
/// An untouched tier has no hit rate — print `n/a`, not `0.0%`.
fn print_cache_summary(session: &Session, responses: u64, errors: u64) {
    let rate = |r: Option<f64>| match r {
        Some(r) => format!("{:.1}%", r * 100.0),
        None => "n/a".to_string(),
    };
    let stats = session.cache_stats();
    let layers = session.layer_cache_stats();
    eprintln!(
        "serve: {} responses ({} errors); artifact cache: {} hits, {} misses, {} evictions, {}/{} resident, {} hit rate; layer cache: {} hits, {} misses, {}/{} resident, {} hit rate",
        responses,
        errors,
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.len,
        stats.capacity,
        rate(stats.hit_rate()),
        layers.hits,
        layers.misses,
        layers.len,
        layers.capacity,
        rate(layers.hit_rate())
    );
}

/// The stop handle SIGINT requests, shared with the running server. A
/// `OnceLock` because a signal handler cannot capture state: it must
/// reach the handle through a process global.
static SIGINT_STOP: OnceLock<Stop> = OnceLock::new();

/// The listener's descriptor, which SIGINT shuts down to wake the
/// server's blocked `accept` (std retries an `accept` that a signal
/// interrupts, so the flag alone would go unseen). `-1`: none yet.
static SIGINT_LISTENER: AtomicI32 = AtomicI32::new(-1);

/// Routes SIGINT (ctrl-c) to `stop` so the server drains instead of
/// dying mid-request. Raw `signal(2)` FFI: the handler makes one atomic
/// store and one `shutdown(2)`, both async-signal-safe, and the default
/// disposition is restored semantics we don't need (a second ctrl-c
/// during a long drain still kills via SIGQUIT/SIGTERM).
#[cfg(unix)]
fn install_sigint(stop: Stop, listener: &NetListener) {
    extern "C" fn on_sigint(_: i32) {
        if let Some(stop) = SIGINT_STOP.get() {
            stop.request_without_wake();
        }
        let fd = SIGINT_LISTENER.load(Ordering::SeqCst);
        if fd >= 0 {
            // On Linux this fails a blocked `accept`, for TCP and unix
            // listeners alike, and the server stops cleanly.
            const SHUT_RDWR: i32 = 2;
            // SAFETY: `shutdown` takes plain integers and touches no Rust
            // memory. `fd` is the open listener's: `run_net_serve` resets
            // it to -1 once the server returns, before the listener drops.
            unsafe {
                shutdown(fd, SHUT_RDWR);
            }
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn shutdown(fd: i32, how: i32) -> i32;
    }
    let _ = SIGINT_STOP.set(stop);
    SIGINT_LISTENER.store(listener.as_raw_fd(), Ordering::SeqCst);
    const SIGINT: i32 = 2;
    let handler = on_sigint as extern "C" fn(i32);
    // SAFETY: `handler` is an `extern "C" fn(i32)` that lives for the
    // whole program and does only async-signal-safe work.
    unsafe {
        signal(SIGINT, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint(_stop: Stop, _listener: &NetListener) {}

/// Runs the network server on the parsed listen target; returns the exit
/// code (never a usage error — the flags were validated already).
fn run_net_serve(
    session: &Session,
    listen: Option<&str>,
    unix: Option<&str>,
    max_queue: usize,
    idle_timeout: u64,
    workers: usize,
) -> ExitCode {
    let bound = match (listen, unix) {
        (Some(addr), None) => NetListener::bind_tcp(addr),
        #[cfg(unix)]
        (None, Some(path)) => NetListener::bind_unix(path),
        #[cfg(not(unix))]
        (None, Some(_)) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
        _ => unreachable!("parse_invocation enforces --listen XOR --unix"),
    };
    let listener = match bound {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = NetConfig {
        workers,
        max_queue,
        idle_timeout: (idle_timeout > 0).then(|| Duration::from_secs(idle_timeout)),
        // Only a local unix-socket client may stop the server.
        allow_shutdown: unix.is_some(),
        ..NetConfig::default()
    };
    install_sigint(config.stop.clone(), &listener);
    eprintln!("serve: listening on {}", listener.local_display());
    let result = net::run(session, &listener, &config);
    SIGINT_LISTENER.store(-1, Ordering::SeqCst);
    // Remove the socket file so the next start binds cleanly; the
    // listener must drop first on some platforms, but unlinking while
    // open is fine on unix.
    if let Some(path) = unix {
        let _ = std::fs::remove_file(path);
    }
    match result {
        Ok(summary) => {
            print_cache_summary(session, summary.responses, summary.errors);
            eprintln!("serve: {} connections", summary.connections);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve: I/O error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `client --keep-alive`: holds one connection open and sends every stdin
/// line as a request, printing one response line per request, in order.
/// The response bytes are identical to what the same requests would get
/// from separate one-shot connections — the server answers per line and
/// does not care about connection reuse — so scripted callers can batch
/// without re-dialing.
fn run_client_pipeline(connect: Option<&str>, unix: Option<&str>) -> ExitCode {
    // Lockstep request/response over one connection: write a line, read a
    // line. Responses come back in request order, so interleaving with
    // stdin is safe and the output lines correlate 1:1 with input lines.
    let exchange_all = || -> std::io::Result<PipelineEnd> {
        let (mut writer, mut responses) = dial(connect, unix)?;
        let mut errors = 0u64;
        let mut stdin = std::io::stdin().lock();
        let mut stdout = std::io::stdout().lock();
        let mut raw = Vec::new();
        // Lines are forwarded as raw bytes: a line that is not UTF-8 is
        // the server's to answer (with an error in its slot), not a reason
        // to drop the rest of the pipeline. Blank lines are skipped by the
        // server's rule, since it sends no reply for them.
        loop {
            raw.clear();
            if stdin.read_until(b'\n', &mut raw)? == 0 {
                break;
            }
            if std::str::from_utf8(&raw).is_ok_and(|text| text.trim().is_empty()) {
                continue;
            }
            writer.write_all(raw.trim_ascii())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            let mut reply = String::new();
            if responses.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-stream",
                ));
            }
            let reply = reply.trim_end();
            if reply.starts_with(r#"{"reply":"error""#) {
                errors += 1;
            }
            if let Err(e) = writeln!(stdout, "{reply}") {
                return Ok(PipelineEnd::StdoutFailed(e));
            }
        }
        Ok(PipelineEnd::Done { errors })
    };
    match exchange_all() {
        Ok(PipelineEnd::Done { errors: 0 }) => ExitCode::SUCCESS,
        Ok(PipelineEnd::Done { .. }) => ExitCode::FAILURE,
        Ok(PipelineEnd::StdoutFailed(e)) => stdout_failed(&e),
        Err(e) => {
            eprintln!("client: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Connects `client` to its server over TCP (`--connect`) or a unix
/// socket (`--unix`): a writer and a buffered reader over one stream.
fn dial(
    connect: Option<&str>,
    unix: Option<&str>,
) -> std::io::Result<(Box<dyn Write>, Box<dyn BufRead>)> {
    match (connect, unix) {
        (Some(addr), None) => {
            let stream = std::net::TcpStream::connect(addr)?;
            let reader = stream.try_clone()?;
            Ok((Box::new(stream), Box::new(BufReader::new(reader))))
        }
        #[cfg(unix)]
        (None, Some(path)) => {
            let stream = std::os::unix::net::UnixStream::connect(path)?;
            let reader = stream.try_clone()?;
            Ok((Box::new(stream), Box::new(BufReader::new(reader))))
        }
        #[cfg(not(unix))]
        (None, Some(_)) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
        _ => unreachable!("parse_client enforces --connect XOR --unix"),
    }
}

/// How a `client --keep-alive` pipeline ended without a transport error.
enum PipelineEnd {
    /// Stdin ran out; `errors` replies were error replies.
    Done { errors: u64 },
    /// A reply could not be written to stdout.
    StdoutFailed(std::io::Error),
}

/// The exit status of a mode whose stdout write failed: 1, and quiet for a
/// closed pipe (the reader went away, as in `bitfusion-cli list | head
/// -1`), the rule `serve` applies to a dead client.
fn stdout_failed(e: &std::io::Error) -> ExitCode {
    if e.kind() != std::io::ErrorKind::BrokenPipe {
        eprintln!("bitfusion-cli: cannot write to stdout: {e}");
    }
    ExitCode::FAILURE
}

/// Writes `text` and a newline to a locked stdout and returns `code`, or
/// [`stdout_failed`]'s status when the write fails.
fn print_out(text: impl std::fmt::Display, code: ExitCode) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => code,
        Err(e) => stdout_failed(&e),
    }
}

/// Connects to a server, sends one request line, prints the response.
fn run_client(
    connect: Option<&str>,
    unix: Option<&str>,
    payload: &ClientPayload,
) -> ExitCode {
    if matches!(payload, ClientPayload::Pipeline) {
        return run_client_pipeline(connect, unix);
    }
    let line = match payload {
        ClientPayload::Pipeline => unreachable!("handled above"),
        ClientPayload::Raw(raw) => raw.trim().to_string(),
        ClientPayload::Request { request, .. } => request.encode(),
        ClientPayload::Stdin => {
            let mut line = String::new();
            match std::io::stdin().lock().read_line(&mut line) {
                Ok(0) => {
                    eprintln!("client: no request on stdin");
                    return ExitCode::FAILURE;
                }
                Ok(_) => line.trim().to_string(),
                Err(e) => {
                    eprintln!("client: cannot read stdin: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let exchange = || -> std::io::Result<String> {
        // One request, one response line.
        let (mut writer, mut reader) = dial(connect, unix)?;
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
        if reply.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection without answering",
            ));
        }
        Ok(reply.trim_end().to_string())
    };
    let reply = match exchange() {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("client: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed = reply.starts_with(r#"{"reply":"error""#);
    let code = if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    };
    match payload {
        // Raw in, raw out: scripted callers correlate bytes.
        ClientPayload::Raw(_)
        | ClientPayload::Stdin
        | ClientPayload::Pipeline
        | ClientPayload::Request { json: true, .. } => print_out(reply, code),
        ClientPayload::Request { json: false, .. } => match Response::parse(&reply) {
            Ok(response) if failed => {
                eprintln!("{}", render(&response));
                code
            }
            Ok(response) => print_out(render(&response), code),
            Err(e) => {
                eprintln!("client: unparseable response ({e}): {reply}");
                ExitCode::FAILURE
            }
        },
    }
}

fn run() -> Result<ExitCode, UsageError> {
    let argv: Vec<String> = env::args().skip(1).collect();
    let inv = parse_invocation(&argv)?;
    match inv.mode {
        Mode::Serve {
            workers,
            cache_capacity,
            listen,
            unix,
            max_queue,
            idle_timeout,
        } => {
            let mut session = Session::new()
                .with_options(inv.options)
                .with_backend(inv.backend.unwrap_or(BackendChoice::Analytic));
            if let Some(capacity) = cache_capacity {
                session = session.with_cache_capacity(capacity);
            }
            if listen.is_some() || unix.is_some() {
                return Ok(run_net_serve(
                    &session,
                    listen.as_deref(),
                    unix.as_deref(),
                    max_queue,
                    idle_timeout,
                    workers,
                ));
            }
            let stdout = std::io::stdout();
            let summary = match serve(
                &session,
                BufReader::new(std::io::stdin()),
                BufWriter::new(stdout.lock()),
                workers,
            ) {
                Ok(summary) => summary,
                // A dead client (EPIPE) or failed reader is a runtime
                // failure, not a usage error: no banner, exit 1.
                Err(e) => {
                    eprintln!("serve: I/O error: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            print_cache_summary(&session, summary.responses, summary.errors);
            Ok(ExitCode::SUCCESS)
        }
        Mode::Client {
            connect,
            unix,
            payload,
        } => Ok(run_client(connect.as_deref(), unix.as_deref(), &payload)),
        Mode::ExportModel(name) => match find_model(&name) {
            // A `bitfusion-model/1` document: already JSON, byte-stable,
            // and re-importable through `--model`.
            Ok(m) => Ok(print_out(export_model(&m).encode(), ExitCode::SUCCESS)),
            Err(e) => {
                eprintln!("export-model: {e}");
                Ok(ExitCode::FAILURE)
            }
        },
        Mode::OneShot(request) => {
            let session = Session::new().with_options(inv.options);
            let response = session.handle(&request);
            let failed = matches!(response, Response::Error { .. });
            let code = if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
            Ok(if inv.json {
                print_out(response.encode(), code)
            } else if failed {
                eprintln!("{}", render(&response));
                code
            } else {
                print_out(render(&response), code)
            })
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            if e.subcommand.is_empty() {
                eprintln!("{}", e.message);
            } else {
                eprintln!("bitfusion-cli {}: {}\n\n{}", e.subcommand, e.message, usage());
            }
            // Usage errors exit 2, runtime failures exit 1 — scripts can
            // tell a typo from an infeasible configuration.
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn report_flags_build_the_request() {
        let inv = parse_invocation(&argv(&[
            "report", "lstm", "--batch", "4", "--bandwidth", "256", "--arch", "16nm",
            "--backend", "event", "--json",
        ]))
        .unwrap();
        assert!(inv.json);
        let Mode::OneShot(Request::Report {
            model,
            batch,
            bandwidth,
            arch,
            backend,
            quant,
        }) = inv.mode
        else {
            panic!("expected report");
        };
        assert_eq!(model, ModelSource::zoo("lstm"));
        assert_eq!(batch, 4);
        assert_eq!(bandwidth, Some(256));
        assert_eq!(arch, ArchPreset::Gpu16nm);
        assert_eq!(backend, Some(BackendChoice::Event));
        assert_eq!(quant, None);
    }

    #[test]
    fn quant_flags_canonicalize_and_validate() {
        let inv = parse_invocation(&argv(&["report", "lstm", "--quant", "default=8/8"])).unwrap();
        let Mode::OneShot(Request::Report { quant, .. }) = inv.mode else {
            panic!("expected report");
        };
        assert_eq!(quant.as_deref(), Some("uniform8"), "canonical spelling");

        let inv = parse_invocation(&argv(&["quantize", "svhn", "--quant", "uniform16"])).unwrap();
        let Mode::OneShot(Request::Quantize { model, quant }) = inv.mode else {
            panic!("expected quantize");
        };
        assert_eq!(model, ModelSource::zoo("svhn"));
        assert_eq!(quant.as_deref(), Some("uniform16"));

        let e = parse_invocation(&argv(&["report", "lstm", "--quant", "uniform9"])).unwrap_err();
        assert!(e.message.contains("uniform9"), "{}", e.message);

        // dse takes a comma list of presets/files...
        let inv = parse_invocation(&argv(&["dse", "--quant", "paper,uniform8"])).unwrap();
        let Mode::OneShot(Request::Dse(p)) = inv.mode else {
            panic!("expected dse");
        };
        assert_eq!(p.quants, vec!["paper".to_string(), "uniform8".to_string()]);
        // ...but rejects ambiguous inline clause lists.
        let e = parse_invocation(&argv(&["dse", "--quant", "default=4/1,conv=2/2"])).unwrap_err();
        assert!(e.message.contains(".json"), "{}", e.message);

        // quantize takes no backend/calibration flags.
        let e = parse_invocation(&argv(&["quantize", "lstm", "--backend", "event"])).unwrap_err();
        assert!(e.message.contains("--backend"), "{}", e.message);
    }

    #[test]
    fn errors_name_flag_and_subcommand() {
        let e = parse_invocation(&argv(&["report", "lstm", "--bogus"])).unwrap_err();
        assert_eq!(e.subcommand, "report");
        assert!(e.message.contains("--bogus"), "{}", e.message);

        let e = parse_invocation(&argv(&["report", "lstm", "--batch"])).unwrap_err();
        assert!(e.message.contains("--batch needs a value"), "{}", e.message);

        let e = parse_invocation(&argv(&["report", "lstm", "--batch", "abc"])).unwrap_err();
        assert!(e.message.contains("--batch") && e.message.contains("abc"), "{}", e.message);

        let e = parse_invocation(&argv(&["sweep", "rnn"])).unwrap_err();
        assert!(e.message.contains("--batch or --bandwidth"), "{}", e.message);

        let e = parse_invocation(&argv(&["asm", "rnn", "--backend", "event"])).unwrap_err();
        assert!(e.message.contains("--backend"), "{}", e.message);

        let e = parse_invocation(&argv(&["frobnicate"])).unwrap_err();
        assert!(e.message.contains("frobnicate"), "{}", e.message);
    }

    #[test]
    fn calibration_knobs_thread_into_options() {
        let inv = parse_invocation(&argv(&[
            "report",
            "rnn",
            "--systolic-efficiency",
            "0.9",
            "--dram-efficiency",
            "0.5",
            "--node",
            "16nm",
        ]))
        .unwrap();
        assert_eq!(inv.options.systolic_efficiency, 0.9);
        assert_eq!(inv.options.dram_efficiency, 0.5);
        assert_eq!(inv.options.node, TechNode::Nm16);

        let e = parse_invocation(&argv(&["report", "rnn", "--systolic-efficiency", "1.5"]))
            .unwrap_err();
        assert!(e.message.contains("(0, 1]"), "{}", e.message);
    }

    #[test]
    fn sweep_axis_flags_are_valueless() {
        let inv = parse_invocation(&argv(&["sweep", "rnn", "--bandwidth"])).unwrap();
        let Mode::OneShot(Request::Sweep { axis, .. }) = inv.mode else {
            panic!("expected sweep");
        };
        assert_eq!(axis, SweepAxis::Bandwidth);
    }

    #[test]
    fn dse_lists_parse() {
        let inv = parse_invocation(&argv(&[
            "dse", "--rows", "16,32", "--bandwidth", "64,128", "--networks", "lstm,rnn",
            "--workers", "2", "--backend", "event",
        ]))
        .unwrap();
        let Mode::OneShot(Request::Dse(p)) = inv.mode else {
            panic!("expected dse");
        };
        assert_eq!(p.rows, vec![16, 32]);
        assert_eq!(p.bandwidth, vec![64, 128]);
        assert_eq!(p.networks, Some(vec!["lstm".to_string(), "rnn".to_string()]));
        assert_eq!(p.workers, 2);
        assert_eq!(p.backend, Some(BackendChoice::Event));
    }

    /// Writes a valid model document to a temp path for `--model` tests.
    fn temp_model(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("bitfusion-cli-test-{tag}.json"));
        std::fs::write(
            &path,
            r#"{"format":"bitfusion-model/1","name":"tiny","layers":[{"name":"fc1","kind":"fc","in_features":64,"out_features":32,"precision":"4/1"}]}"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn model_flag_loads_an_external_model() {
        let path = temp_model("report");
        let inv =
            parse_invocation(&argv(&["report", "--model", path.to_str().unwrap()])).unwrap();
        let Mode::OneShot(Request::Report { model, .. }) = inv.mode else {
            panic!("expected report");
        };
        let ModelSource::External(m) = model else {
            panic!("expected an external model, got {model:?}");
        };
        assert_eq!(m.name, "tiny");
        assert_eq!(m.layers.len(), 1);

        // The workload is the benchmark positional XOR --model.
        let e = parse_invocation(&argv(&["report", "lstm", "--model", path.to_str().unwrap()]))
            .unwrap_err();
        assert!(e.message.contains("not both"), "{}", e.message);
        let e = parse_invocation(&argv(&["report"])).unwrap_err();
        assert!(e.message.contains("--model"), "{}", e.message);

        // Diagnostics carry the path: unreadable file, invalid document.
        let e = parse_invocation(&argv(&["report", "--model", "/nonexistent/m.json"]))
            .unwrap_err();
        assert!(e.message.contains("/nonexistent/m.json"), "{}", e.message);
        let bad = std::env::temp_dir().join("bitfusion-cli-test-bad.json");
        std::fs::write(&bad, r#"{"format":"bitfusion-model/1"}"#).unwrap();
        let e = parse_invocation(&argv(&["report", "--model", bad.to_str().unwrap()]))
            .unwrap_err();
        assert!(
            e.message.contains("model.name") && e.message.contains("bad.json"),
            "{}",
            e.message
        );
    }

    #[test]
    fn dse_model_flag_repeats() {
        let path = temp_model("dse");
        let p = path.to_str().unwrap();
        let inv =
            parse_invocation(&argv(&["dse", "--model", p, "--model", p, "--workers", "1"]))
                .unwrap();
        let Mode::OneShot(Request::Dse(params)) = inv.mode else {
            panic!("expected dse");
        };
        assert_eq!(params.models.len(), 2);
        assert_eq!(params.models[0].name, "tiny");
        assert_eq!(params.networks, None);
    }

    #[test]
    fn export_model_takes_one_name() {
        let inv = parse_invocation(&argv(&["export-model", "lstm"])).unwrap();
        let Mode::ExportModel(name) = inv.mode else {
            panic!("expected export-model, got {:?}", inv.mode);
        };
        assert_eq!(name, "lstm");
        let e = parse_invocation(&argv(&["export-model"])).unwrap_err();
        assert_eq!(e.subcommand, "export-model");
    }

    #[test]
    fn serve_parses_its_flags() {
        let inv = parse_invocation(&argv(&[
            "serve",
            "--workers",
            "3",
            "--cache-capacity",
            "64",
            "--dram-efficiency",
            "0.6",
        ]))
        .unwrap();
        let Mode::Serve {
            workers,
            cache_capacity,
            listen,
            unix,
            ..
        } = inv.mode
        else {
            panic!("expected serve");
        };
        assert_eq!(workers, 3);
        assert_eq!(cache_capacity, Some(64));
        assert_eq!(inv.options.dram_efficiency, 0.6);
        assert_eq!(listen, None);
        assert_eq!(unix, None);
    }

    #[test]
    fn serve_network_flags() {
        let inv = parse_invocation(&argv(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--max-queue",
            "8",
            "--idle-timeout",
            "30",
        ]))
        .unwrap();
        let Mode::Serve {
            listen,
            unix,
            max_queue,
            idle_timeout,
            ..
        } = inv.mode
        else {
            panic!("expected serve");
        };
        assert_eq!(listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(unix, None);
        assert_eq!(max_queue, 8);
        assert_eq!(idle_timeout, 30);

        // --listen XOR --unix.
        let e = parse_invocation(&argv(&[
            "serve", "--listen", "127.0.0.1:0", "--unix", "/tmp/x.sock",
        ]))
        .unwrap_err();
        assert!(e.message.contains("not both"), "{}", e.message);

        // Net-only knobs require a net listener; the stdin loop has no
        // idle connections or admission queue.
        let e = parse_invocation(&argv(&["serve", "--idle-timeout", "5"])).unwrap_err();
        assert!(e.message.contains("--idle-timeout"), "{}", e.message);
        let e = parse_invocation(&argv(&["serve", "--max-queue", "4"])).unwrap_err();
        assert!(e.message.contains("--max-queue"), "{}", e.message);
    }

    #[test]
    fn keep_alive_client_parses() {
        let inv =
            parse_invocation(&argv(&["client", "--unix", "/tmp/s.sock", "--keep-alive"]))
                .unwrap();
        let Mode::Client { payload, .. } = inv.mode else {
            panic!("expected client");
        };
        assert!(matches!(payload, ClientPayload::Pipeline));

        // Keep-alive requests come from stdin, never inline.
        let e = parse_invocation(&argv(&[
            "client", "--unix", "/tmp/s.sock", "--keep-alive", "report", "lstm",
        ]))
        .unwrap_err();
        assert!(e.message.contains("stdin"), "{}", e.message);
    }

    #[test]
    fn client_parses_its_payload_forms() {
        // Nested subcommand spelling, with --json riding along.
        let inv = parse_invocation(&argv(&[
            "client", "--unix", "/tmp/s.sock", "report", "lstm", "--batch", "4", "--json",
        ]))
        .unwrap();
        let Mode::Client {
            connect,
            unix,
            payload,
        } = inv.mode
        else {
            panic!("expected client");
        };
        assert_eq!(connect, None);
        assert_eq!(unix.as_deref(), Some("/tmp/s.sock"));
        let ClientPayload::Request { request, json } = payload else {
            panic!("expected a parsed request, got {payload:?}");
        };
        assert!(json);
        assert!(matches!(*request, Request::Report { batch: 4, .. }));

        // Raw JSON positional.
        let inv = parse_invocation(&argv(&[
            "client",
            "--connect",
            "127.0.0.1:7040",
            r#"{"cmd":"stats"}"#,
        ]))
        .unwrap();
        let Mode::Client { payload, .. } = inv.mode else {
            panic!("expected client");
        };
        assert!(matches!(payload, ClientPayload::Raw(raw) if raw.contains("stats")));

        // No payload: read stdin.
        let inv =
            parse_invocation(&argv(&["client", "--connect", "127.0.0.1:7040"])).unwrap();
        let Mode::Client { payload, .. } = inv.mode else {
            panic!("expected client");
        };
        assert!(matches!(payload, ClientPayload::Stdin));

        // Exactly one target.
        let e = parse_invocation(&argv(&["client", "report", "lstm"])).unwrap_err();
        assert!(e.message.contains("--connect"), "{}", e.message);
        let e = parse_invocation(&argv(&[
            "client", "--connect", "a:1", "--unix", "/tmp/s", "report", "lstm",
        ]))
        .unwrap_err();
        assert!(e.message.contains("exactly one"), "{}", e.message);

        // The payload must be a one-shot subcommand...
        let e = parse_invocation(&argv(&["client", "--connect", "a:1", "serve"])).unwrap_err();
        assert!(e.message.contains("one-shot"), "{}", e.message);
        // ...and calibration is server-side.
        let e = parse_invocation(&argv(&[
            "client", "--connect", "a:1", "report", "lstm", "--node", "16nm",
        ]))
        .unwrap_err();
        assert!(e.message.contains("serve"), "{}", e.message);
    }
}
