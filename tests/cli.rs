//! Integration tests for the `bitfusion-cli` binary: argument errors name
//! the offending flag and subcommand with a non-zero exit code, `--json`
//! output parses through the protocol, and `serve` answers a mixed request
//! script with responses byte-identical to the corresponding one-shot
//! `--json` invocations (the service layer's determinism contract).

use std::io::Write;
use std::process::{Command, Output, Stdio};

use bitfusion::service::Response;

const BIN: &str = env!("CARGO_BIN_EXE_bitfusion-cli");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("binary spawns")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_flag_names_flag_and_subcommand() {
    let out = run(&["report", "lstm", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("report"), "{err}");
    assert!(err.contains("--frobnicate"), "{err}");
}

#[test]
fn a_closed_stdout_is_a_quiet_runtime_failure() {
    // The reader is gone before the CLI writes (as in `list | head -0`):
    // the write fails with EPIPE, which must end the process with exit 1,
    // not a print panic (exit 101 and a backtrace).
    for args in [
        &["list"][..],
        &["list", "--json"],
        &["export-model", "lstm"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(BIN)
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary spawns");
        let err = stderr_of(&out);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: a closed pipe is quiet: {err}");
    }
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    let out = run(&["report", "lstm", "--batch"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("--batch needs a value"), "{err}");

    let out = run(&["sweep", "rnn"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--batch or --bandwidth"));
}

#[test]
fn unknown_benchmark_fails_nonzero_and_names_it() {
    let out = run(&["report", "resnet-99"]);
    assert_eq!(out.status.code(), Some(1), "runtime error, not usage error");
    let err = stderr_of(&out);
    assert!(err.contains("resnet-99"), "{err}");
    assert!(err.contains("alexnet"), "suggests valid names: {err}");

    // In --json mode the error is still machine-readable on stdout.
    let out = run(&["report", "resnet-99", "--json"]);
    assert_eq!(out.status.code(), Some(1));
    match Response::parse(stdout_of(&out).trim()) {
        Ok(Response::Error { message }) => assert!(message.contains("resnet-99")),
        other => panic!("expected error response, got {other:?}"),
    }
}

#[test]
fn unknown_subcommand_fails() {
    let out = run(&["transmogrify"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("transmogrify"));
}

#[test]
fn json_flag_works_on_every_subcommand() {
    let invocations: &[&[&str]] = &[
        &["list", "--json"],
        &["report", "rnn", "--batch", "1", "--json"],
        &["compare", "rnn", "--batch", "1", "--json"],
        &["asm", "rnn", "--batch", "1", "--json"],
        &["sweep", "rnn", "--batch", "--json"],
        &[
            "dse", "--rows", "16", "--cols", "16", "--bandwidth", "64,128", "--networks", "rnn",
            "--workers", "1", "--json",
        ],
    ];
    for args in invocations {
        let out = run(args);
        assert!(out.status.success(), "{args:?}: {}", stderr_of(&out));
        let text = stdout_of(&out);
        let line = text.trim();
        assert!(!line.contains('\n'), "{args:?}: --json is one line");
        let resp = Response::parse(line).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        assert!(
            !matches!(resp, Response::Error { .. }),
            "{args:?} answered an error"
        );
    }
}

#[test]
fn calibration_knobs_change_the_report() {
    let fast = stdout_of(&run(&["report", "vgg-7", "--batch", "1", "--json"]));
    let slow = stdout_of(&run(&[
        "report", "vgg-7", "--batch", "1", "--systolic-efficiency", "0.4", "--json",
    ]));
    let cycles = |text: &str| match Response::parse(text.trim()).unwrap() {
        Response::Report(r) => r.cycles,
        other => panic!("{other:?}"),
    };
    assert!(cycles(&slow) > cycles(&fast));

    let out = run(&["report", "rnn", "--systolic-efficiency", "2.0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--systolic-efficiency"));
}

#[test]
fn serve_responses_are_byte_identical_to_one_shot_json() {
    // The acceptance scenario: a mixed script covering report, compare,
    // sweep, and dse, plus a malformed line that must answer an error
    // without derailing the loop.
    let one_shots: &[&[&str]] = &[
        &["report", "rnn", "--batch", "16", "--json"],
        &["compare", "lstm", "--batch", "4", "--json"],
        &["sweep", "rnn", "--bandwidth", "--json"],
        &[
            "dse", "--rows", "16,32", "--cols", "16", "--bandwidth", "64,128", "--networks",
            "lstm,rnn", "--workers", "2", "--json",
        ],
        &["report", "rnn", "--batch", "16", "--backend", "event", "--json"],
    ];
    let script = "\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":16}\n\
{\"cmd\":\"compare\",\"benchmark\":\"lstm\",\"batch\":4}\n\
{\"cmd\":\"sweep\",\"benchmark\":\"rnn\",\"axis\":\"bandwidth\"}\n\
{\"cmd\":\"dse\",\"rows\":[16,32],\"cols\":[16],\"bandwidth\":[64,128],\"networks\":[\"lstm\",\"rnn\"],\"workers\":2}\n\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":16,\"backend\":\"event\"}\n\
this is not json\n";

    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{}", stderr_of(&out));

    let stdout = stdout_of(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "one response per request line:\n{stdout}");

    for (i, args) in one_shots.iter().enumerate() {
        let one_shot = run(args);
        assert!(one_shot.status.success(), "{args:?}");
        let expected = stdout_of(&one_shot);
        assert_eq!(
            lines[i],
            expected.trim_end(),
            "serve line {i} differs from one-shot {args:?}"
        );
    }
    match Response::parse(lines[5]) {
        Ok(Response::Error { .. }) => {}
        other => panic!("malformed line must answer an error, got {other:?}"),
    }
    // The serve summary reports both cache tiers' effectiveness, and this
    // script touched both — so neither rate may read `n/a`.
    let err = stderr_of(&out);
    assert!(err.contains("artifact cache"), "{err}");
    assert!(err.contains("layer cache"), "{err}");
    assert!(!err.contains("n/a"), "both tiers were exercised: {err}");
}

#[test]
fn serve_summary_says_na_for_untouched_caches() {
    // A session that never simulates leaves both tiers untouched; the
    // summary must say `n/a`, not `0.0%` — there is no rate to report.
    let mut child = Command::new(BIN)
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"{\"cmd\":\"list\"}\n")
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("n/a"), "{err}");
    assert!(!err.contains("0.0%"), "{err}");
}

#[test]
fn serve_answers_deeply_nested_json_with_an_error_and_lives_on() {
    // 200 000 open brackets once overflowed the parser's stack and
    // aborted the process; now the depth bound answers in-slot.
    let mut script = "[".repeat(200_000);
    script.push_str("\n{\"cmd\":\"list\"}\n");
    let mut child = Command::new(BIN)
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines[0],
        r#"{"reply":"error","message":"invalid JSON: nesting deeper than 128 at byte 128"}"#
    );
    assert!(lines[1].starts_with(r#"{"reply":"list""#), "{stdout}");
    assert_eq!(lines.len(), 2);
}

/// The error a batch of 2^63 gets: AlexNet's first layer has 55 × 55
/// output pixels, so its GEMM `n` count passes `u64`.
const HUGE_BATCH_ERROR: &str =
    r#"{"reply":"error","message":"batch too large: the n count of a layer overflows u64"}"#;

#[test]
fn a_batch_whose_counts_overflow_is_a_runtime_error() {
    let out = run(&[
        "report",
        "alexnet",
        "--batch",
        "9223372036854775808",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert_eq!(stdout_of(&out).trim_end(), HUGE_BATCH_ERROR);
    let out = run(&["report", "lenet-5", "--batch", "1152921504606846976"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("batch too large"), "{err}");
}

#[test]
fn serve_answers_an_overflowing_batch_with_an_error_and_lives_on() {
    let script = concat!(
        r#"{"cmd":"report","benchmark":"alexnet","batch":9223372036854775808}"#,
        "\n",
        r#"{"cmd":"list"}"#,
        "\n",
    );
    let mut child = Command::new(BIN)
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert_eq!(lines[0], HUGE_BATCH_ERROR);
    assert!(lines[1].starts_with(r#"{"reply":"list""#), "{stdout}");
}

#[test]
fn quantize_subcommand_and_quant_flags_work() {
    // quantize --json parses through the protocol.
    let out = run(&["quantize", "alexnet", "--quant", "uniform8", "--json"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    match Response::parse(stdout_of(&out).trim()) {
        Ok(Response::Quantize(r)) => {
            assert_eq!(r.quant, "uniform8");
            assert!(r.layers.iter().all(|l| l.weight_bits == 8));
        }
        other => panic!("{other:?}"),
    }

    // --quant changes report results; the echoed spelling is canonical.
    let paper = run(&["report", "vgg-7", "--batch", "1", "--json"]);
    let wide = run(&[
        "report", "vgg-7", "--batch", "1", "--quant", "default=16/16", "--json",
    ]);
    let cycles = |out: &Output| match Response::parse(stdout_of(out).trim()).unwrap() {
        Response::Report(r) => (r.cycles, r.quant),
        other => panic!("{other:?}"),
    };
    let (paper_cycles, paper_quant) = cycles(&paper);
    let (wide_cycles, wide_quant) = cycles(&wide);
    assert_eq!(paper_quant, None);
    assert_eq!(wide_quant.as_deref(), Some("uniform16"));
    assert!(wide_cycles > paper_cycles);

    // A .json spec file works on the simulating subcommands.
    let dir = std::env::temp_dir().join("bitfusion-cli-quant-test");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("edge8.json");
    std::fs::write(
        &spec_path,
        r#"{"default":"4/4","layers":[{"layer":"conv1","precision":"8/8"}]}"#,
    )
    .unwrap();
    let out = run(&[
        "quantize", "vgg-7", "--quant", spec_path.to_str().unwrap(), "--json",
    ]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    match Response::parse(stdout_of(&out).trim()) {
        Ok(Response::Quantize(r)) => {
            assert_eq!(r.quant, "default=4/4,layer:conv1=8/8");
            assert_eq!((r.layers[0].input_bits, r.layers[0].weight_bits), (8, 8));
            assert_eq!((r.layers[1].input_bits, r.layers[1].weight_bits), (4, 4));
        }
        other => panic!("{other:?}"),
    }

    // An invalid spec is a usage error naming the problem.
    let out = run(&["report", "rnn", "--quant", "uniform9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("uniform9"));
}

#[test]
fn dse_quant_axis_is_byte_identical_across_worker_counts() {
    // The acceptance criterion: a dse over ≥2 quant specs emits a
    // deterministic frontier and quant speedups — byte-identical whatever
    // the worker count.
    let dse = |workers: &str| {
        let out = run(&[
            "dse", "--rows", "16", "--cols", "16", "--bandwidth", "64,128", "--networks",
            "lstm,rnn,vgg-7", "--batch", "4", "--quant", "paper,uniform8,uniform16",
            "--workers", workers, "--json",
        ]);
        assert!(out.status.success(), "{}", stderr_of(&out));
        stdout_of(&out)
    };
    let sequential = dse("1");
    for workers in ["2", "4"] {
        assert_eq!(dse(workers), sequential, "{workers} workers");
    }
    match Response::parse(sequential.trim()).unwrap() {
        Response::Dse(r) => {
            assert_eq!(r.quants, ["paper", "uniform8", "uniform16"]);
            assert_eq!(r.speedup_baseline.as_deref(), Some("uniform8"));
            // Three networks × (paper, uniform16).
            assert_eq!(r.quant_speedups.len(), 6);
            for s in &r.quant_speedups {
                match s.quant.as_str() {
                    "paper" => assert!(s.speedup >= 1.0, "{}: {}", s.model, s.speedup),
                    "uniform16" => assert!(s.speedup < 1.0, "{}: {}", s.model, s.speedup),
                    other => panic!("{other}"),
                }
            }
            // The frontier names the quantization of each candidate.
            assert!(!r.frontier.is_empty());
            for f in &r.frontier {
                assert!(!f.quant.is_empty());
            }
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn export_model_round_trips_through_model_flag() {
    // Satellite scenario: export a zoo network, feed the file back through
    // `--model`, and the report must be byte-identical to the zoo-name
    // path — external ingestion adds no drift.
    let exported = run(&["export-model", "resnet-18"]);
    assert!(exported.status.success(), "{}", stderr_of(&exported));
    let doc = stdout_of(&exported);
    let line = doc.trim_end();
    assert!(!line.contains('\n'), "one JSON document per export");
    assert!(line.starts_with(r#"{"format":"bitfusion-model/1""#), "{line}");

    // The export is a fixed point of the codec: parse + re-export is
    // byte-identical.
    let model = bitfusion::dnn::parse_model(line).expect("export parses");
    assert_eq!(bitfusion::dnn::export_model(&model).encode(), line);

    let dir = std::env::temp_dir().join("bitfusion-cli-export-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resnet-18.json");
    std::fs::write(&path, &doc).unwrap();

    let by_name = run(&["report", "resnet-18", "--batch", "16", "--json"]);
    let by_file = run(&[
        "report", "--model", path.to_str().unwrap(), "--batch", "16", "--json",
    ]);
    assert!(by_file.status.success(), "{}", stderr_of(&by_file));
    assert_eq!(stdout_of(&by_file), stdout_of(&by_name));

    // Unknown names fail at runtime (exit 1) listing what exists.
    let out = run(&["export-model", "resnet-99"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr_of(&out);
    assert!(err.contains("resnet-99"), "{err}");
    assert!(err.contains("attention-block"), "{err}");
}

#[test]
fn example_model_files_simulate_and_match_their_builders() {
    // The shipped example documents stay in lockstep with the in-tree
    // builders (export-model is the regeneration path), and both simulate
    // through `--model` under either backend.
    for (file, name) in [
        ("examples/models/attention-block.json", "attention-block"),
        ("examples/models/depthwise-net.json", "depthwise-net"),
    ] {
        let on_disk = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        let exported = run(&["export-model", name]);
        assert!(exported.status.success(), "{}", stderr_of(&exported));
        assert_eq!(
            stdout_of(&exported),
            on_disk,
            "{file} is stale; regenerate with `bitfusion-cli export-model {name}`"
        );
        for backend in ["analytic", "event"] {
            let out = run(&[
                "report", "--model", file, "--batch", "16", "--backend", backend, "--json",
            ]);
            assert!(out.status.success(), "{file} ({backend}): {}", stderr_of(&out));
            match Response::parse(stdout_of(&out).trim()).unwrap() {
                Response::Report(r) => {
                    assert_eq!(r.benchmark, name);
                    assert!(r.cycles > 0);
                }
                other => panic!("{other:?}"),
            }
        }
    }
}

#[test]
fn serve_and_one_shot_asm_agree() {
    let one_shot = run(&["asm", "lenet-5", "--batch", "1", "--layer", "conv1", "--json"]);
    assert!(one_shot.status.success(), "{}", stderr_of(&one_shot));
    let mut child = Command::new(BIN)
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"cmd\":\"asm\",\"benchmark\":\"lenet-5\",\"batch\":1,\"layer\":\"conv1\"}\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        stdout_of(&out).trim_end(),
        stdout_of(&one_shot).trim_end()
    );
}

// ---------------------------------------------------------------------------
// Network serve: child-process tests over real sockets. The in-process
// protocol mechanics (shedding, hostile lines, idle reaping) live in
// crates/service/tests/net_serve.rs; these pin the CLI surface: flag
// parsing, the client subcommand, the determinism contract across the
// whole binary, and clean shutdown.

#[cfg(unix)]
fn wait_for_socket(path: &std::path::Path) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !path.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "server never bound {}",
            path.display()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[cfg(unix)]
#[test]
fn network_serve_over_unix_socket_matches_one_shot() {
    let sock = std::env::temp_dir().join(format!(
        "bitfusion-cli-net-{}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&sock);
    let sock_str = sock.to_str().unwrap().to_string();
    let child = Command::new(BIN)
        .args(["serve", "--unix", &sock_str, "--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    wait_for_socket(&sock);

    // Every response over the socket is byte-identical to the same
    // subcommand run as a fresh one-shot `--json` invocation.
    let scripts: &[&[&str]] = &[
        &["report", "rnn", "--batch", "1"],
        &["sweep", "lstm", "--bandwidth"],
        &["dse", "--rows", "16,32", "--cols", "16,32", "--networks", "rnn"],
        &["quantize", "svhn"],
    ];
    for script in scripts {
        let mut one_shot_args: Vec<&str> = script.to_vec();
        one_shot_args.push("--json");
        let one_shot = run(&one_shot_args);
        assert!(one_shot.status.success(), "{}", stderr_of(&one_shot));

        let mut client_args = vec!["client", "--unix", &sock_str];
        client_args.extend(one_shot_args.iter().copied());
        let via_net = run(&client_args);
        assert!(via_net.status.success(), "{}", stderr_of(&via_net));
        assert_eq!(
            stdout_of(&via_net),
            stdout_of(&one_shot),
            "socket and one-shot bytes diverge for {script:?}"
        );
    }

    // The client also renders human output (no --json) without failing.
    let human = run(&["client", "--unix", &sock_str, "report", "rnn", "--batch", "1"]);
    assert!(human.status.success(), "{}", stderr_of(&human));
    assert!(stdout_of(&human).contains("rnn"), "{}", stdout_of(&human));

    // Raw-JSON payload form + the live stats endpoint.
    let stats = run(&["client", "--unix", &sock_str, r#"{"cmd":"stats"}"#]);
    assert!(stats.status.success(), "{}", stderr_of(&stats));
    let stats_line = stdout_of(&stats);
    for field in ["\"reply\":\"stats\"", "\"coalesced\"", "\"latency_us\"", "\"layer_cache\""] {
        assert!(stats_line.contains(field), "{field} missing from {stats_line}");
    }
    assert!(!stats_line.contains("time\""), "no timestamps: {stats_line}");

    // A keep-alive pipeline forwards a non-UTF-8 line for the server to
    // answer in its slot, and goes on with the next request. The error
    // reply makes the exit code 1.
    let list = run(&["list", "--json"]);
    let mut pipe = Command::new(BIN)
        .args(["client", "--unix", &sock_str, "--keep-alive"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client spawns");
    pipe.stdin
        .take()
        .unwrap()
        .write_all(b"{\"cmd\":\"list\"}\n\xff\n{\"cmd\":\"list\"}\n")
        .unwrap();
    let piped = pipe.wait_with_output().unwrap();
    assert_eq!(piped.status.code(), Some(1), "{}", stderr_of(&piped));
    assert_eq!(stderr_of(&piped), "", "no client I/O error");
    let replies = stdout_of(&piped);
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(
        replies,
        [
            stdout_of(&list).trim_end(),
            r#"{"reply":"error","message":"request line is not UTF-8"}"#,
            stdout_of(&list).trim_end(),
        ]
    );

    // Admin shutdown over the unix socket: acknowledged, then the server
    // drains, prints its two-tier cache summary, and exits cleanly.
    let bye = run(&["client", "--unix", &sock_str, r#"{"cmd":"shutdown"}"#]);
    assert!(bye.status.success(), "{}", stderr_of(&bye));
    assert_eq!(stdout_of(&bye).trim_end(), r#"{"reply":"shutdown"}"#);
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("listening on"), "{err}");
    assert!(err.contains("artifact cache:"), "{err}");
    assert!(err.contains("layer cache:"), "{err}");
    assert!(err.contains("connections"), "{err}");
    assert!(!sock.exists(), "socket file removed on shutdown");
}

#[test]
fn network_serve_over_tcp_answers_and_drains_on_sigint() {
    use std::io::{BufRead, BufReader};

    let mut child = Command::new(BIN)
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    // The startup line names the resolved ephemeral port.
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line}"))
        .to_string();

    let one_shot = run(&["list", "--json"]);
    let via_net = run(&["client", "--connect", &addr, "list", "--json"]);
    assert!(via_net.status.success(), "{}", stderr_of(&via_net));
    assert_eq!(stdout_of(&via_net), stdout_of(&one_shot));

    // A keep-alive pipeline over TCP answers every line, in order, with
    // the one-shot bytes.
    let sweep = run(&["sweep", "rnn", "--batch", "--json"]);
    let mut pipe = Command::new(BIN)
        .args(["client", "--connect", &addr, "--keep-alive"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("client spawns");
    pipe.stdin
        .take()
        .unwrap()
        .write_all(
            concat!(
                r#"{"cmd":"list"}"#,
                "\n",
                r#"{"cmd":"sweep","benchmark":"rnn","axis":"batch"}"#,
                "\n",
            )
            .as_bytes(),
        )
        .unwrap();
    let piped = pipe.wait_with_output().unwrap();
    assert!(piped.status.success(), "{}", stderr_of(&piped));
    assert_eq!(stderr_of(&piped), "", "no client I/O error");
    assert_eq!(
        stdout_of(&piped),
        format!("{}{}", stdout_of(&one_shot), stdout_of(&sweep))
    );

    // `shutdown` is an admin request, honoured on unix sockets only.
    let refused = run(&["client", "--connect", &addr, r#"{"cmd":"shutdown"}"#]);
    assert_eq!(refused.status.code(), Some(1), "refusal is an error reply");
    assert!(stdout_of(&refused).contains("unix"), "{}", stdout_of(&refused));

    // SIGINT drains the server: clean exit plus the cache summary.
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = child.wait().expect("server exits");
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stderr, &mut rest).unwrap();
    assert!(rest.contains("artifact cache:"), "{rest}");
    assert!(rest.contains("connections"), "{rest}");
}

#[test]
fn network_serve_and_client_resolve_host_names() {
    use std::io::{BufRead, BufReader};

    // `localhost` goes through the resolver (the files NSS module) on
    // both ends, which the static link must keep working.
    let mut child = Command::new(BIN)
        .args(["serve", "--listen", "localhost:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line}"))
        .to_string();
    let port = addr.rsplit(':').next().unwrap();

    let one_shot = run(&["list", "--json"]);
    let via_net = run(&["client", "--connect", &format!("localhost:{port}"), "list", "--json"]);
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    assert!(child.wait().expect("server exits").success());
    assert!(via_net.status.success(), "{}", stderr_of(&via_net));
    assert_eq!(stdout_of(&via_net), stdout_of(&one_shot));
}

#[test]
fn client_and_serve_flag_validation() {
    // client needs exactly one transport.
    let out = run(&["client", "report", "rnn"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--connect"), "{}", stderr_of(&out));

    let out = run(&["client", "--connect", "a", "--unix", "b", r#"{"cmd":"list"}"#]);
    assert_eq!(out.status.code(), Some(2));

    // Calibration belongs to the server's session, not the client.
    let out = run(&[
        "client", "--unix", "/tmp/nope.sock",
        "report", "rnn", "--systolic-efficiency", "0.9",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("serve"), "{}", stderr_of(&out));

    // Net-only serve flags require a listener.
    let out = run(&["serve", "--max-queue", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--max-queue"), "{}", stderr_of(&out));

    let out = run(&["serve", "--listen", "a", "--unix", "b"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("not both"), "{}", stderr_of(&out));

    // A dead endpoint is a runtime error (exit 1), not a usage error.
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
        // dropped here, so the port is free (and connecting is refused)
    };
    let out = run(&["client", "--connect", &format!("127.0.0.1:{port}"), r#"{"cmd":"list"}"#]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("client:"), "{}", stderr_of(&out));
}
