//! Network-server integration tests over real sockets: byte-determinism
//! across concurrent clients, load shedding's pinned error shape, hostile
//! lines, idle-connection reaping, and shutdown drain.
//!
//! Synchronization discipline: tests never sleep-and-hope. A request that
//! must occupy a slot is held there by the test's handler until the test
//! releases it, and the tests poll the live `stats` endpoint (which
//! bypasses admission, so it answers even with the gate saturated) until
//! the server observably reaches the state the scenario needs — in-flight
//! count, queue depth, received count — then proceed. Every server stops
//! when its scenario panics, so a failed wait fails the test instead of
//! hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bitfusion_service::net::{self, NetConfig, NetListener, NetSummary, Stop, SHED_MESSAGE};
use bitfusion_service::protocol::{Request, StatsReply};
use bitfusion_service::serve::{clamp_nested_workers, MAX_LINE_BYTES};
use bitfusion_service::{Response, Session};

/// The occupant request: the handler from [`holding`] keeps it in its
/// evaluation slot until the test releases it.
const OCCUPANT: &str = r#"{"cmd":"report","benchmark":"lstm","batch":1}"#;

/// A second, byte-distinct request for queue-occupancy scenarios.
const QUEUED: &str = r#"{"cmd":"sweep","benchmark":"rnn","axis":"bandwidth"}"#;

/// Requests the server's stop when dropped. Each scenario holds one, so
/// a panic inside `thread::scope` stops the server (the scope then joins
/// it) instead of leaving the scope waiting on it forever.
struct StopOnDrop<'a>(&'a Stop);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request();
    }
}

/// A request handler that parks [`OCCUPANT`] until `release` receives a
/// message or its sender is dropped (the test unwinding), then evaluates
/// it; every other request evaluates at once.
fn holding<'a>(
    session: &'a Session,
    release: &'a Mutex<mpsc::Receiver<()>>,
) -> impl Fn(&Request) -> Response + Sync + 'a {
    let held = served(OCCUPANT).encode();
    move |request| {
        if request.encode() == held {
            // Err means the sender is gone: release too.
            let _ = release.lock().expect("no holder panicked").recv();
        }
        session.handle(request)
    }
}

/// The request the server evaluates for `line`: parsed, with the
/// nested-dse clamp every serve flavour applies (results are
/// worker-count-independent, so the clamp never changes bytes).
fn served(line: &str) -> Request {
    let mut request = Request::parse(line).expect("test request parses");
    clamp_nested_workers(&mut request);
    request
}

fn bind_tcp() -> (NetListener, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    (NetListener::Tcp(listener), addr)
}

/// One round-trip on a fresh connection.
fn exchange(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(reply.ends_with('\n'), "framed reply, got {reply:?}");
    reply.trim_end().to_string()
}

fn stats(addr: SocketAddr) -> StatsReply {
    match Response::parse(&exchange(addr, r#"{"cmd":"stats"}"#)).expect("stats parses") {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Polls until `pred` holds (30 s cap — generous because debug-build
/// evaluations are slow, but every wait is event-driven, not timed).
fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// What a fresh one-shot session answers for `line` — the byte-identity
/// reference.
fn one_shot(line: &str) -> String {
    Session::new().handle(&served(line)).encode()
}

#[test]
fn concurrent_clients_get_one_shot_bytes() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 4,
        ..NetConfig::default()
    };
    let script: Vec<&str> = vec![
        r#"{"cmd":"list"}"#,
        r#"{"cmd":"report","benchmark":"rnn","batch":1}"#,
        r#"{"cmd":"report","benchmark":"lstm","batch":16,"backend":"event"}"#,
        r#"{"cmd":"sweep","benchmark":"rnn","axis":"bandwidth"}"#,
        r#"{"cmd":"quantize","benchmark":"svhn"}"#,
        r#"{"cmd":"asm","benchmark":"rnn","batch":1}"#,
    ];
    let (session, config, script) = (&session, &config, &script);
    let responses: Vec<Vec<String>> = thread::scope(|scope| {
        let _stop = StopOnDrop(&config.stop);
        let server = scope.spawn(move || net::run(session, &listener, config));
        // 6 clients, each sending the whole script on one connection but
        // starting from a different offset, so the interleaving across
        // connections differs every run.
        let clients: Vec<_> = (0..6)
            .map(|offset| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut got = Vec::new();
                    for i in 0..script.len() {
                        let line = script[(offset + i) % script.len()];
                        stream.write_all(line.as_bytes()).unwrap();
                        stream.write_all(b"\n").unwrap();
                        stream.flush().unwrap();
                        let mut reply = String::new();
                        reader.read_line(&mut reply).unwrap();
                        got.push((line, reply.trim_end().to_string()));
                    }
                    got
                })
            })
            .collect();
        let per_client: Vec<Vec<(&str, String)>> =
            clients.into_iter().map(|c| c.join().unwrap()).collect();
        // The retained wire field: nothing is coalesced.
        assert_eq!(stats(addr).coalesced, 0);
        config.stop.request();
        let summary = server.join().unwrap().expect("server runs");
        assert_eq!(summary.responses, 36, "6 clients x 6 requests");
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.connections, 7, "6 clients and the stats poll");
        per_client
            .into_iter()
            .map(|got| {
                got.into_iter()
                    .map(|(line, reply)| {
                        // Byte-identical to a fresh one-shot session, no
                        // matter the interleaving or cache warmth.
                        assert_eq!(reply, one_shot(line), "request {line}");
                        reply
                    })
                    .collect()
            })
            .collect()
    });
    // And identical across clients, naturally.
    for r in &responses[1..] {
        assert_eq!(r.len(), responses[0].len());
    }
}

#[test]
fn overload_sheds_with_a_parseable_error() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 1,
        max_queue: 1, // one evaluating + one waiting; the third sheds
        ..NetConfig::default()
    };
    let (release, held) = mpsc::channel();
    let held = Mutex::new(held);
    let handler = holding(&session, &held);
    let (session, config, handler) = (&session, &config, &handler);
    thread::scope(|scope| {
        // Owned by the scenario, so unwinding drops it and frees the
        // occupant.
        let release = release;
        let _stop = StopOnDrop(&config.stop);
        let server =
            scope.spawn(move || net::run_with_handler(session, &listener, config, handler));
        let occupant = scope.spawn(move || exchange(addr, OCCUPANT));
        wait_until("occupant in flight", || stats(addr).in_flight == 1);
        let queued = scope.spawn(move || exchange(addr, QUEUED));
        wait_until("queue full", || stats(addr).queue_depth == 1);
        // The gate is saturated: slot + queue taken. A third, distinct
        // request must be answered immediately with the pinned,
        // well-formed error — not a dropped connection, not a hang.
        let shed_reply = exchange(addr, r#"{"cmd":"report","benchmark":"rnn","batch":1}"#);
        assert_eq!(
            shed_reply,
            format!(r#"{{"reply":"error","message":"{SHED_MESSAGE}"}}"#)
        );
        match Response::parse(&shed_reply).expect("shed reply parses") {
            Response::Error { message } => assert_eq!(message, SHED_MESSAGE),
            other => panic!("expected an error reply, got {other:?}"),
        }
        let s = stats(addr);
        assert_eq!(s.shed, 1);
        assert_eq!(s.errors, 1, "the shed request is the only error");
        assert_eq!(s.queue_capacity, 1);
        assert_eq!(s.workers, 1);
        // The occupant and the queued request still complete correctly.
        release.send(()).expect("the occupant is held");
        assert_eq!(occupant.join().unwrap(), one_shot(OCCUPANT));
        assert_eq!(queued.join().unwrap(), one_shot(QUEUED));
        // Latency percentiles cover the completed (non-shed) requests.
        let s = stats(addr);
        assert_eq!(s.latency.count, 2);
        assert!(s.latency.p50_us > 0);
        assert!(s.latency.p50_us <= s.latency.p90_us);
        assert!(s.latency.p90_us <= s.latency.p99_us);
        config.stop.request();
        let summary = server.join().unwrap().expect("server runs");
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.responses, 3);
    });
}

#[test]
fn idle_connections_are_reaped_but_the_server_lives_on() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 1,
        idle_timeout: Some(Duration::from_millis(250)),
        ..NetConfig::default()
    };
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let _stop = StopOnDrop(&config.stop);
        let server = scope.spawn(move || net::run(session, &listener, config));
        // A client that connects and never speaks: the server must close
        // it (read returns EOF) rather than pin the thread forever.
        let idle = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(idle);
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).expect("clean close, not reset");
        assert_eq!(n, 0, "idle connection reaped with EOF");
        // Only the polling stats connection itself remains active.
        wait_until("idle connection retired", || {
            stats(addr).connections_active == 1
        });
        // An active client on the same server is unaffected.
        let reply = exchange(addr, r#"{"cmd":"list"}"#);
        assert!(reply.starts_with(r#"{"reply":"list""#));
        config.stop.request();
        server.join().unwrap().expect("server runs");
    });
}

#[test]
fn a_panicking_request_releases_its_connection_slot() {
    const MARKER: &str = r#"{"cmd":"report","benchmark":"rnn","batch":3}"#;
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 1,
        ..NetConfig::default()
    };
    let marker = served(MARKER).encode();
    let handler = |request: &Request| {
        assert!(request.encode() != marker, "the marker request panics");
        session.handle(request)
    };
    let (session, config, handler) = (&session, &config, &handler);
    thread::scope(|scope| {
        let _stop = StopOnDrop(&config.stop);
        let server =
            scope.spawn(move || net::run_with_handler(session, &listener, config, handler));
        // The panic unwinds the connection thread: the client reads EOF
        // with no reply.
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{MARKER}").unwrap();
        let mut reply = String::new();
        let n = BufReader::new(stream)
            .read_line(&mut reply)
            .expect("closed");
        assert_eq!(n, 0, "no reply to the panicking request, got {reply:?}");
        // Only the polling stats connection itself stays active, and the
        // admission slot was released too.
        wait_until("panicked connection released", || {
            stats(addr).connections_active == 1
        });
        assert_eq!(stats(addr).in_flight, 0);
        assert_eq!(
            exchange(addr, r#"{"cmd":"report","benchmark":"lstm","batch":1}"#),
            one_shot(r#"{"cmd":"report","benchmark":"lstm","batch":1}"#)
        );
        // The panic stays in its connection: the server stops cleanly.
        config.stop.request();
        let summary = server
            .join()
            .expect("the server does not re-raise the panic")
            .expect("the server stops with its summary");
        assert!(summary.connections >= 3, "{summary:?}");
    });
}

#[cfg(unix)]
#[test]
fn shutdown_request_drains_a_unix_server() {
    let dir = std::env::temp_dir().join(format!("bitfusion-net-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let path_str = path.to_str().unwrap().to_string();
    let _ = std::fs::remove_file(&path);
    let session = Session::new();
    let listener = NetListener::bind_unix(&path_str).expect("bind unix socket");
    let config = NetConfig {
        workers: 2,
        allow_shutdown: true,
        ..NetConfig::default()
    };
    let unix_exchange = |line: &str| -> String {
        let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    };
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let _stop = StopOnDrop(&config.stop);
        let server = scope.spawn(move || net::run(session, &listener, config));
        let reply = unix_exchange(r#"{"cmd":"report","benchmark":"rnn","batch":1}"#);
        assert_eq!(reply, one_shot(r#"{"cmd":"report","benchmark":"rnn","batch":1}"#));
        // The admin request: acknowledged, then the server drains and
        // `run` returns without anyone touching the stop flag.
        assert_eq!(unix_exchange(r#"{"cmd":"shutdown"}"#), r#"{"reply":"shutdown"}"#);
        let summary = server.join().unwrap().expect("server runs");
        assert_eq!(summary.responses, 1, "shutdown/stats are not workload");
        assert_eq!(summary.errors, 0);
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[cfg(unix)]
#[test]
fn hostile_lines_answer_errors_and_the_server_serves_on() {
    use std::os::unix::net::UnixStream;
    let dir = std::env::temp_dir().join(format!("bitfusion-net-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let _ = std::fs::remove_file(&path);
    let session = Session::new();
    let listener = NetListener::bind_unix(path.to_str().unwrap()).expect("bind unix socket");
    let config = NetConfig::default();
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let _stop = StopOnDrop(&config.stop);
        let server = scope.spawn(move || net::run(session, &listener, config));
        let mut stream = UnixStream::connect(&path).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut send = |line: &[u8]| {
            stream.write_all(line).unwrap();
            stream.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        };
        // Deep nesting within the line cap: answered, connection kept.
        let mut deep = vec![b'['; 200_000];
        deep.push(b'\n');
        assert_eq!(
            send(&deep),
            "{\"reply\":\"error\",\"message\":\"invalid JSON: nesting deeper than 128 at byte 128\"}\n"
        );
        assert!(send(b"{\"cmd\":\"list\"}\n").starts_with(r#"{"reply":"list""#));
        // A non-UTF-8 line: answered, connection kept.
        assert_eq!(
            send(b"\xff\xfe\n"),
            "{\"reply\":\"error\",\"message\":\"request line is not UTF-8\"}\n"
        );
        // A batch whose counts overflow u64: answered, connection kept.
        let huge = r#"{"cmd":"report","benchmark":"alexnet","batch":9223372036854775808}"#;
        assert_eq!(
            send(format!("{huge}\n").as_bytes()),
            "{\"reply\":\"error\",\"message\":\"batch too large: the n count of a layer overflows u64\"}\n"
        );
        // A line past the cap: answered, then the connection closes.
        let reply = send(&vec![b' '; MAX_LINE_BYTES + 1]);
        assert_eq!(
            reply,
            format!(
                "{{\"reply\":\"error\",\"message\":\"request line exceeds {} bytes\"}}\n",
                MAX_LINE_BYTES
            )
        );
        let mut rest = String::new();
        assert_eq!(
            reader.read_line(&mut rest).unwrap(),
            0,
            "closed after the reply"
        );
        // The next connection is served.
        let mut next = UnixStream::connect(&path).expect("connect again");
        next.write_all(b"{\"cmd\":\"list\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(next).read_line(&mut reply).unwrap();
        assert!(reply.starts_with(r#"{"reply":"list""#), "{reply}");
        config.stop.request();
        let summary = server.join().unwrap().expect("server runs");
        assert_eq!((summary.responses, summary.errors), (6, 4));
    });
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// One keep-alive connection pipelining `script` in lockstep — exactly
/// what `bitfusion-cli client --keep-alive` does.
fn pipeline(addr: SocketAddr, script: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    script
        .iter()
        .map(|line| {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            stream.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        })
        .collect()
}

#[test]
fn keep_alive_pipelining_matches_one_shot_bytes() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 2,
        ..NetConfig::default()
    };
    let script = [
        r#"{"cmd":"list"}"#,
        r#"{"cmd":"report","benchmark":"rnn","batch":1}"#,
        r#"{"cmd":"quantize","benchmark":"svhn"}"#,
        r#"{"cmd":"report","benchmark":"rnn","batch":1}"#,
    ];
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let _stop = StopOnDrop(&config.stop);
        let server = scope.spawn(move || net::run(session, &listener, config));
        let piped = pipeline(addr, &script);
        for (line, reply) in script.iter().zip(&piped) {
            // Same bytes as a fresh one-shot connection per request...
            assert_eq!(*reply, exchange(addr, line), "request {line}");
            // ...and as a fresh one-shot session.
            assert_eq!(*reply, one_shot(line), "request {line}");
        }
        config.stop.request();
        let summary = server.join().unwrap().expect("server runs");
        // 4 pipelined + 4 one-shot verification requests.
        assert_eq!(summary.responses, 8);
        assert_eq!(summary.connections, 5, "one keep-alive + 4 one-shot");
    });
}

#[test]
fn tcp_shutdown_is_refused() {
    let session = Session::new();
    let (listener, addr) = bind_tcp();
    let config = NetConfig::default(); // allow_shutdown: false
    let (session, config) = (&session, &config);
    thread::scope(|scope| {
        let _stop = StopOnDrop(&config.stop);
        let server = scope.spawn(move || net::run(session, &listener, config));
        let reply = exchange(addr, r#"{"cmd":"shutdown"}"#);
        match Response::parse(&reply).expect("refusal parses") {
            Response::Error { message } => {
                assert!(message.contains("unix"), "{message}");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        // Still serving.
        assert!(exchange(addr, r#"{"cmd":"list"}"#).starts_with(r#"{"reply":"list""#));
        config.stop.request();
        server.join().unwrap().expect("server runs");
    });
}

/// Runs the server on a thread of its own and hands back its result, so
/// that a stop that never wakes the server fails [`returned`] at its
/// deadline instead of hanging the test in a scope's join.
fn spawn_server(
    session: &'static Session,
    listener: NetListener,
    config: NetConfig,
    handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> mpsc::Receiver<std::io::Result<NetSummary>> {
    let (done, result) = mpsc::channel();
    thread::spawn(move || {
        let _ = done.send(net::run_with_handler(session, &listener, &config, &handler));
    });
    result
}

/// The summary of a server started by [`spawn_server`] (30 s cap).
fn returned(server: &mpsc::Receiver<std::io::Result<NetSummary>>) -> NetSummary {
    server
        .recv_timeout(Duration::from_secs(30))
        .expect("run returns after the stop")
        .expect("server runs")
}

fn leaked_session() -> &'static Session {
    Box::leak(Box::new(Session::new()))
}

#[test]
fn a_server_that_never_had_a_client_stops_on_request() {
    let dir = std::env::temp_dir().join(format!("bitfusion-net-idle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.sock");
    let _ = std::fs::remove_file(&path);
    let mut listeners = vec![bind_tcp().0];
    #[cfg(unix)]
    listeners.push(NetListener::bind_unix(path.to_str().unwrap()).expect("bind unix socket"));
    for listener in listeners {
        let session = leaked_session();
        let config = NetConfig::default();
        let server = spawn_server(session, listener, config.clone(), |r| session.handle(r));
        // Time for `run` to block in `accept`. The test holds without it
        // too: a stop requested before `run` starts is the case below.
        thread::sleep(Duration::from_millis(50));
        config.stop.request();
        let summary = returned(&server);
        assert_eq!(
            summary.connections, 0,
            "the wake-up connection is not counted"
        );
        assert_eq!(summary, NetSummary::default());
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn a_silent_kept_connection_does_not_hold_up_the_drain() {
    let session = leaked_session();
    let (listener, addr) = bind_tcp();
    let config = NetConfig {
        workers: 1,
        idle_timeout: None, // nothing reaps the silent connection
        ..NetConfig::default()
    };
    let (release, held) = mpsc::channel();
    let held: &'static Mutex<_> = Box::leak(Box::new(Mutex::new(held)));
    let server = spawn_server(session, listener, config.clone(), holding(session, held));
    let _stop = StopOnDrop(&config.stop);
    let silent = TcpStream::connect(addr).expect("connect");
    let occupant = thread::spawn(move || exchange(addr, OCCUPANT));
    // The silent connection, the occupant's and the stats poll's.
    wait_until("silent connection open and occupant in flight", || {
        let s = stats(addr);
        s.connections_active == 3 && s.in_flight == 1
    });
    config.stop.request();
    assert!(
        server.try_recv().is_err(),
        "the drain waits for the held occupant"
    );
    // Held at the stop, the occupant still gets its reply; the silent
    // connection reads EOF and does not keep `run` from returning.
    release.send(()).expect("the occupant is held");
    assert_eq!(occupant.join().unwrap(), one_shot(OCCUPANT));
    let summary = returned(&server);
    assert_eq!(summary.responses, 1);
    let mut rest = String::new();
    let n = BufReader::new(silent)
        .read_line(&mut rest)
        .expect("clean close");
    assert_eq!(n, 0, "the silent connection is closed with EOF");
}

#[test]
fn a_stop_requested_before_run_returns_at_once() {
    let session = leaked_session();
    let (listener, _) = bind_tcp();
    let config = NetConfig::default();
    config.stop.request();
    assert!(config.stop.is_requested());
    let server = spawn_server(session, listener, config, |r| session.handle(r));
    assert_eq!(returned(&server), NetSummary::default());
}
