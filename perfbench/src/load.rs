//! The load generator: starts the real `bitfusion-cli`, drives it with
//! closed-loop clients (serve) or back-to-back processes (dse), times every
//! operation and byte-checks every reply against an in-process reference.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use bitfusion_service::protocol::{Request, Response, StatsReply};
use bitfusion_service::Session;

use crate::gen::{DseGrid, UniqueStream};

/// Closed-loop client connections of `serve_unique`.
pub const CLIENTS: usize = 2;
/// Untimed requests each connection sends before its timed window.
const WARMUP_OPS: usize = 64;
/// Server starts per run; `setup_s` is their median.
pub const SERVE_SETUP_SAMPLES: usize = 15;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// Pause between the socket file appearing and the first connect.
const CONNECT_DELAY: Duration = Duration::from_millis(2);

const LIST: &str = r#"{"cmd":"list"}"#;

/// Whether a reply line is the protocol's error shape (shed included).
pub fn is_error(reply: &str) -> bool {
    reply.starts_with(r#"{"reply":"error""#)
}

/// One timed operation: when it completed, how long it took, and its
/// group (the grid of a `dse` process; 0 for a served request).
#[derive(Clone, Copy)]
pub struct Sample {
    /// Completion time.
    pub done: Instant,
    /// Latency, microseconds.
    pub us: f64,
    /// Group the operation belongs to.
    pub group: usize,
}

/// The reference reply for one request line: a fresh in-process session,
/// exactly as a one-shot `--json` invocation answers it.
pub fn reference(line: &str) -> String {
    match Request::parse(line) {
        Ok(request) => Session::new().handle(&request).encode(),
        Err(message) => Response::Error { message }.encode(),
    }
}

/// References for many lines on up to `threads` threads, in input order.
pub fn references(lines: &[String], threads: usize) -> Vec<String> {
    bitfusion_sim::pool::map_indexed(lines.len(), threads, |i| reference(&lines[i]))
}

/// One JSON-lines connection to the server.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    /// Sends one request line and returns the reply line (newline
    /// stripped).
    pub fn exchange(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.line.trim_end_matches('\n')),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running `bitfusion-cli serve --unix` process. Dropping it kills the
/// process if [`Server::stop`] did not already end it.
pub struct Server {
    child: Child,
    sock: PathBuf,
}

impl Server {
    /// Spawns the server and waits until it answers `list`; returns the
    /// server, the spawn-to-answer time and the open connection.
    pub fn start(
        cli: &Path,
        sock: &Path,
        workers: usize,
        list_reference: &str,
    ) -> Result<(Server, Duration, Conn), String> {
        let _ = std::fs::remove_file(sock);
        let started = Instant::now();
        let child = Command::new(cli)
            .args(["serve", "--unix"])
            .arg(sock)
            .args(["--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut server = Server {
            child,
            sock: sock.to_path_buf(),
        };
        let mut conn = server.connect()?;
        let list = conn.exchange(LIST)?.to_string();
        let setup = started.elapsed();
        if list != list_reference {
            return Err(format!("`list` reply differs from the reference: {list}"));
        }
        Ok((server, setup, conn))
    }

    /// Opens another connection, retrying until the socket accepts.
    ///
    /// It connects [`CONNECT_DELAY`] after the socket file appears. The
    /// server polls its nonblocking listener, so a connect that races its
    /// very first accept is answered at once and one that misses it waits
    /// a poll interval; the delay takes every start down the second path,
    /// which keeps `setup_s` from flipping between the two.
    pub fn connect(&mut self) -> Result<Conn, String> {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        while !self.sock.exists() && Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited ({status}) before binding"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        std::thread::sleep(CONNECT_DELAY);
        loop {
            match UnixStream::connect(&self.sock) {
                Ok(stream) => {
                    let writer = stream.try_clone().map_err(|e| e.to_string())?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                        line: String::new(),
                    });
                }
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("server exited ({status}) before accepting"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("cannot connect to {}: {e}", self.sock.display()));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Sends `shutdown` on `conn`, waits for the process to drain and
    /// exit, and returns its peak RSS in MB.
    pub fn stop(self, mut conn: Conn) -> Result<f64, String> {
        let reply = conn.exchange(r#"{"cmd":"shutdown"}"#)?.to_string();
        drop(conn);
        let (ok, peak_rss_mb) = wait_with_peak_rss(&self.child)?;
        if is_error(&reply) || !ok {
            return Err(format!("shutdown failed: {reply}"));
        }
        Ok(peak_rss_mb)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// The request lines of a serve run: connections share one stream of new
/// lines, and every line sent is kept, by id, so that its reply can be
/// checked after the run.
pub type Source = Mutex<(UniqueStream, Vec<String>)>;

/// Takes the next line of the stream, with its id.
fn next_line(source: &Source) -> (usize, String) {
    let mut guard = source.lock().expect("stream lock poisoned");
    let (stream, sent) = &mut *guard;
    let line = stream.next_line();
    sent.push(line.clone());
    (sent.len() - 1, line)
}

/// What one client connection did.
#[derive(Default)]
struct ClientLog {
    timed: Vec<Sample>,
    window: Option<(Instant, Instant)>,
    ops: u64,
    errors: u64,
    /// Replies by line id, checked after the run.
    replies: Vec<(usize, String)>,
}

fn client(
    conn: &mut Conn,
    source: &Source,
    barrier: &Barrier,
    seconds: f64,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::default();
    let mut deadline = None;
    for k in 0.. {
        if k == WARMUP_OPS {
            barrier.wait();
            let start = Instant::now();
            deadline = Some(start + Duration::from_secs_f64(seconds));
            log.window = Some((start, start));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let (id, line) = next_line(source);
        let sent = Instant::now();
        let reply = conn.exchange(&line)?;
        let done = Instant::now();
        log.ops += 1;
        if let Some((_, end)) = &mut log.window {
            log.timed.push(Sample {
                done,
                us: (done - sent).as_secs_f64() * 1e6,
                group: 0,
            });
            *end = done;
        }
        if is_error(reply) {
            log.errors += 1;
        } else {
            log.replies.push((id, reply.to_string()));
        }
    }
    Ok(log)
}

/// The outcome of one serve run.
pub struct ServeRun {
    /// Spawn-to-first-`list` times of every server start, seconds.
    pub setup_s: Vec<f64>,
    /// Every timed request.
    pub samples: Vec<Sample>,
    /// The timed window, first start to last completion.
    pub window: (Instant, Instant),
    /// Requests sent (warm-up included).
    pub attempted: u64,
    /// Error or shed replies.
    pub errors: u64,
    /// Replies that differ from their reference.
    pub mismatched: u64,
    /// Distinct request lines among those sent.
    pub distinct: u64,
    /// The server's `stats` reply after the window.
    pub stats: StatsReply,
    /// Peak RSS of the measured server process, MB.
    pub peak_rss_mb: f64,
}

/// Starts the server [`SERVE_SETUP_SAMPLES`] times (keeping the last), runs
/// [`CLIENTS`] closed-loop connections for `seconds` after their warm-up,
/// reads `stats`, stops the server and checks every reply.
pub fn run_serve(
    cli: &Path,
    sock: &Path,
    workers: usize,
    source: &Source,
    seconds: f64,
) -> Result<ServeRun, String> {
    let list_reference = reference(LIST);
    let mut setup_s = Vec::new();
    let (mut server, mut conn) = loop {
        let (server, setup, conn) = Server::start(cli, sock, workers, &list_reference)?;
        setup_s.push(setup.as_secs_f64());
        if setup_s.len() == SERVE_SETUP_SAMPLES {
            break (server, conn);
        }
        server.stop(conn)?;
    };
    let mut conns = vec![conn];
    for _ in 1..CLIENTS {
        conns.push(server.connect()?);
    }
    let barrier = Barrier::new(CLIENTS);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| scope.spawn(|| client(c, source, &barrier, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    conn = conns.swap_remove(0);
    drop(conns);
    let stats = match Response::parse(conn.exchange(r#"{"cmd":"stats"}"#)?) {
        Ok(Response::Stats(s)) => s,
        other => return Err(format!("unexpected stats reply: {other:?}")),
    };
    let peak_rss_mb = server.stop(conn)?;

    let start = logs.iter().filter_map(|l| l.window.map(|w| w.0)).min();
    let end = logs.iter().filter_map(|l| l.window.map(|w| w.1)).max();
    let (Some(start), Some(end)) = (start, end) else {
        return Err("no connection reached its timed window".to_string());
    };
    let mut run = ServeRun {
        setup_s,
        samples: Vec::new(),
        window: (start, end),
        attempted: 0,
        errors: 0,
        mismatched: 0,
        distinct: 0,
        stats,
        peak_rss_mb,
    };
    let mut replies = Vec::new();
    for log in logs {
        run.samples.extend(log.timed);
        run.attempted += log.ops;
        run.errors += log.errors;
        replies.extend(log.replies);
    }
    let sent = &source.lock().expect("stream lock poisoned").1;
    run.distinct = sent.iter().collect::<HashSet<_>>().len() as u64;
    let refs = references(sent, workers);
    run.mismatched = replies
        .iter()
        .filter(|(id, reply)| *reply != refs[*id])
        .count() as u64;
    Ok(run)
}

/// The outcome of one `dse_cold` run.
pub struct DseRun {
    /// Spawn-to-exit times of `list --json` one-shots, seconds.
    pub setup_s: Vec<f64>,
    /// Every timed `dse` process, grouped by grid index.
    pub samples: Vec<Sample>,
    /// The timed window.
    pub window: (Instant, Instant),
    /// Processes run (warm-up included).
    pub attempted: u64,
    /// Processes that failed or printed an error reply.
    pub errors: u64,
    /// Processes whose stdout differs from the reference.
    pub mismatched: u64,
    /// Peak RSS of every timed `dse` process, MB.
    pub peak_rss_mb: Vec<f64>,
}

/// Runs one-shot `dse` processes back to back for `seconds`, cycling
/// through `grids`, after one untimed warm-up process. A `list --json`
/// one-shot runs before every `dse` process and times set-up, so the
/// set-up samples spread over the whole window as the operations do; its
/// time is not part of any operation's.
pub fn run_dse(cli: &Path, grids: &[DseGrid], seconds: f64) -> Result<DseRun, String> {
    let list_reference = format!("{}\n", reference(LIST));
    let list_argv = ["list".to_string(), "--json".to_string()];
    let refs: Vec<String> = grids
        .iter()
        .map(|g| format!("{}\n", Session::new().handle(&g.request()).encode()))
        .collect();
    let mut run = DseRun {
        setup_s: Vec::new(),
        samples: Vec::new(),
        window: (Instant::now(), Instant::now()),
        attempted: 0,
        errors: 0,
        mismatched: 0,
        peak_rss_mb: Vec::new(),
    };
    for k in 0.. {
        // Op 0 is the untimed warm-up.
        if k == 1 {
            run.window.0 = Instant::now();
        }
        if k >= 1 && run.window.0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let list = one_shot(cli, &list_argv)?;
        if !list.ok || list.stdout != list_reference.as_bytes() {
            return Err("`list --json` differs from the reference".to_string());
        }
        let g = k % grids.len();
        let shot = one_shot(cli, &grids[g].argv())?;
        run.attempted += 1;
        if k >= 1 {
            run.setup_s.push(list.took.as_secs_f64());
            run.samples.push(Sample {
                done: Instant::now(),
                us: shot.took.as_secs_f64() * 1e6,
                group: g,
            });
            run.peak_rss_mb.push(shot.peak_rss_mb);
        }
        if !shot.ok || is_error(&String::from_utf8_lossy(&shot.stdout)) {
            run.errors += 1;
        } else if shot.stdout != refs[g].as_bytes() {
            run.mismatched += 1;
        }
    }
    run.window.1 = Instant::now();
    Ok(run)
}

/// One finished one-shot process.
struct Shot {
    took: Duration,
    ok: bool,
    stdout: Vec<u8>,
    peak_rss_mb: f64,
}

/// Runs `cli argv` to completion, spawn to exit.
fn one_shot(cli: &Path, argv: &[String]) -> Result<Shot, String> {
    let started = Instant::now();
    let mut child = Command::new(cli)
        .args(argv)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)
        .map_err(|e| format!("read stdout: {e}"))?;
    let (ok, peak_rss_mb) = wait_with_peak_rss(&child)?;
    Ok(Shot {
        took: started.elapsed(),
        ok,
        stdout,
        peak_rss_mb,
    })
}

/// Reaps `child` with `wait4`, which also reports the process's peak
/// resident set size. Returns whether it exited with status 0, and the
/// peak RSS in MB. `child` must not be waited for again.
#[cfg(target_os = "linux")]
fn wait_with_peak_rss(child: &Child) -> Result<(bool, f64), String> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
    /// the first of which is `ru_maxrss` in KB.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    }
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut status = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values; `usage`
        // is laid out as the kernel's 64-bit `struct rusage` (18
        // eight-byte words), which is all `wait4` writes besides `status`.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    // WIFEXITED(status) && WEXITSTATUS(status) == 0.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((ok, usage.maxrss_kb as f64 / 1024.0))
}
