//! The concurrent network server behind `bitfusion-cli serve --listen`
//! and `--unix`.
//!
//! Architecture: a `std::net` listener (TCP or unix socket — no async
//! runtime), one OS thread per connection in the scoped style of
//! `bitfusion_sim::pool`, every connection speaking the same JSON-lines
//! protocol as the stdin loop against one shared [`Session`] — and
//! therefore one process-global `ArtifactCache` + `LayerPerfCache`, so a
//! plan any client compiled is warm for all of them.
//!
//! Lines are framed by `serve::read_request`, the reader the stdin loop uses
//! too. Two server-level mechanisms sit between the socket and the
//! session:
//!
//! - **Admission** ([`bitfusion_sim::pool::Gate`]): at most `workers`
//!   requests evaluate at once, at most `max_queue` wait FIFO behind
//!   them, and anything beyond that is *shed* — answered with a
//!   well-formed `{"reply":"error",...}` line immediately, never a
//!   dropped connection, so a scripted client can always correlate
//!   responses positionally.
//! - **Observation** ([`histogram::LatencyHistogram`] + atomic
//!   counters): the `stats` request — answered by the server itself,
//!   bypassing admission so it stays live under overload — reports both
//!   cache tiers, queue state, and p50/p90/p99 latency. It is the one
//!   reply whose bytes depend on server state; every other reply remains
//!   byte-identical to a fresh one-shot session.
//!
//! Shutdown: a `shutdown` request on a unix socket (trusted local
//! admin; TCP clients get an error), or the shared stop flag (the CLI
//! wires SIGINT to it). The listener stops accepting, connection
//! threads finish their current request and close, and `run` returns
//! after the drain.

pub mod histogram;

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use bitfusion_sim::pool::{Admission, Gate};

use crate::protocol::{CacheTierInfo, LatencyInfo, Request, Response, StatsReply};
use crate::serve::read_request;
use crate::session::Session;
use histogram::LatencyHistogram;

/// How often blocked reads wake to check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// How often the nonblocking accept loop retries. Shorter than the read
/// poll: it bounds how long a fresh client waits to be picked up.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(20);

/// The message every load-shed request is answered with (pinned by
/// tests and the DESIGN.md error-shape contract).
pub const SHED_MESSAGE: &str = "server overloaded: admission queue full";

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Concurrent evaluation slots (`0` = all cores).
    pub workers: usize,
    /// Admissions that may wait behind the slots before shedding.
    pub max_queue: usize,
    /// Close a connection after this long with no bytes from the client
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Honour the `shutdown` request (the CLI enables this for unix
    /// sockets only — a remote TCP client must not stop the server).
    pub allow_shutdown: bool,
    /// Externally visible stop flag: set it (e.g. from a SIGINT handler)
    /// and the server drains and returns.
    pub stop: Arc<AtomicBool>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 0,
            max_queue: 64,
            idle_timeout: Some(Duration::from_secs(300)),
            allow_shutdown: false,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }
}

/// What one [`run`] served, reported after the drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Workload response lines written (error responses included,
    /// `stats`/`shutdown` answers excluded).
    pub responses: u64,
    /// Responses that were `{"reply":"error",...}` (shed included).
    pub errors: u64,
}

/// A bound listening socket, ready for [`run`].
#[derive(Debug)]
pub enum NetListener {
    /// A TCP listener (e.g. `127.0.0.1:7040`).
    Tcp(TcpListener),
    /// A unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl NetListener {
    /// Binds a TCP listener.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (bad address, port in use).
    pub fn bind_tcp(addr: &str) -> std::io::Result<Self> {
        Ok(NetListener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a unix-socket listener at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (a stale socket file from an unclean
    /// exit must be removed first).
    #[cfg(unix)]
    pub fn bind_unix(path: &str) -> std::io::Result<Self> {
        Ok(NetListener::Unix(UnixListener::bind(path)?))
    }

    /// Human-readable bound address (the CLI's "listening on" line).
    pub fn local_display(&self) -> String {
        match self {
            NetListener::Tcp(l) => l
                .local_addr()
                .map_or_else(|_| "tcp(?)".to_string(), |a| a.to_string()),
            #[cfg(unix)]
            NetListener::Unix(l) => l.local_addr().ok().and_then(|a| {
                a.as_pathname().map(|p| p.display().to_string())
            }).unwrap_or_else(|| "unix(?)".to_string()),
        }
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            NetListener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn accept(&self) -> std::io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // The accept loop polls nonblocking; the connection itself
                // must block (with a read timeout) again.
                s.set_nonblocking(false)?;
                Ok(NetStream::Tcp(s))
            }
            #[cfg(unix)]
            NetListener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(NetStream::Unix(s))
            }
        }
    }
}

/// One accepted connection, transport-erased.
#[derive(Debug)]
enum NetStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    fn try_clone(&self) -> std::io::Result<NetStream> {
        match self {
            NetStream::Tcp(s) => Ok(NetStream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            NetStream::Unix(s) => Ok(NetStream::Unix(s.try_clone()?)),
        }
    }

    fn set_read_timeout(&self, dur: Duration) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(Some(dur)),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_read_timeout(Some(dur)),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// Evaluates one admitted request (see [`run_with_handler`]).
type Handler<'a> = &'a (dyn Fn(&Request) -> Response + Sync);

/// Shared server state every connection thread sees.
struct ServerState<'a> {
    session: &'a Session,
    handler: Handler<'a>,
    gate: Gate,
    histogram: LatencyHistogram,
    config: &'a NetConfig,
    connections_active: AtomicU64,
    connections_total: AtomicU64,
    received: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
}

impl ServerState<'_> {
    fn stats(&self) -> StatsReply {
        let tier = |s: bitfusion_compiler::CacheStats| CacheTierInfo {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            len: s.len as u64,
            capacity: s.capacity as u64,
        };
        StatsReply {
            connections_active: self.connections_active.load(Ordering::Relaxed),
            connections_total: self.connections_total.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            coalesced: 0,
            queue_depth: self.gate.queue_depth() as u64,
            queue_capacity: self.gate.queue_capacity() as u64,
            in_flight: self.gate.in_flight() as u64,
            workers: self.gate.slots() as u64,
            artifact_cache: tier(self.session.cache_stats()),
            layer_cache: tier(self.session.layer_cache_stats()),
            latency: LatencyInfo {
                count: self.histogram.count(),
                p50_us: self.histogram.quantile_us(0.50),
                p90_us: self.histogram.quantile_us(0.90),
                p99_us: self.histogram.quantile_us(0.99),
                max_us: self.histogram.max_us(),
            },
        }
    }

    /// Produces the response line for one framed request, maintaining
    /// the workload counters (server-level `stats`/`shutdown` requests are
    /// answered but not counted, so polling `stats` never perturbs the
    /// numbers it reports). Everything that is not a server-level request
    /// flows gate → session.
    fn answer(&self, request: Result<Request, String>) -> String {
        let request = match request {
            Ok(r) => r,
            Err(message) => return self.refuse(message),
        };
        match request {
            // Answered by the server, bypassing admission: must stay live
            // when the gate is saturated, or it can't diagnose overload.
            Request::Stats => return Response::Stats(self.stats()).encode(),
            Request::Shutdown => {
                return if self.config.allow_shutdown {
                    self.config.stop.store(true, Ordering::SeqCst);
                    Response::Shutdown.encode()
                } else {
                    Response::Error {
                        message: "shutdown is only honoured on a unix socket (serve --unix)"
                            .to_string(),
                    }
                    .encode()
                }
            }
            _ => {}
        }
        self.received.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let response = match self.gate.admit() {
            Admission::Shed => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    message: SHED_MESSAGE.to_string(),
                }
                .encode()
            }
            Admission::Admitted(permit) => {
                let response = (self.handler)(&request).encode();
                drop(permit);
                self.record_latency(started);
                response
            }
        };
        if response.starts_with(r#"{"reply":"error""#) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        } else {
            self.ok.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    /// Counts a workload request that never reached evaluation and
    /// answers it with `message`.
    fn refuse(&self, message: String) -> String {
        self.received.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        Response::Error { message }.encode()
    }

    fn record_latency(&self, started: Instant) {
        let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.histogram.record_us(us);
    }

    /// One connection's life: read lines, answer each, until EOF, idle
    /// expiry, a dead peer, or server stop.
    fn serve_connection(&self, stream: NetStream) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
        // Releases the slot on return and on unwind alike: a request that
        // panics must not leave `stats` counting its connection as open.
        let _active = ActiveSlot(&self.connections_active);
        // A vanished peer is normal (client ctrl-c'd); nothing to report.
        drop(self.connection_loop(stream));
    }

    fn connection_loop(&self, stream: NetStream) -> std::io::Result<()> {
        stream.set_read_timeout(POLL_INTERVAL)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        let mut last_activity = Instant::now();
        loop {
            if self.config.stop.load(Ordering::SeqCst) {
                return Ok(()); // draining: finish current request, close
            }
            let before = line.len();
            match read_request(&mut reader, &mut line) {
                Ok(None) => return Ok(()), // EOF: client closed cleanly
                Ok(Some(framed)) => {
                    last_activity = Instant::now();
                    write_line(&mut writer, &self.answer(framed.request))?;
                    if framed.last {
                        return Ok(()); // the rest of the line is never read
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Poll tick. The read may have left a partial line in
                    // the buffer before timing out — keep it; the next
                    // pass appends the rest.
                    if line.len() != before {
                        last_activity = Instant::now();
                    }
                    if let Some(limit) = self.config.idle_timeout {
                        if last_activity.elapsed() >= limit {
                            return Ok(()); // idle: reclaim the thread
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// One open connection's count in `connections_active`, given back on drop.
struct ActiveSlot<'a>(&'a AtomicU64);

impl Drop for ActiveSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Runs the server until the stop flag is set (SIGINT in the CLI, or an
/// accepted `shutdown` request), then drains open connections and
/// reports what it served.
///
/// # Errors
///
/// Propagates listener configuration failures; per-connection I/O
/// failures only close that connection.
pub fn run(
    session: &Session,
    listener: &NetListener,
    config: &NetConfig,
) -> std::io::Result<NetSummary> {
    run_with_handler(session, listener, config, &|request| session.handle(request))
}

/// [`run`] with the evaluation of each admitted request replaced by
/// `handler`: everything else — framing, admission, `stats` over
/// `session`'s caches — is unchanged. Tests use it to hold a request in
/// its slot for exactly as long as a scenario needs.
///
/// # Errors
///
/// As [`run`].
#[doc(hidden)]
pub fn run_with_handler(
    session: &Session,
    listener: &NetListener,
    config: &NetConfig,
    handler: Handler<'_>,
) -> std::io::Result<NetSummary> {
    listener.set_nonblocking()?;
    let workers = if config.workers == 0 {
        bitfusion_sim::pool::default_workers()
    } else {
        config.workers
    };
    let state = ServerState {
        session,
        handler,
        gate: Gate::new(workers, config.max_queue),
        histogram: LatencyHistogram::new(),
        config,
        connections_active: AtomicU64::new(0),
        connections_total: AtomicU64::new(0),
        received: AtomicU64::new(0),
        ok: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        shed: AtomicU64::new(0),
    };
    let state = &state;
    std::thread::scope(|scope| {
        // Connection threads are joined here, not by the scope: a scope
        // re-raises the panic of any thread it joins itself, and one
        // request that panicked must not take the server down at
        // shutdown. The panic already closed that connection and released
        // its slot, so its join result carries nothing to report.
        let mut connections: Vec<ScopedJoinHandle<'_, ()>> = Vec::new();
        let accepted = loop {
            if config.stop.load(Ordering::SeqCst) {
                break Ok(());
            }
            match listener.accept() {
                Ok(stream) => {
                    // Reap the finished threads, so the list holds only
                    // open connections.
                    for done in connections.extract_if(.., |c| c.is_finished()) {
                        drop(done.join());
                    }
                    connections.push(scope.spawn(move || state.serve_connection(stream)));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    std::thread::sleep(ACCEPT_INTERVAL);
                }
                Err(e) => break Err(e),
            }
        };
        // The drain.
        for connection in connections {
            drop(connection.join());
        }
        accepted
    })?;
    Ok(NetSummary {
        connections: state.connections_total.load(Ordering::Relaxed),
        responses: state
            .ok
            .load(Ordering::Relaxed)
            .saturating_add(state.errors.load(Ordering::Relaxed)),
        errors: state.errors.load(Ordering::Relaxed),
    })
}
