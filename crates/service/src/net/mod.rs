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
//! admin; TCP clients get an error), or [`Stop::request`] on the
//! config's stop handle. Nothing polls. The accept thread blocks in
//! `accept`, and a stop wakes it with one connection to the listener's
//! own address (the CLI's SIGINT handler shuts the listener down
//! instead). The accept thread then shuts down the read half of every
//! open connection: each connection thread finishes its current
//! request, reads EOF and closes, and `run` returns after the drain.

pub mod histogram;

use std::io::{BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use bitfusion_sim::pool::{Admission, Gate};

use crate::protocol::{CacheTierInfo, LatencyInfo, Request, Response, StatsReply};
use crate::serve::read_request;
use crate::session::Session;
use histogram::LatencyHistogram;

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
    /// (`None` = never). It is the connection's read timeout, so any read
    /// that returns bytes, a partial line included, restarts it.
    pub idle_timeout: Option<Duration>,
    /// Honour the `shutdown` request (the CLI enables this for unix
    /// sockets only — a remote TCP client must not stop the server).
    pub allow_shutdown: bool,
    /// Stops the server: keep a clone and call [`Stop::request`], and
    /// the server wakes, drains and returns.
    pub stop: Stop,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 0,
            max_queue: 64,
            idle_timeout: Some(Duration::from_secs(300)),
            allow_shutdown: false,
            stop: Stop::default(),
        }
    }
}

/// The handle that stops a running server, shared by its clones. One
/// handle serves one [`run`] at a time.
#[derive(Debug, Clone, Default)]
pub struct Stop(Arc<StopState>);

#[derive(Debug, Default)]
struct StopState {
    requested: AtomicBool,
    /// Where the running server accepts, recorded by [`run`] when it
    /// starts and cleared when it returns.
    wake: Mutex<Option<WakeAddr>>,
}

/// A listener's own address, for the connection that wakes its `accept`.
#[derive(Debug)]
enum WakeAddr {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(std::os::unix::net::SocketAddr),
}

impl Stop {
    /// Stops the server: sets the flag, then wakes the blocked `accept`
    /// with one connection to the listener's own address. Before `run`
    /// starts, it only sets the flag, and `run` then returns at once.
    /// Only the first call wakes the server.
    pub fn request(&self) {
        if self.0.requested.swap(true, Ordering::SeqCst) {
            return;
        }
        // The connection only wakes `accept`, which drops it uncounted.
        match &*self.wake() {
            Some(WakeAddr::Tcp(addr)) => drop(TcpStream::connect(addr)),
            #[cfg(unix)]
            Some(WakeAddr::Unix(addr)) => drop(UnixStream::connect_addr(addr)),
            None => {}
        }
    }

    /// Sets the flag without waking the server: one atomic store, so a
    /// signal handler may call it. The caller must wake a blocked
    /// `accept` itself, as the CLI's SIGINT handler does by shutting the
    /// listener down; [`Stop::request`] then does nothing more.
    pub fn request_without_wake(&self) {
        self.0.requested.store(true, Ordering::SeqCst);
    }

    /// Whether a stop was requested.
    pub fn is_requested(&self) -> bool {
        self.0.requested.load(Ordering::SeqCst)
    }

    /// Records (or, with `None`, forgets) the address `request` wakes.
    /// `run` checks the flag only after recording it, so a request that
    /// found no address has set the flag before `run`'s first check.
    fn set_wake(&self, addr: Option<WakeAddr>) {
        *self.wake() = addr;
    }

    fn wake(&self) -> MutexGuard<'_, Option<WakeAddr>> {
        self.0.wake.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// The address a connection to this listener reaches: its own, with
    /// an unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
    fn wake_addr(&self) -> std::io::Result<WakeAddr> {
        match self {
            NetListener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(if addr.is_ipv4() {
                        Ipv4Addr::LOCALHOST.into()
                    } else {
                        Ipv6Addr::LOCALHOST.into()
                    });
                }
                Ok(WakeAddr::Tcp(addr))
            }
            #[cfg(unix)]
            NetListener::Unix(l) => Ok(WakeAddr::Unix(l.local_addr()?)),
        }
    }

    fn accept(&self) -> std::io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => Ok(NetStream::Tcp(l.accept()?.0)),
            #[cfg(unix)]
            NetListener::Unix(l) => Ok(NetStream::Unix(l.accept()?.0)),
        }
    }
}

/// The listening socket's descriptor, for a signal handler that shuts it
/// down to wake a blocked `accept`.
#[cfg(unix)]
impl AsRawFd for NetListener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            NetListener::Tcp(l) => l.as_raw_fd(),
            NetListener::Unix(l) => l.as_raw_fd(),
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

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            NetStream::Unix(s) => s.shutdown(how),
        }
    }
}

impl Read for &NetStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => (&*s).read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => (&*s).read(buf),
        }
    }
}

impl Write for &NetStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            NetStream::Tcp(s) => (&*s).write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => (&*s).write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            NetStream::Tcp(s) => (&*s).flush(),
            #[cfg(unix)]
            NetStream::Unix(s) => (&*s).flush(),
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
                    self.config.stop.request();
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
        // Hangs up on return and on unwind alike: the accept thread's
        // clone keeps the socket open until it reaps this thread, and the
        // client must see EOF now.
        let _hangup = Hangup(&stream);
        // A vanished peer is normal (client ctrl-c'd); nothing to report.
        drop(self.connection_loop(&stream));
    }

    fn connection_loop(&self, stream: &NetStream) -> std::io::Result<()> {
        stream.set_read_timeout(self.config.idle_timeout)?;
        let mut writer = stream;
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        loop {
            match read_request(&mut reader, &mut line) {
                // The client closed, or the drain shut the read half.
                Ok(None) => return Ok(()),
                // Draining: a line framed after the stop is not answered.
                Ok(Some(_)) if self.config.stop.is_requested() => return Ok(()),
                Ok(Some(framed)) => {
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
                    return Ok(()); // idle: reclaim the thread
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

/// Shuts both halves of a connection down on drop.
struct Hangup<'a>(&'a NetStream);

impl Drop for Hangup<'_> {
    fn drop(&mut self) {
        // The peer may be gone already; there is nothing left to close.
        drop(self.0.shutdown(Shutdown::Both));
    }
}

fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Runs the server until a stop is requested ([`Stop::request`], SIGINT
/// in the CLI, or an accepted `shutdown` request), then drains open
/// connections and reports what it served.
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
    let stop = &config.stop;
    stop.set_wake(Some(listener.wake_addr()?));
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
    let accepted = std::thread::scope(|scope| {
        // Connection threads are joined here, not by the scope: a scope
        // re-raises the panic of any thread it joins itself, and one
        // request that panicked must not take the server down at
        // shutdown. The panic already closed that connection and released
        // its slot, so its join result carries nothing to report. Each
        // thread is kept with a clone of its stream, whose read half the
        // drain shuts down.
        let mut connections: Vec<(ScopedJoinHandle<'_, ()>, NetStream)> = Vec::new();
        let accepted = loop {
            if stop.is_requested() {
                break Ok(());
            }
            match listener.accept() {
                // The wake-up connection of `Stop::request`, or a client
                // that raced it: dropped, uncounted.
                Ok(_) if stop.is_requested() => break Ok(()),
                Ok(stream) => {
                    // Reap the finished threads, so the list holds only
                    // open connections.
                    for (done, _) in connections.extract_if(.., |(c, _)| c.is_finished()) {
                        drop(done.join());
                    }
                    // Without a clone the drain could not wake this
                    // connection: close it unserved.
                    if let Ok(clone) = stream.try_clone() {
                        let thread = scope.spawn(move || state.serve_connection(stream));
                        connections.push((thread, clone));
                    }
                }
                // A stop that shut the listener down (the CLI's SIGINT).
                Err(_) if stop.is_requested() => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        // The drain: a blocked read returns EOF, a connection mid-request
        // finishes its reply first.
        for (_, stream) in &connections {
            drop(stream.shutdown(Shutdown::Read));
        }
        for (connection, _) in connections {
            drop(connection.join());
        }
        accepted
    });
    stop.set_wake(None);
    accepted?;
    Ok(NetSummary {
        connections: state.connections_total.load(Ordering::Relaxed),
        responses: state
            .ok
            .load(Ordering::Relaxed)
            .saturating_add(state.errors.load(Ordering::Relaxed)),
        errors: state.errors.load(Ordering::Relaxed),
    })
}
