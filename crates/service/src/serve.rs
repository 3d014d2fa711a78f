//! The long-running JSON-lines loop behind `bitfusion-cli serve`, and the
//! line framing it shares with the network server ([`crate::net`]).
//!
//! Framing (`read_request`, the one reader both transports use): one
//! request per input line, one response per output line, in the same
//! order. A line is read up to [`MAX_LINE_BYTES`] (one byte past the cap
//! tells it is too long); a longer line is answered with an error in its
//! slot and input ends there, since the rest of it is never read. A line
//! that is not UTF-8 or does not parse is answered with an error in its
//! slot and reading goes on, so a scripted client can correlate
//! responses to requests positionally. Blank lines are skipped, and
//! surrounding whitespace is trimmed. A parsed request gets
//! [`clamp_nested_workers`].
//!
//! Requests are dispatched concurrently across the sim crate's worker
//! pool ([`for_each_ordered`]) — an expensive `dse` does not
//! block a cheap `report` from *computing*, while the reorder buffer
//! keeps *output* strictly in request order. Combined with the session's
//! determinism contract, each output line is byte-identical to what the
//! corresponding one-shot `--json` invocation prints.

use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use bitfusion_sim::pool::for_each_ordered;

use crate::protocol::{Request, Response};
use crate::session::Session;

/// The longest request line either transport accepts, its newline
/// included. The largest zoo model document (ResNet-18) is about 4 KB; a
/// longer line is answered with an error and input ends there (the
/// network server closes the connection), so no client can make a server
/// buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Clamps a nested `dse` request's "all cores" default to sequential.
///
/// Both the stdin serve pool and the network server's connection threads
/// already use the cores; a `dse` defaulting to `workers = 0` (all cores)
/// on top would oversubscribe by up to cores². Results are
/// worker-count-independent (the engine's determinism contract), so the
/// clamp never changes response bytes. An explicit worker count is
/// honoured as given.
pub fn clamp_nested_workers(request: &mut Request) {
    if let Request::Dse(p) = request {
        if p.workers == 0 {
            p.workers = 1;
        }
    }
}

/// One request line, framed by [`read_request`].
#[derive(Debug)]
pub(crate) struct Framed {
    /// The parsed request (nested-`dse` workers clamped), or the message
    /// of the error reply that answers the line in its slot.
    pub(crate) request: Result<Request, String>,
    /// The line exceeded [`MAX_LINE_BYTES`]: its rest is never read, so
    /// input ends after this reply.
    pub(crate) last: bool,
}

/// Reads and frames the next non-blank request line from `reader` (the
/// rules are in the [module docs](self)); `Ok(None)` at end of input.
///
/// `line` carries a partial line between calls: a read that fails
/// mid-line (the network server's poll timeout) leaves the bytes read so
/// far in it, and the next call appends the rest.
///
/// # Errors
///
/// Propagates read failures, timeouts included.
pub(crate) fn read_request(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<Framed>> {
    loop {
        let budget = (MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
        if (&mut *reader).take(budget).read_until(b'\n', line)? == 0 && line.is_empty() {
            return Ok(None);
        }
        let last = line.len() > MAX_LINE_BYTES;
        let request = if last {
            Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(line).map(str::trim) {
                Err(_) => Err("request line is not UTF-8".to_string()),
                Ok("") => {
                    line.clear();
                    continue;
                }
                Ok(text) => Request::parse(text).map(|mut request| {
                    clamp_nested_workers(&mut request);
                    request
                }),
            }
        };
        line.clear();
        return Ok(Some(Framed { request, last }));
    }
}

/// What one [`serve`] run processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Lines answered (including error responses).
    pub responses: u64,
    /// Responses that were `{"reply":"error",...}`.
    pub errors: u64,
}

/// Runs the JSON-lines loop: reads requests from `input` until EOF (or
/// an over-long line), writes one response line each to `output`
/// (flushed per line, so a piped client sees answers as they are ready),
/// dispatching across `workers` threads (`0` = all cores).
///
/// # Errors
///
/// Propagates I/O failures from the reader or writer.
pub fn serve<R: BufRead + Send, W: Write>(
    session: &Session,
    mut input: R,
    mut output: W,
    workers: usize,
) -> std::io::Result<ServeSummary> {
    let workers = if workers == 0 {
        bitfusion_sim::pool::default_workers()
    } else {
        workers
    };
    let mut summary = ServeSummary::default();
    let mut io_error: Option<std::io::Error> = None;
    // Once the writer fails (e.g. the client hung up — EPIPE), there is
    // nobody left to answer: workers stop evaluating and just drain.
    let output_dead = AtomicBool::new(false);
    let mut line = Vec::new();
    let mut done = false;
    let requests = std::iter::from_fn(|| {
        if done {
            return None;
        }
        let next = read_request(&mut input, &mut line).transpose()?;
        done = next.as_ref().map_or(true, |framed| framed.last);
        Some(next.map(|framed| framed.request))
    });
    for_each_ordered(
        requests,
        workers,
        |_, request| match request {
            Err(e) => Err(e),
            Ok(_) if output_dead.load(Ordering::Relaxed) => Ok(Response::Error {
                message: "output closed".to_string(),
            }),
            Ok(Ok(request)) => Ok(session.handle(&request)),
            Ok(Err(message)) => Ok(Response::Error { message }),
        },
        |_, outcome| {
            if io_error.is_some() {
                return; // already failed; drain remaining results
            }
            match outcome {
                Err(e) => {
                    output_dead.store(true, Ordering::Relaxed);
                    io_error = Some(e);
                }
                Ok(response) => {
                    summary.responses += 1;
                    if matches!(response, Response::Error { .. }) {
                        summary.errors += 1;
                    }
                    let line = response.encode();
                    if let Err(e) = writeln!(output, "{line}").and_then(|()| output.flush()) {
                        output_dead.store(true, Ordering::Relaxed);
                        io_error = Some(e);
                    }
                }
            }
        },
    );
    match io_error {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_script(script: impl AsRef<[u8]>, workers: usize) -> (Vec<String>, ServeSummary) {
        let session = Session::new();
        let mut out = Vec::new();
        let summary = serve(&session, Cursor::new(script.as_ref()), &mut out, workers).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), summary)
    }

    #[test]
    fn one_response_line_per_request_line_in_order() {
        let script = "\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":1}\n\
\n\
{\"cmd\":\"list\"}\n\
{\"cmd\":\"report\",\"benchmark\":\"lstm\",\"batch\":1}\n";
        for workers in [1, 4] {
            let (lines, summary) = run_script(script, workers);
            assert_eq!(lines.len(), 3, "{workers} workers (blank line skipped)");
            assert_eq!(summary.responses, 3);
            assert_eq!(summary.errors, 0);
            assert!(lines[0].contains("\"benchmark\":\"RNN\""), "{}", lines[0]);
            assert!(lines[1].starts_with("{\"reply\":\"list\""));
            assert!(lines[2].contains("\"benchmark\":\"LSTM\""));
            for l in &lines {
                Response::parse(l).expect("every output line parses");
            }
        }
    }

    #[test]
    fn malformed_lines_answer_errors_without_killing_the_loop() {
        let script = "not json\n{\"cmd\":\"list\"}\n{\"cmd\":\"nope\"}\n";
        let (lines, summary) = run_script(script, 2);
        assert_eq!(lines.len(), 3);
        assert_eq!(summary.errors, 2);
        assert!(lines[0].starts_with("{\"reply\":\"error\""));
        assert!(lines[1].starts_with("{\"reply\":\"list\""));
        assert!(lines[2].contains("nope"));
        // A non-UTF-8 line gets the network server's error in its slot,
        // and the loop serves the next line.
        let (lines, summary) = run_script(b"{\"cmd\":\"list\"}\n\xff\xfe\n{\"cmd\":\"list\"}\n", 2);
        assert_eq!(lines.len(), 3);
        assert_eq!(summary.errors, 1);
        assert!(lines[0].starts_with("{\"reply\":\"list\""));
        assert_eq!(
            lines[1],
            r#"{"reply":"error","message":"request line is not UTF-8"}"#
        );
        assert_eq!(lines[2], lines[0]);
    }

    #[test]
    fn an_overlong_line_answers_an_error_and_ends_input() {
        let mut script = b"{\"cmd\":\"list\"}\n".to_vec();
        script.resize(script.len() + 2 * MAX_LINE_BYTES, b'x');
        script.extend_from_slice(b"\n{\"cmd\":\"list\"}\n");
        let (lines, summary) = run_script(script, 2);
        assert_eq!(lines.len(), 2, "nothing after the over-long line is read");
        assert_eq!((summary.responses, summary.errors), (2, 1));
        assert!(lines[0].starts_with("{\"reply\":\"list\""));
        assert_eq!(
            lines[1],
            format!(
                r#"{{"reply":"error","message":"request line exceeds {MAX_LINE_BYTES} bytes"}}"#
            )
        );
    }

    #[test]
    fn concurrent_and_sequential_outputs_are_byte_identical() {
        // A mixed script where the expensive request comes first: the
        // reorder buffer must still emit it first.
        let script = "\
{\"cmd\":\"sweep\",\"benchmark\":\"lstm\",\"axis\":\"batch\"}\n\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":1}\n\
{\"cmd\":\"compare\",\"benchmark\":\"rnn\",\"batch\":1}\n\
{\"cmd\":\"asm\",\"benchmark\":\"rnn\",\"batch\":1}\n";
        let (sequential, _) = run_script(script, 1);
        let (parallel, _) = run_script(script, 4);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn a_dead_output_stops_evaluation() {
        struct DeadWriter;
        impl std::io::Write for DeadWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let session = Session::new();
        let script = "\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":1}\n\
{\"cmd\":\"report\",\"benchmark\":\"lstm\",\"batch\":1}\n\
{\"cmd\":\"report\",\"benchmark\":\"vgg-7\",\"batch\":1}\n";
        let err = serve(&session, Cursor::new(script), DeadWriter, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // Only the first request (whose response hit the dead pipe) was
        // evaluated; the rest were skipped, not simulated.
        assert_eq!(session.cache_stats().misses, 1);
    }

    #[test]
    fn serve_output_matches_fresh_one_shot_sessions() {
        // Each line must be byte-identical to handling the request on a
        // fresh session (what a one-shot CLI invocation does), even though
        // the serving session's cache warms up across the script.
        let script = "\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":16}\n\
{\"cmd\":\"sweep\",\"benchmark\":\"rnn\",\"axis\":\"bandwidth\"}\n\
{\"cmd\":\"report\",\"benchmark\":\"rnn\",\"batch\":16}\n\
{\"cmd\":\"dse\",\"rows\":[16,32],\"cols\":[16],\"bandwidth\":[64,128],\"networks\":[\"rnn\"],\"workers\":1}\n";
        let (lines, _) = run_script(script, 2);
        for (i, text) in script.lines().enumerate() {
            let fresh = Session::new();
            let expect = fresh.handle(&Request::parse(text).unwrap()).encode();
            assert_eq!(lines[i], expect, "line {i}");
        }
    }
}
