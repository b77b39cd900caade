//! The JSONL wire: one pipelined front end behind both `pristi serve` modes,
//! the request-mode line parser, and the one response renderer.
//!
//! # Front end
//!
//! Request mode ([`run_requests`]) and stream mode
//! ([`run_stream`](crate::run_stream)) run on the same loop:
//!
//! * the calling thread reads and numbers lines (1-based), skips blank ones,
//!   and turns each line into a *ticket*: either a finished error line
//!   (malformed input) or a receiver for an answer still being computed;
//! * tickets pass through a bounded channel of [`PIPELINE_DEPTH`] slots, so
//!   a flood blocks the reader (pipe backpressure) instead of growing
//!   memory; request mode also admits at most one unanswered request per
//!   service worker, so the front end never queues a request behind its own
//!   earlier lines, where the wait would count against its deadline;
//! * one writer thread waits on the tickets in input order and writes and
//!   flushes each answer as soon as it is ready, so an interactive client
//!   gets line `k`'s answer before it has to send line `k+1`.
//!
//! Every non-blank line gets exactly one answer, in input order. A line
//! longer than 32 bytes per cell of the model's window (`N×L` for a
//! request, `N` for a tick) plus 1 KiB gets one `bad_request` answer and is
//! skipped unbuffered. Only I/O failures end the loop early.
//!
//! # Request mode
//!
//! ```text
//! request:  {"id": 1, "values": [[1.0, null, ...], ...N rows of L cells...],
//!            "n_samples": 8, "sampler": "pndm:4", "tier": "best_effort"}
//! response: {"id": 1, "ok": true, "median": [[...]], "q05": [[...]], "q95": [[...]]}
//! failure:  {"id": 1, "ok": false, "error": {"kind": "shape_mismatch",
//!            "detail": "shape mismatch for ...", "line": 1}}
//! ```
//!
//! `null` cells are the values to impute; `n_samples` (a positive integer),
//! `sampler` (or its alias `ddim_steps: K`) and `tier` (`"interactive"` |
//! `"best_effort"`) are optional but strict. Failures in both modes share
//! the shape above: `kind` is [`pristi_core::PristiError::kind`], `bad_json`
//! / `bad_request`, or `non_finite_output` for an answer that would carry a
//! NaN or infinity (never rendered as `null`); `id` echoes the line's id
//! whenever it parsed.

use crate::service::{AdmissionTier, ImputeRequest, ImputeService};
use crate::stream::TickOutput;
use pristi_core::{ImputationResult, PristiError, Result, Sampler};
use st_data::dataset::Window;
use st_obs::json::{self, Json};
use st_tensor::NdArray;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::sync::mpsc;

/// Tickets the reader may run ahead of the writer; bounds the memory a
/// flood can pin. Request mode also admits at most one unanswered request
/// per service worker (see [`run_requests`]).
pub const PIPELINE_DEPTH: usize = 32;

/// The longest line accepted for a payload of `cells` cells: 32 bytes per
/// cell plus 1 KiB for ids, field names and options.
pub(crate) fn max_line_bytes(cells: usize) -> usize {
    1024 + 32 * cells
}

/// One input line's place in the output order.
pub(crate) enum Ticket<P> {
    /// An answer known at read time (malformed lines).
    Ready(String),
    /// A handle on an answer still being computed.
    Pending(P),
}

/// Run the front end: `ticket` turns each numbered non-blank line into a
/// [`Ticket`] on the calling thread; `answer` resolves each ticket to its
/// response line on the writer thread, in input order.
pub(crate) fn pipeline<R, W, P>(
    mut input: R,
    mut output: W,
    max_line: usize,
    mut ticket: impl FnMut(u64, &str) -> Ticket<P>,
    mut answer: impl FnMut(u64, Ticket<P>) -> String + Send,
) -> io::Result<()>
where
    R: BufRead,
    W: Write + Send,
    P: Send,
{
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel::<(u64, Ticket<P>)>(PIPELINE_DEPTH);
        let writer = scope.spawn(move || -> io::Result<()> {
            for (line_no, t) in rx {
                let line = answer(line_no, t);
                writeln!(output, "{line}")?;
                output.flush()?;
            }
            Ok(())
        });
        let mut buf = Vec::new();
        let mut line_no = 0u64;
        let read = loop {
            let fits = match read_line_capped(&mut input, &mut buf, max_line) {
                Ok(Some(fits)) => fits,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            };
            line_no += 1;
            let t = match (fits, std::str::from_utf8(&buf)) {
                (false, _) => {
                    let detail = format!("line exceeds the {max_line}-byte limit");
                    Ticket::Ready(error_line(None, "bad_request", &detail, line_no))
                }
                (true, Err(_)) => Ticket::Ready(error_line(None, "bad_json", "line is not UTF-8", line_no)),
                (true, Ok(line)) if line.trim().is_empty() => continue,
                (true, Ok(line)) => ticket(line_no, line),
            };
            // A closed channel means the writer failed; its error wins below.
            if tx.send((line_no, t)).is_err() {
                break Ok(());
            }
        };
        drop(tx);
        let written = writer.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        written.and(read)
    })
}

/// Read one line into `buf` without its `\n` (or `\r\n`). `Ok(None)` at end
/// of input; `Ok(Some(false))` when the line is longer than `cap` bytes, in
/// which case its remainder is consumed without being kept.
fn read_line_capped<R: BufRead>(input: &mut R, buf: &mut Vec<u8>, cap: usize) -> io::Result<Option<bool>> {
    buf.clear();
    let (mut fits, mut any) = (true, false);
    loop {
        let chunk = match input.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(any.then_some(fits));
        }
        any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if fits && buf.len() + take <= cap {
            buf.extend_from_slice(&chunk[..take]);
        } else if fits {
            fits = false;
            buf.clear();
        }
        input.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(Some(fits));
        }
    }
}

/// Drive request mode: JSONL requests in on `input`, one response per line
/// out on `output`, in input order. Requests without `n_samples` or a
/// sampler get `default_samples` / `default_sampler`.
///
/// Used by `pristi serve` (stdin/stdout) and driven in memory by the
/// front-end tests. Only I/O failures are `Err`; malformed lines and failed
/// requests become typed error lines (see the [module docs](self)).
pub fn run_requests<R: BufRead, W: Write + Send>(
    service: &ImputeService,
    default_samples: usize,
    default_sampler: Sampler,
    input: R,
    output: W,
) -> io::Result<()> {
    // One permit per request admitted and not yet answered, at most one per
    // worker: each admitted request finds a free worker, so no request
    // spends its deadline queued behind this client's own earlier lines.
    let (permit, returned) = mpsc::sync_channel::<()>(service.workers());
    pipeline(
        input,
        output,
        max_line_bytes(service.cells()),
        |line_no, line| match parse_request(line, default_samples, default_sampler) {
            Err((id, kind, detail)) => Ticket::Ready(error_line(id, kind, &detail, line_no)),
            Ok(req) => match permit.send(()) {
                Ok(()) => Ticket::Pending((req.id, service.enqueue(req))),
                // The writer has gone; its error ends the loop.
                Err(_) => Ticket::Ready(String::new()),
            },
        },
        move |line_no, t| match t {
            Ticket::Ready(line) => line,
            Ticket::Pending((id, admitted)) => {
                let outcome = admitted.and_then(|rx| rx.recv().unwrap_or(Err(PristiError::ServiceStopped)));
                let _ = returned.recv();
                request_answer(id, outcome, line_no)
            }
        },
    )
}

/// Parse failure for one wire line: `(id-if-known, kind, detail)`, shared
/// by both wire modes' line parsers.
pub type ParseFailure = (Option<u64>, &'static str, String);

/// Parse one JSONL request line into an [`ImputeRequest`] (grammar in the
/// [module docs](self)). Shape checks against the model are left to
/// [`ImputeService::enqueue`]. A failure carries the request id whenever it
/// parsed.
pub fn parse_request(
    line: &str,
    default_samples: usize,
    default_sampler: Sampler,
) -> std::result::Result<ImputeRequest, ParseFailure> {
    let req = json::parse(line).map_err(|e| (None, "bad_json", format!("bad JSON: {e}")))?;
    let id = req.get("id").and_then(Json::as_u64).ok_or_else(|| {
        (None, "bad_request", "request needs a numeric \"id\"".to_string())
    })?;
    parse_request_body(&req, id, default_samples, default_sampler)
        .map_err(|detail| (Some(id), "bad_request", detail))
}

fn parse_request_body(
    req: &Json,
    id: u64,
    default_samples: usize,
    default_sampler: Sampler,
) -> std::result::Result<ImputeRequest, String> {
    let rows = req
        .get("values")
        .and_then(Json::as_arr)
        .ok_or("request needs a \"values\" array of sensor rows")?;
    let n = rows.len();
    let l = rows
        .first()
        .and_then(|r| r.as_arr())
        .ok_or("\"values\" rows must be arrays")?
        .len();
    let mut values = NdArray::zeros(&[n, l]);
    let mut observed = NdArray::zeros(&[n, l]);
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_arr().ok_or("\"values\" rows must be arrays")?;
        if cells.len() != l {
            return Err(format!(
                "ragged \"values\": row 0 has {l} cells, row {i} has {}",
                cells.len()
            ));
        }
        for (li, cell) in cells.iter().enumerate() {
            if let Some(v) = parse_cell(cell).map_err(|e| format!("cell [{i}][{li}] {e}"))? {
                values.data_mut()[i * l + li] = v;
                observed.data_mut()[i * l + li] = 1.0;
            }
        }
    }
    let n_samples = match req.get("n_samples") {
        None => default_samples,
        Some(v) => match v.as_u64() {
            Some(k) if k >= 1 => k as usize,
            _ => return Err("\"n_samples\" must be a positive integer".into()),
        },
    };
    let sampler = match (req.get("sampler"), req.get("ddim_steps")) {
        (Some(_), Some(_)) => {
            return Err("\"sampler\" and \"ddim_steps\" are mutually exclusive".into())
        }
        (Some(spec), None) => {
            let spec = spec.as_str().ok_or("\"sampler\" must be a spec string")?;
            spec.parse::<Sampler>().map_err(|e| e.to_string())?
        }
        (None, Some(steps)) => {
            let steps = steps.as_u64().ok_or("\"ddim_steps\" must be a non-negative integer")?;
            Sampler::Ddim { steps: steps as usize, eta: 0.0 }
        }
        (None, None) => default_sampler,
    };
    let tier = match req.get("tier").map(|t| t.as_str()) {
        None => AdmissionTier::Interactive,
        Some(Some("interactive")) => AdmissionTier::Interactive,
        Some(Some("best_effort")) => AdmissionTier::BestEffort,
        Some(_) => {
            return Err("\"tier\" must be \"interactive\" or \"best_effort\"".into());
        }
    };
    Ok(ImputeRequest {
        id,
        window: Window { values, observed, eval: NdArray::zeros(&[n, l]), t_start: 0 },
        n_samples,
        sampler,
        tier,
        deadline: None,
    })
}

/// Parse one wire cell of the `null | number` grammar both wire modes share
/// (`pristi serve` request rows and `serve --stream` ticks): `null` is a
/// missing value, a number is an observation.
///
/// A number that is not finite once narrowed to `f32` (`1e39`, `-1e39`) is
/// refused rather than stored as ±inf; callers answer the returned detail
/// with a `bad_request` error line.
pub fn parse_cell(cell: &Json) -> std::result::Result<Option<f32>, &'static str> {
    match cell {
        Json::Null => Ok(None),
        other => {
            let v = other.as_f64().ok_or("must be a number or null")? as f32;
            if v.is_finite() {
                Ok(Some(v))
            } else {
                Err("is outside the finite f32 range")
            }
        }
    }
}

/// Detail of every `non_finite_output` error line.
const NON_FINITE_DETAIL: &str = "the imputation produced a non-finite value";

/// Append `v` as a JSON number; `None` for NaN or ±inf, which JSON cannot
/// carry and which must never pass for a missing (`null`) value.
fn push_num(out: &mut String, v: f32) -> Option<()> {
    v.is_finite().then(|| {
        let _ = write!(out, "{v}");
    })
}

/// Render a `[N, L]` array as nested JSON arrays (rows = sensors); `None`
/// if any value is non-finite.
fn grid_json(a: &NdArray) -> Option<String> {
    let (n, l) = (a.shape()[0], a.shape()[1]);
    let mut out = String::from("[");
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for li in 0..l {
            if li > 0 {
                out.push(',');
            }
            push_num(&mut out, a.data()[i * l + li])?;
        }
        out.push(']');
    }
    out.push(']');
    Some(out)
}

/// The answer line of one request.
fn request_answer(id: u64, outcome: Result<ImputationResult>, line_no: u64) -> String {
    let res = match outcome {
        Ok(res) => res,
        Err(e) => return error_line(Some(id), e.kind(), &e.to_string(), line_no),
    };
    let grids = (|| {
        Some((grid_json(&res.median())?, grid_json(&res.quantile(0.05))?, grid_json(&res.quantile(0.95))?))
    })();
    match grids {
        Some((median, q05, q95)) => {
            format!("{{\"id\":{id},\"ok\":true,\"median\":{median},\"q05\":{q05},\"q95\":{q95}}}")
        }
        None => error_line(Some(id), "non_finite_output", NON_FINITE_DETAIL, line_no),
    }
}

/// Render one stream tick's `ok:true` line; `None` if any revised quantile
/// is non-finite.
fn ok_line(id: u64, session: u64, out: &TickOutput) -> Option<String> {
    let mut revs = String::from("[");
    for (i, r) in out.revisions.iter().enumerate() {
        if i > 0 {
            revs.push(',');
        }
        let _ = write!(revs, "{{\"node\":{},\"step\":{},\"q05\":", r.node, r.step);
        push_num(&mut revs, r.q05)?;
        revs.push_str(",\"q50\":");
        push_num(&mut revs, r.q50)?;
        revs.push_str(",\"q95\":");
        push_num(&mut revs, r.q95)?;
        revs.push('}');
    }
    revs.push(']');
    Some(format!(
        "{{\"id\":{id},\"ok\":true,\"session\":{session},\"step\":{},\"watermark\":{},\
         \"imputed\":{},\"revisions\":{revs}}}",
        out.step, out.watermark, out.imputed
    ))
}

/// The answer line of one stream tick, with whether it imputed (`None` for
/// an error line).
pub(crate) fn tick_answer(
    id: u64,
    session: u64,
    outcome: Result<TickOutput>,
    line_no: u64,
) -> (Option<bool>, String) {
    match outcome {
        Ok(out) => match ok_line(id, session, &out) {
            Some(line) => (Some(out.imputed), line),
            None => (None, error_line(Some(id), "non_finite_output", NON_FINITE_DETAIL, line_no)),
        },
        Err(e) => (None, error_line(Some(id), e.kind(), &e.to_string(), line_no)),
    }
}

/// Render one typed error response line:
/// `{"id":..,"ok":false,"error":{kind,detail,line}}`.
pub(crate) fn error_line(id: Option<u64>, kind: &str, detail: &str, line_no: u64) -> String {
    let id = id.map_or_else(|| "null".to_string(), |v| v.to_string());
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":{},\"detail\":{},\"line\":{line_no}}}}}",
        json::escape(kind),
        json::escape(detail)
    )
}

/// The message of a caught panic, for a typed `worker_panicked` error.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic with non-string payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Revision;

    fn cell(text: &str) -> std::result::Result<Option<f32>, &'static str> {
        parse_cell(&json::parse(text).unwrap())
    }

    #[test]
    fn cells_overflowing_f32_are_rejected_in_both_signs() {
        for text in ["1e39", "-1e39", "1e400"] {
            assert_eq!(cell(text), Err("is outside the finite f32 range"), "{text}");
        }
        assert_eq!(cell("\"x\""), Err("must be a number or null"));
    }

    #[test]
    fn ordinary_cells_and_null_are_unchanged() {
        assert_eq!(cell("null"), Ok(None));
        for (text, v) in [("0", 0.0f32), ("-2.5", -2.5), ("17.25", 17.25), ("3e38", 3e38)] {
            assert_eq!(cell(text), Ok(Some(v)), "{text}");
        }
    }

    fn request(extra: &str) -> std::result::Result<ImputeRequest, ParseFailure> {
        parse_request(&format!("{{\"id\":7,\"values\":[[1.0,null]]{extra}}}"), 8, Sampler::Ddpm)
    }

    #[test]
    fn present_n_samples_must_be_a_positive_integer() {
        for bad in ["2.5", "\"2\"", "-1", "0", "null", "true"] {
            let (id, kind, detail) = request(&format!(",\"n_samples\":{bad}")).unwrap_err();
            assert_eq!((id, kind), (Some(7), "bad_request"), "n_samples {bad}");
            assert!(detail.contains("n_samples"), "{detail}");
        }
        assert_eq!(request(",\"n_samples\":3").unwrap().n_samples, 3);
        assert_eq!(request("").unwrap().n_samples, 8, "absent field takes the default");
    }

    #[test]
    fn present_tier_must_be_a_known_name() {
        for bad in ["5", "\"urgent\"", "null", "[\"interactive\"]"] {
            let (id, kind, detail) = request(&format!(",\"tier\":{bad}")).unwrap_err();
            assert_eq!((id, kind), (Some(7), "bad_request"), "tier {bad}");
            assert!(detail.contains("tier"), "{detail}");
        }
        assert_eq!(request("").unwrap().tier, AdmissionTier::Interactive);
        assert_eq!(request(",\"tier\":\"interactive\"").unwrap().tier, AdmissionTier::Interactive);
        assert_eq!(request(",\"tier\":\"best_effort\"").unwrap().tier, AdmissionTier::BestEffort);
    }

    #[test]
    fn finite_grid_renders_unchanged() {
        let a = NdArray::from_vec(&[2, 3], vec![1.5, -2.0, 0.25, 17.0, 0.0, -0.125]);
        assert_eq!(grid_json(&a).unwrap(), "[[1.5,-2,0.25],[17,0,-0.125]]");
        let res = ImputationResult::new(vec![a], NdArray::zeros(&[2, 3]));
        let grid = "[[1.5,-2,0.25],[17,0,-0.125]]";
        assert_eq!(
            request_answer(4, Ok(res), 1),
            format!("{{\"id\":4,\"ok\":true,\"median\":{grid},\"q05\":{grid},\"q95\":{grid}}}")
        );
    }

    #[test]
    fn non_finite_output_is_a_typed_error_not_null() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let a = NdArray::from_vec(&[2, 2], vec![1.0, bad, 3.0, 4.0]);
            assert_eq!(grid_json(&a), None);
            let res = ImputationResult::new(vec![a], NdArray::zeros(&[2, 2]));
            let line = request_answer(4, Ok(res), 9);
            assert!(
                line.starts_with("{\"id\":4,\"ok\":false,\"error\":{\"kind\":\"non_finite_output\""),
                "{line}"
            );
            assert!(line.ends_with("\"line\":9}}") && !line.contains("null"), "{line}");

            let rev = Revision { node: 1, step: 5, q05: 0.5, q50: bad, q95: 2.0 };
            let out = TickOutput { step: 5, watermark: 2, imputed: true, revisions: vec![rev] };
            let (imputed, line) = tick_answer(3, 0, Ok(out), 2);
            assert_eq!(imputed, None);
            assert!(line.contains("\"kind\":\"non_finite_output\""), "{line}");
        }
    }

    #[test]
    fn finite_tick_renders_unchanged() {
        let rev = Revision { node: 1, step: 5, q05: 0.5, q50: 1.25, q95: 2.0 };
        let out = TickOutput { step: 5, watermark: 2, imputed: true, revisions: vec![rev] };
        assert_eq!(
            tick_answer(3, 1, Ok(out), 2),
            (
                Some(true),
                "{\"id\":3,\"ok\":true,\"session\":1,\"step\":5,\"watermark\":2,\"imputed\":true,\
                 \"revisions\":[{\"node\":1,\"step\":5,\"q05\":0.5,\"q50\":1.25,\"q95\":2}]}"
                    .to_string()
            )
        );
    }

    /// Run the front end over `input`, answering each line with its text.
    fn echo(input: &[u8], cap: usize) -> String {
        let mut out = Vec::new();
        pipeline(input, &mut out, cap, |_, line| Ticket::Pending(line.to_string()), |_, t| match t {
            Ticket::Ready(line) | Ticket::Pending(line) => line,
        })
        .unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn over_long_line_gets_one_error_and_the_next_line_is_answered() {
        let long = "x".repeat(100);
        let input = format!("ab\n{long}\n\n  \ncd\r\nef");
        let out = echo(input.as_bytes(), 10);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert_eq!(lines[0], "ab");
        assert!(lines[1].starts_with("{\"id\":null,\"ok\":false,\"error\":{\"kind\":\"bad_request\""));
        assert!(lines[1].ends_with("\"line\":2}}"), "{}", lines[1]);
        assert_eq!(&lines[2..], ["cd", "ef"], "blank lines are skipped, \\r\\n is stripped");
        // A line of exactly the cap fits.
        assert_eq!(echo(b"0123456789\n", 10), "0123456789\n");
    }

    #[test]
    fn non_utf8_line_is_a_typed_error() {
        let out = echo(b"ok\n\xff\xfe\nok2\n", 64);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok");
        assert!(lines[1].contains("\"kind\":\"bad_json\"") && lines[1].contains("\"line\":2"));
        assert_eq!(lines[2], "ok2");
    }
}
