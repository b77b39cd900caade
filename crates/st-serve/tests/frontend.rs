//! The pipelined JSONL front end, driven in memory in both wire modes
//! ([`st_serve::run_requests`] and [`st_serve::run_stream`]):
//!
//! * an interactive client that waits for answer `k` before sending line
//!   `k+1` is served line by line (no answer waits for end of input);
//! * a flood against a blocked writer pulls at most [`PIPELINE_DEPTH`] plus
//!   a small constant of lines, and once released every line gets exactly
//!   one answer, in input order, malformed lines included;
//! * a failing output ends the loop with `Err` instead of hanging;
//! * a piped request file longer than the deadline allows is answered in
//!   full: the front end never queues a request behind its own earlier
//!   lines, so no deadline runs out while a request waits its turn.

use pristi_core::train::{train, TrainConfig};
use pristi_core::{PristiConfig, Sampler, TrainedModel};
use st_data::generators::{generate_air_quality, AirQualityConfig};
use st_data::missing::inject_point_missing;
use st_data::SpatioTemporalDataset;
use st_obs::json::{self, Json};
use st_serve::{
    run_requests, run_stream, ImputeService, ServeConfig, StreamConfig, StreamServerConfig,
    PIPELINE_DEPTH,
};
use std::io::{self, BufReader, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const N: usize = 8;
const L: usize = 12;
/// Upper bound on any single wait in this suite; reaching it is a failure.
const PATIENCE: Duration = Duration::from_secs(120);

fn tiny_cfg() -> PristiConfig {
    let mut c = PristiConfig::small();
    c.d_model = 8;
    c.heads = 2;
    c.layers = 1;
    c.t_steps = 8;
    c.time_emb_dim = 8;
    c.node_emb_dim = 4;
    c.step_emb_dim = 8;
    c.virtual_nodes = 4;
    c.adaptive_dim = 2;
    c
}

fn trained_setup() -> (SpatioTemporalDataset, TrainedModel) {
    let mut data = generate_air_quality(&AirQualityConfig {
        n_nodes: N,
        n_days: 4,
        seed: 171,
        episodes_per_week: 0.0,
        ..Default::default()
    });
    data.eval_mask = inject_point_missing(&data.observed_mask, 0.2, 172);
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 4,
        window_len: L,
        window_stride: L,
        seed: 173,
        ..Default::default()
    };
    let trained = train(&data, tiny_cfg(), &tc).unwrap();
    (data, trained)
}

/// Which wire mode a test drives.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Requests,
    Stream,
}

const MODES: [Mode; 2] = [Mode::Requests, Mode::Stream];

/// `count` input lines for `mode`; every line whose 1-based number is a
/// multiple of `bad_every` is malformed (not JSON).
fn lines(mode: Mode, data: &SpatioTemporalDataset, count: usize, bad_every: usize) -> Vec<String> {
    (1..=count)
        .map(|k| {
            if k.is_multiple_of(bad_every) {
                return format!("not json {k}");
            }
            match mode {
                Mode::Requests => {
                    let w = data.window_at((k % 4) * L, L);
                    let rows: Vec<String> = (0..N)
                        .map(|i| {
                            let cells: Vec<String> = (0..L)
                                .map(|t| {
                                    let idx = i * L + t;
                                    if (i + t + k) % 5 == 0 {
                                        "null".into()
                                    } else {
                                        format!("{}", w.values.data()[idx])
                                    }
                                })
                                .collect();
                            format!("[{}]", cells.join(","))
                        })
                        .collect();
                    format!(
                        "{{\"id\":{k},\"values\":[{}],\"n_samples\":1,\"sampler\":\"ddim:2\"}}",
                        rows.join(",")
                    )
                }
                Mode::Stream => {
                    let cells: Vec<String> = (0..N)
                        .map(|i| if (i + k) % 3 == 0 { "null".into() } else { format!("{}.5", i + k) })
                        .collect();
                    format!("{{\"id\":{k},\"session\":{},\"tick\":[{}]}}", k % 2, cells.join(","))
                }
            }
        })
        .collect()
}

/// Run `mode`'s front end over `input` / `output` on a fresh model.
fn drive<R, W>(mode: Mode, trained: TrainedModel, input: R, output: W) -> io::Result<()>
where
    R: io::BufRead,
    W: Write + Send,
{
    match mode {
        Mode::Requests => {
            let service = ImputeService::start(trained, ServeConfig::default()).unwrap();
            run_requests(&service, 1, Sampler::Ddim { steps: 2, eta: 0.0 }, input, output)
        }
        Mode::Stream => {
            let cfg = StreamServerConfig {
                session: StreamConfig { n_samples: 1, horizon: 3, ..Default::default() },
                workers: 2,
            };
            run_stream(Arc::new(trained), &cfg, input, output).map(|_| ())
        }
    }
}

/// Check `out` answers `count` lines in order: line `k` echoes id `k`, and
/// is a `bad_json` error exactly when `k` is a multiple of `bad_every`.
fn check_answers(mode: Mode, out: &str, count: usize, bad_every: usize) {
    let answers: Vec<&str> = out.lines().collect();
    assert_eq!(answers.len(), count, "{mode:?}: one answer per line");
    for (i, line) in answers.iter().enumerate() {
        let k = i as u64 + 1;
        let v = json::parse(line).unwrap_or_else(|e| panic!("{mode:?}: answer {k} is not JSON: {e}"));
        let ok = v.get("ok") == Some(&Json::Bool(true));
        if (k as usize).is_multiple_of(bad_every) {
            assert!(!ok && line.contains("\"kind\":\"bad_json\""), "{mode:?} line {k}: {line}");
            assert!(line.ends_with(&format!("\"line\":{k}}}}}")), "{mode:?} line {k}: {line}");
        } else {
            assert!(ok, "{mode:?} line {k} must be served: {line}");
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(k), "{mode:?}: answers out of order");
        }
    }
}

/// Output lines written so far, shared between a writer and the test.
#[derive(Clone, Default)]
struct Answers(Arc<(Mutex<Vec<u8>>, Condvar)>);

impl Answers {
    fn count(&self) -> usize {
        self.0 .0.lock().unwrap().iter().filter(|&&b| b == b'\n').count()
    }

    /// Block until at least `n` answers were written; false on timeout.
    fn wait_for(&self, n: usize) -> bool {
        let (lock, cv) = &*self.0;
        let guard = lock.lock().unwrap();
        let (_guard, res) = cv
            .wait_timeout_while(guard, PATIENCE, |buf| buf.iter().filter(|&&b| b == b'\n').count() < n)
            .unwrap();
        !res.timed_out()
    }

    fn text(&self) -> String {
        String::from_utf8(self.0 .0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for Answers {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 .0.lock().unwrap().extend_from_slice(buf);
        self.0 .1.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Yields one line per `read`, optionally waiting before line `k+1` until
/// `k` answers were written, and counting the lines pulled.
struct Source {
    lines: Vec<Vec<u8>>,
    next: usize,
    pulled: Arc<AtomicUsize>,
    pause_on: Option<Answers>,
}

impl Source {
    fn new(lines: &[String], pause_on: Option<Answers>) -> Self {
        Self {
            lines: lines.iter().map(|l| format!("{l}\n").into_bytes()).collect(),
            next: 0,
            pulled: Arc::new(AtomicUsize::new(0)),
            pause_on,
        }
    }
}

impl Read for Source {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(line) = self.lines.get(self.next) else { return Ok(0) };
        if let Some(answers) = &self.pause_on {
            if !answers.wait_for(self.next) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("answer {} never arrived before line {} was due", self.next, self.next + 1),
                ));
            }
        }
        assert!(line.len() <= buf.len(), "test lines fit one read");
        buf[..line.len()].copy_from_slice(line);
        self.next += 1;
        self.pulled.fetch_add(1, Ordering::SeqCst);
        Ok(line.len())
    }
}

#[test]
fn paused_client_gets_each_answer_before_sending_the_next_line() {
    let (data, trained) = trained_setup();
    let ckpt = st_serve::checkpoint_to_bytes(&trained);
    for mode in MODES {
        let input = lines(mode, &data, 8, 5);
        let answers = Answers::default();
        let source = Source::new(&input, Some(answers.clone()));
        let trained = st_serve::checkpoint_from_bytes(&ckpt).unwrap();
        drive(mode, trained, BufReader::new(source), answers.clone())
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        check_answers(mode, &answers.text(), input.len(), 5);
    }
}

/// A writer whose first write blocks until the test opens the gate.
struct Gated {
    gate: Option<mpsc::Receiver<()>>,
    out: Answers,
}

impl Write for Gated {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(gate) = self.gate.take() {
            gate.recv_timeout(PATIENCE).expect("the test opens the gate");
        }
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn flood_against_a_blocked_writer_is_bounded_and_fully_answered() {
    let (data, trained) = trained_setup();
    let ckpt = st_serve::checkpoint_to_bytes(&trained);
    for mode in MODES {
        let count = 3 * PIPELINE_DEPTH + 7;
        let input = lines(mode, &data, count, 7);
        let source = Source::new(&input, None);
        let pulled = Arc::clone(&source.pulled);
        let (open, gate) = mpsc::channel();
        let out = Answers::default();
        let writer = Gated { gate: Some(gate), out: out.clone() };
        let trained = st_serve::checkpoint_from_bytes(&ckpt).unwrap();
        let run = std::thread::spawn(move || drive(mode, trained, BufReader::new(source), writer));

        // Let the reader run until it stalls on the full ticket channel.
        let start = Instant::now();
        let mut last = (usize::MAX, Instant::now());
        while start.elapsed() < PATIENCE {
            let now = pulled.load(Ordering::SeqCst);
            if now != last.0 {
                last = (now, Instant::now());
            } else if last.1.elapsed() > Duration::from_millis(500) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let stalled_at = pulled.load(Ordering::SeqCst);
        assert!(
            stalled_at <= PIPELINE_DEPTH + 3,
            "{mode:?}: reader pulled {stalled_at} lines past a blocked writer (bound {PIPELINE_DEPTH})"
        );
        assert_eq!(out.count(), 0, "{mode:?}: the writer is still blocked");

        open.send(()).unwrap();
        run.join().unwrap().unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert_eq!(pulled.load(Ordering::SeqCst), count);
        check_answers(mode, &out.text(), count, 7);
    }
}

/// Accepts `ok_lines` answers, then fails every write.
struct Failing {
    ok_lines: usize,
}

impl Write for Failing {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.ok_lines == 0 {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client went away"));
        }
        self.ok_lines -= buf.iter().filter(|&&b| b == b'\n').count().min(self.ok_lines);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn failing_output_ends_the_loop_with_an_error() {
    let (data, trained) = trained_setup();
    let ckpt = st_serve::checkpoint_to_bytes(&trained);
    for mode in MODES {
        let input = lines(mode, &data, 4 * PIPELINE_DEPTH, 9).join("\n") + "\n";
        let trained = st_serve::checkpoint_from_bytes(&ckpt).unwrap();
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let res = drive(mode, trained, io::Cursor::new(input.into_bytes()), Failing { ok_lines: 2 });
            let _ = done.send(res);
        });
        let res = outcome.recv_timeout(PATIENCE).unwrap_or_else(|_| panic!("{mode:?}: loop hung"));
        let err = res.expect_err("a failing output must end the loop with Err");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{mode:?}");
    }
}

#[test]
fn piped_requests_do_not_wait_out_their_deadline_behind_earlier_lines() {
    let (data, trained) = trained_setup();
    // Each request costs at least 60 ms on one worker; 16 of them, read at
    // once, would queue ~0.9 s behind each other against a 250 ms deadline.
    let count = 16;
    let cfg = ServeConfig {
        default_deadline: Duration::from_millis(250),
        fault_hook: Some(Arc::new(|_| std::thread::sleep(Duration::from_millis(60)))),
        ..ServeConfig::default()
    };
    let service = ImputeService::start(trained, cfg).unwrap();
    let input = lines(Mode::Requests, &data, count, count + 1).join("\n") + "\n";
    let mut out = Vec::new();
    run_requests(&service, 1, Sampler::Ddim { steps: 2, eta: 0.0 }, input.as_bytes(), &mut out)
        .unwrap();
    check_answers(Mode::Requests, &String::from_utf8(out).unwrap(), count, count + 1);
}
