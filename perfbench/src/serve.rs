//! serve-mix: a `lagoon gateway` process (2 shards x 1 worker) driven
//! over HTTP from [`CONNS`] keep-alive connections, one thread each.
//!
//! Phase 1 is an open loop at the constant [`RATE`]: request `i` of a
//! window is due at `t0 + i / RATE`, connection `i % CONNS` sends it
//! when due without waiting for earlier replies (pipelining), and
//! latency runs from the due time. Its windows alternate between the
//! inline half of the stream (unique sources: the whole front end,
//! never the store) and the named half (modules shared through the
//! store). Phase 2 is a closed loop over the whole mix: both
//! connections send back to back.
//!
//! Both phases run in windows of [`WINDOW`], with a run of the
//! serving-stack probe ([`hop_probe`]) between windows. A run reports
//! the median over each half's windows of the CPU time the gateway and
//! its shards used per request, and the median over the closed-loop
//! windows of completed requests per second, each taken to the probe's
//! reference reading (CPU time by the probe's CPU time, throughput by
//! its wall time, each the mean of the probes before and after the
//! window). Raw figures and open-loop latency are printed beside them.
//!
//! Why not latency: a request crosses four processes' worth of wake-ups
//! and uses well under a millisecond of CPU, so its latency is mostly
//! how fast the guest's CPUs are woken. On the shared host this was
//! tuned on, the hypervisor steals 5-45% of the CPU time in bursts of
//! seconds to minutes; in those windows p50 rose from 0.6 ms to 1-5 ms
//! and p90 from 0.9 ms to 3-30 ms, and some runs had no quiet window.
//! The kernel does not charge stolen time to a thread, so CPU time per
//! request does not see steal; what moves it is the host's speed, which
//! the probe follows (eight runs over a drifting stretch: raw CPU per
//! request spread 0.18-0.21 between runs, taken to the reference
//! 0.03-0.06).

use crate::metrics::Outcome;
use crate::mix::{self, Req, KINDS, PHASES};
use crate::stats::{median, percentile, quartiles, sorted, tail};
use crate::sys::{alive, children_of, cpu_ms, hop_probe, peak_rss_mb, Hop, HOP_REFERENCE};
use lagoon_gateway::http::HttpClient;
use lagoon_server::json::{self, Json};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Generator threads, one keep-alive connection each.
pub const CONNS: usize = 2;
/// Open-loop offered rate, requests per second. A constant, never
/// recalibrated: closed-loop throughput at the seed was 3000-3500 req/s
/// on a quiet 2-CPU host but fell to 1300 when co-tenants loaded it, and
/// at 1500 req/s such a run could not be offered. 800 is about half of
/// the worst throughput seen and a quarter of the usual one.
pub const RATE: f64 = 800.0;
/// A run whose generator offered less than this share of [`RATE`] is
/// rejected: the open loop was not actually offered.
const MIN_OFFERED_SHARE: f64 = 0.95;
const SHARDS: usize = 2;
const SETUP_REPS: u64 = 5;
/// Requests per connection that warm a fresh gateway in set-up.
const WARM_PER_CONN: u64 = 24;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Both phases run in windows of this length, each between two runs of
/// the serving-stack probe.
const WINDOW: Duration = Duration::from_millis(500);

/// A running `lagoon gateway` child process.
struct Gateway {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Gateway {
    fn start(lagoon: &Path, dir: &Path) -> Result<Gateway, String> {
        let (src, store) = (dir.join("src"), dir.join("store"));
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(&src).map_err(|e| format!("mkdir {}: {e}", src.display()))?;
        for (name, body) in mix::named_modules() {
            let path = src.join(format!("{name}.lag"));
            std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let mut child = Command::new(lagoon)
            .arg("gateway")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--shards", &SHARDS.to_string(), "--workers-per-shard", "1"])
            .arg("--root")
            .arg(&src)
            .arg("--cache-dir")
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", lagoon.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("gateway has no stdout".into());
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("gateway exited before announcing its address".into());
            }
            if let Some(rest) = line.trim().strip_prefix("gateway listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Ok(Gateway {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The gateway and its shard processes.
    fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.child.id()];
        pids.extend(children_of(self.child.id()));
        pids
    }

    fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().filter_map(peak_rss_mb).sum()
    }

    fn get(&self, target: &str) -> Result<Json, String> {
        let mut c = HttpClient::connect(&self.addr, Some(TIMEOUT)).map_err(|e| e.to_string())?;
        let r = c
            .request("GET", target, &[], b"")
            .map_err(|e| format!("GET {target}: {e}"))?;
        json::parse(&r.body_str()).map_err(|e| format!("GET {target}: {e}"))
    }

    /// Asks the gateway to drain, waits for it and its shards to exit,
    /// and kills whatever is left after a grace period.
    fn stop(mut self) -> Result<(), String> {
        let shards = children_of(self.child.id());
        if let Ok(mut c) = HttpClient::connect(&self.addr, Some(TIMEOUT)) {
            let _ = c.request("POST", "/v1/shutdown", &[], b"{}");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        for pid in shards {
            let deadline = Instant::now() + Duration::from_secs(5);
            while alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            if alive(pid) {
                clean = false;
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if clean {
            Ok(())
        } else {
            Err("gateway did not shut down cleanly".into())
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let shards = children_of(self.child.id());
            let _ = self.child.kill();
            let _ = self.child.wait();
            for pid in shards {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
    }
}

/// Per-window readings: the CPU time the gateway and its shards used,
/// and the serving-stack probe before and after.
struct Meter {
    pids: Vec<u32>,
    cpu_ms: f64,
    probe: Hop,
}

impl Meter {
    fn start(pids: Vec<u32>) -> Result<Meter, String> {
        let probe = hop_probe()?;
        Ok(Meter {
            cpu_ms: cpu_ms(&pids),
            pids,
            probe,
        })
    }

    /// Ends the window started by the last call, runs the probe, and
    /// starts the next window. Returns the CPU ms the gateway and its
    /// shards used in the window, and the mean of the probes before and
    /// after it.
    fn lap(&mut self) -> Result<(f64, Hop), String> {
        let used = (cpu_ms(&self.pids) - self.cpu_ms).max(0.0);
        let probe = hop_probe()?;
        let mean = Hop {
            wall_us: (self.probe.wall_us + probe.wall_us) / 2.0,
            cpu_us: (self.probe.cpu_us + probe.cpu_us) / 2.0,
        };
        (self.cpu_ms, self.probe) = (cpu_ms(&self.pids), probe);
        Ok((used, mean))
    }
}

/// One completed request.
struct Sample {
    req: Req,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    body: String,
}

impl Sample {
    fn ms(from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() * 1e3
    }
    /// Latency from the due time (open loop) or send time (closed loop).
    fn latency_ms(&self) -> f64 {
        Sample::ms(self.due, self.done)
    }
    fn late_ms(&self) -> f64 {
        Sample::ms(self.due, self.sent)
    }
}

/// Sends request `index` and waits for its reply (closed loop); a broken
/// connection is reopened for the next.
fn send(client: &mut Option<HttpClient>, addr: &str, seed: u64, index: u64) -> Sample {
    let req = mix::request(seed, index);
    let sent = Instant::now();
    if client.is_none() {
        *client = HttpClient::connect(addr, Some(TIMEOUT)).ok();
    }
    let (status, body) = match client.as_mut() {
        Some(c) => match c.request("POST", req.target, &[], req.body.as_bytes()) {
            Ok(r) => (r.status, r.body_str()),
            Err(e) => {
                *client = None;
                (0, e.to_string())
            }
        },
        None => (0, "connect failed".to_string()),
    };
    Sample {
        req,
        due: sent,
        sent,
        done: Instant::now(),
        status,
        body,
    }
}

/// Opens one keep-alive connection per generator thread.
fn connect_all(addr: &str) -> Vec<Option<HttpClient>> {
    (0..CONNS)
        .map(|_| HttpClient::connect(addr, Some(TIMEOUT)).ok())
        .collect()
}

/// A request written on a [`Pipe`] whose reply has not been read yet.
struct Pending {
    req: Req,
    due: Instant,
    sent: Instant,
}

/// One open-loop connection. Requests are written when they are due,
/// without waiting for earlier replies (HTTP/1.1 pipelining), so the
/// rate offered does not depend on how fast the gateway answers.
/// `HttpClient` cannot serve here: its reads block until a whole reply
/// is in, and this loop must stop waiting when the next request is due.
struct Pipe {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Pipe {
    fn connect(addr: &str) -> std::io::Result<Pipe> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Pipe {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Waits up to `wait` for the next reply to start arriving.
    fn ready(&mut self, wait: Duration) -> std::io::Result<bool> {
        let wait = wait.max(Duration::from_micros(50));
        self.reader.get_ref().set_read_timeout(Some(wait))?;
        match self.reader.fill_buf() {
            Ok([]) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(_) => Ok(true),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Reads one whole reply: its status and body.
    fn reply(&mut self) -> std::io::Result<(u16, String)> {
        self.reader.get_ref().set_read_timeout(Some(TIMEOUT))?;
        let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(bad("bad status line"))?;
        let mut len = 0;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            match line.trim_end().split_once(':') {
                None => break,
                Some((k, v)) if k.eq_ignore_ascii_case("content-length") => {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
                Some(_) => {}
            }
        }
        let mut body = vec![0; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The open loop on one connection: sends the requests at positions
/// `conn`, `conn + CONNS`, ... of `indices`, each when due at `RATE`
/// from `t0`, and reads the replies in between. A broken connection
/// fails the requests in flight on it and is reopened for the next.
fn open_conn(
    addr: &str,
    pipe: &mut Option<Pipe>,
    seed: u64,
    indices: &[u64],
    t0: Instant,
    conn: usize,
    trace: bool,
) -> Vec<Sample> {
    let mut pending = VecDeque::new();
    let mut samples = Vec::new();
    let count = indices.len();
    let mut next = conn;
    let fail = |p: Pending, why: String| Sample {
        req: p.req,
        due: p.due,
        sent: p.sent,
        done: Instant::now(),
        status: 0,
        body: why,
    };
    while next < count || !pending.is_empty() {
        let due = t0 + Duration::from_secs_f64(next as f64 / RATE);
        let now = Instant::now();
        if next < count && due <= now {
            let index = indices[next];
            next += CONNS;
            let req = mix::request(seed, index);
            if pipe.is_none() {
                *pipe = Pipe::connect(addr).ok();
            }
            let sent = Instant::now();
            let p = Pending { req, due, sent };
            let wrote = match pipe.as_mut() {
                Some(c) => c
                    .writer
                    .write_all(&wire_bytes(&p.req, trace.then_some(index))),
                None => Err(ErrorKind::NotConnected.into()),
            };
            match wrote {
                Ok(()) => pending.push_back(p),
                Err(e) => {
                    samples.push(fail(p, e.to_string()));
                    samples.extend(pending.drain(..).map(|p| fail(p, e.to_string())));
                    *pipe = None;
                }
            }
            continue;
        }
        let wait = if next < count { due - now } else { TIMEOUT };
        let Some(c) = pipe.as_mut().filter(|_| !pending.is_empty()) else {
            std::thread::sleep(wait);
            continue;
        };
        let read = match c.ready(wait) {
            Ok(false) => continue,
            Ok(true) => c.reply(),
            Err(e) => Err(e),
        };
        match read {
            Ok((status, body)) => {
                let p = pending
                    .pop_front()
                    .expect("a reply answers a pending request");
                samples.push(Sample {
                    req: p.req,
                    due: p.due,
                    sent: p.sent,
                    done: Instant::now(),
                    status,
                    body,
                });
            }
            Err(e) => {
                samples.extend(pending.drain(..).map(|p| fail(p, e.to_string())));
                *pipe = None;
            }
        }
    }
    samples
}

/// Opens the open loop's connections, one per generator thread.
fn pipe_all(addr: &str) -> Vec<Option<Pipe>> {
    (0..CONNS).map(|_| Pipe::connect(addr).ok()).collect()
}

/// One open-loop window: the requests at `indices`, due at `RATE` from
/// now; connection `i % CONNS` sends the one at position `i`.
fn open_window(
    addr: &str,
    pipes: &mut [Option<Pipe>],
    seed: u64,
    indices: &[u64],
    trace: bool,
) -> Vec<Sample> {
    let t0 = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let conns: Vec<_> = pipes
            .iter_mut()
            .enumerate()
            .map(|(conn, pipe)| {
                scope.spawn(move || open_conn(addr, pipe, seed, indices, t0, conn, trace))
            })
            .collect();
        conns
            .into_iter()
            .flat_map(|h| h.join().expect("no generator thread panics"))
            .collect()
    })
}

/// One closed-loop window: every connection sends back to back for
/// [`WINDOW`], taking request indices from `next`.
fn closed_window(
    addr: &str,
    clients: &mut [Option<HttpClient>],
    seed: u64,
    next: &AtomicU64,
) -> Vec<Sample> {
    let until = Instant::now() + WINDOW;
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let samples = &samples;
            scope.spawn(move || {
                let mut mine = Vec::new();
                while Instant::now() < until {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    mine.push(send(client, addr, seed, i));
                }
                samples
                    .lock()
                    .expect("no generator thread panics")
                    .extend(mine);
            });
        }
    });
    samples.into_inner().expect("no generator thread panics")
}

/// Checks every sample, counting each in `out`; returns the parsed
/// bodies of the correct ones (`None` for the wrong ones).
fn check_all(samples: &[Sample], out: &mut Outcome) -> Vec<Option<Json>> {
    samples
        .iter()
        .map(|s| match mix::check(&s.req, s.status, &s.body) {
            Ok(j) => {
                out.attempt(true);
                Some(j)
            }
            Err(e) => {
                eprintln!("serve-mix: {} {}: {e}", s.req.target, s.req.body);
                out.attempt(false);
                None
            }
        })
        .collect()
}

/// Set-up: a fresh gateway over a fresh store, warmed by a short closed
/// loop, `SETUP_REPS` times; the last one is kept. Returns it, the
/// median set-up time and the first unused request index.
fn setup(lagoon: &Path, work: &Path, seed: u64) -> Result<(Gateway, f64, u64), String> {
    let mut secs = Vec::new();
    let mut kept = None;
    let per_rep = WARM_PER_CONN * CONNS as u64;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            Gateway::stop(old)?;
        }
        let start = Instant::now();
        let gw = Gateway::start(lagoon, &work.join(format!("serve-{rep}")))?;
        let next = AtomicU64::new(rep * per_rep);
        let warm: Vec<Sample> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNS)
                .map(|_| {
                    let (addr, next) = (&gw.addr, &next);
                    scope.spawn(move || {
                        let mut client = None;
                        (0..WARM_PER_CONN)
                            .map(|_| {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                send(&mut client, addr, seed, i)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("no generator thread panics"))
                .collect()
        });
        let mut check = Outcome::default();
        check_all(&warm, &mut check);
        if check.failed > 0 {
            return Err(format!(
                "serve-mix: {} warm-up requests failed",
                check.failed
            ));
        }
        secs.push(start.elapsed().as_secs_f64());
        kept = Some(gw);
    }
    let gw = kept.ok_or("no set-up")?;
    Ok((gw, median(&secs), SETUP_REPS * per_rep))
}

/// The timed run: 60% of `seconds` open loop, the rest closed loop.
///
/// # Errors
///
/// Gateway start-up and shutdown failures.
pub fn run(
    lagoon: &Path,
    seed: u64,
    seconds: Duration,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let (gw, setup_s, first) = setup(lagoon, work, seed)?;
    let open_windows = ((seconds.as_secs_f64() * 0.6 / WINDOW.as_secs_f64()).round() as u64).max(2);
    let closed_windows = ((seconds.as_secs_f64() / WINDOW.as_secs_f64()) as u64)
        .saturating_sub(open_windows)
        .max(1);
    let per_window = (RATE * WINDOW.as_secs_f64()).round() as usize;
    let mut pipes = pipe_all(&gw.addr);
    let mut open = vec![];
    // per half (inline, named), per window: CPU ms per request at the
    // probe's reference, raw, and the window's p50 and p90
    let mut halves: [[Vec<f64>; 4]; 2] = Default::default();
    let (mut offered_n, mut offered_ms) = (0u64, 0.0);
    let mut next_index = first;
    let mut meter = Meter::start(gw.pids())?;
    for w in 0..open_windows {
        let named = w % 2 == 1;
        let indices = mix::indices_of_half(seed, &mut next_index, per_window, named);
        let window = open_window(&gw.addr, &mut pipes, seed, &indices, false);
        let (cpu, probe) = meter.lap()?;
        let per_request = cpu / window.len().max(1) as f64;
        let latencies = sorted(&window.iter().map(Sample::latency_ms).collect::<Vec<_>>());
        let figures = [
            per_request * HOP_REFERENCE.cpu_us / probe.cpu_us,
            per_request,
            median(&latencies),
            percentile(&latencies, 0.9),
        ];
        for (list, value) in halves[usize::from(named)].iter_mut().zip(figures) {
            list.push(value);
        }
        if let (Some(t0), Some(last)) = (
            window.iter().map(|s| s.due).min(),
            window.iter().map(|s| s.sent).max(),
        ) {
            offered_n += window.len() as u64;
            offered_ms += Sample::ms(t0, last);
        }
        open.extend(window);
    }
    drop(pipes);
    // read after the fixed amount of open-loop work, before the closed
    // loop, whose request count varies with throughput
    let rss = gw.peak_rss_mb();
    let next = AtomicU64::new(next_index);
    let mut clients = connect_all(&gw.addr);
    let (mut closed, mut rates, mut raw_rates, mut closed_s) = (vec![], vec![], vec![], 0.0);
    let mut meter = Meter::start(gw.pids())?;
    for _ in 0..closed_windows {
        let window = closed_window(&gw.addr, &mut clients, seed, &next);
        let (_, probe) = meter.lap()?;
        let done = window.iter().map(|s| s.done).max();
        let span_s = match (window.iter().map(|s| s.sent).min(), done) {
            (Some(a), Some(b)) => Sample::ms(a, b) / 1e3,
            _ => WINDOW.as_secs_f64(),
        };
        let rate = window.len() as f64 / span_s;
        raw_rates.push(rate);
        rates.push(rate * probe.wall_us / HOP_REFERENCE.wall_us);
        closed_s += span_s;
        closed.extend(window);
    }
    drop(clients);
    gw.stop()?;

    check_all(&open, out);
    check_all(&closed, out);
    let offered = offered_n as f64 / offered_ms.max(1.0) * 1e3;
    println!(
        "serve-mix: {} open-loop requests at {RATE} req/s (offered {offered:.1}) in {open_windows} \
         windows of {WINDOW:?}, inline and named halves alternating, {} closed-loop in \
         {closed_windows}; medians over windows, at the serving-stack probe's reference:",
        open.len(),
        closed.len(),
    );
    let mut cpu = [0.0; 2];
    for (half, name) in ["inline", "named"].iter().enumerate() {
        let [at_reference, raw, p50s, p90s] = &halves[half];
        cpu[half] = median(at_reference);
        let (q1, q3) = quartiles(at_reference).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  serve_{name}_cpu_ms = {:.4} ms  (windows' quartiles {q1:.4} .. {q3:.4}; raw {:.4}); \
             p50 {:.4} ms, p90 {:.4} ms (not gated)",
            cpu[half],
            median(raw),
            median(p50s),
            median(p90s),
        );
    }
    let latencies = sorted(&open.iter().map(Sample::latency_ms).collect::<Vec<_>>());
    let (tail_q, tail_ms) = tail(&latencies);
    println!(
        "  open loop, whole phase: p50 {:.4} ms, p90 {:.4} ms, p{} {tail_ms:.4} ms of {} samples \
         (not gated)",
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.9),
        tail_q * 100.0,
        latencies.len()
    );
    let rps = median(&rates);
    println!(
        "  serve_rps = {rps:.3} 1/s  (raw {:.3}; whole phase {:.3})",
        median(&raw_rates),
        closed.len() as f64 / closed_s,
    );
    if offered < MIN_OFFERED_SHARE * RATE {
        out.rejected = Some(format!(
            "generator fell behind: offered {offered:.1} of {RATE} req/s"
        ));
    }
    out.set_timings(setup_s, cpu[0], cpu[1], rps);
    out.set("peak_rss_mb", rss, "MB");
    Ok(())
}

/// The bytes an open-loop connection writes for `req`, with a trace id
/// header when `trace` is the request's index.
fn wire_bytes(req: &Req, trace: Option<u64>) -> Vec<u8> {
    let mut raw = format!(
        "POST {} HTTP/1.1\r\nhost: lagoon\r\ncontent-length: {}\r\n",
        req.target,
        req.body.len()
    );
    if let Some(index) = trace {
        raw.push_str(&format!("x-lagoon-trace-id: mix-{index}\r\n"));
    }
    raw.push_str("\r\n");
    let mut raw = raw.into_bytes();
    raw.extend_from_slice(req.body.as_bytes());
    raw
}

/// Mean microseconds per call of `f` over `items`, repeated for at
/// least 200 ms.
fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < Duration::from_millis(200) {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64
}

fn num(j: Option<&Json>) -> f64 {
    match j {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// Per-layer figures from `/v1/stats?deep=1`.
fn stats_metrics(stats: &Json, out: &mut Outcome) {
    out.set(
        "gateway.sheds",
        num(stats.get("http").and_then(|h| h.get("sheds"))),
        "count",
    );
    let shard_sum = |key: &str| -> f64 {
        match stats.get("shard") {
            Some(Json::Arr(shards)) => shards.iter().map(|s| num(s.get(key))).sum(),
            _ => 0.0,
        }
    };
    out.set("gateway.conn_errors", shard_sum("conn_errors"), "count");
    out.set("gateway.respawns", shard_sum("respawns"), "count");
    let done: Vec<f64> = match stats.get("shard") {
        Some(Json::Arr(shards)) => shards.iter().map(|s| num(s.get("done"))).collect(),
        _ => vec![],
    };
    let (lo, hi) = done.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), d| {
        (lo.min(*d), hi.max(*d))
    });
    out.set("gateway.route_imbalance", hi / lo.max(1.0), "ratio");
    let (mut util, mut hits, mut lookups, mut n) = (0.0, 0.0, 0.0, 0.0f64);
    if let Some(Json::Arr(daemons)) = stats.get("daemons") {
        for d in daemons {
            util += num(d.get("utilization"));
            let cache = d.get("cache");
            let h = num(cache.and_then(|c| c.get("hits")));
            hits += h;
            lookups += h + num(cache.and_then(|c| c.get("misses")));
            n += 1.0;
        }
    }
    out.set("daemon.utilization", util / n.max(1.0), "ratio");
    out.set("store.hit_share", hits / lookups.max(1.0), "ratio");
}

/// The traced pass: alternating plain and traced (trace ids on every
/// request) open-loop slices, then the deep stats. Returns the traced
/// slice's p50 overhead over the plain one, in percent.
///
/// # Errors
///
/// Gateway start-up and shutdown failures.
pub fn trace(
    lagoon: &Path,
    seed: u64,
    seconds: Duration,
    work: &Path,
    out: &mut Outcome,
) -> Result<f64, String> {
    let (gw, _, first) = setup(lagoon, work, seed)?;
    // plain and traced slices alternate, so host drift hits both alike
    let slices = 2 * ((seconds.as_secs_f64() / 2.0 / WINDOW.as_secs_f64()).round() as u64).max(1);
    let count = (RATE * WINDOW.as_secs_f64()).round() as u64;
    let mut pipes = pipe_all(&gw.addr);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for k in 0..slices {
        let trace = k % 2 == 1;
        let indices: Vec<u64> = (first + k * count..first + (k + 1) * count).collect();
        let slice = open_window(&gw.addr, &mut pipes, seed, &indices, trace);
        if trace {
            traced.extend(slice);
        } else {
            plain.extend(slice);
        }
    }
    drop(pipes);
    let stats = gw.get("/v1/stats?deep=1");
    gw.stop()?;
    stats_metrics(&stats?, out);

    check_all(&plain, out);
    let bodies = check_all(&traced, out);
    let p50 = |s: &[Sample]| median(&s.iter().map(Sample::latency_ms).collect::<Vec<_>>());
    let latencies: Vec<f64> = traced.iter().map(Sample::latency_ms).collect();
    out.set("serve.p99_ms", tail(&latencies).1, "ms");
    let untraced = sorted(&plain.iter().map(Sample::latency_ms).collect::<Vec<_>>());
    out.set("serve.p50_ms", percentile(&untraced, 0.5), "ms");
    out.set("serve.p90_ms", percentile(&untraced, 0.9), "ms");
    for (k, kind) in KINDS.iter().enumerate() {
        let of_kind: Vec<f64> = traced
            .iter()
            .filter(|s| s.req.kind == k)
            .map(Sample::latency_ms)
            .collect();
        out.set(format!("serve.kind_p50_ms.{kind}"), median(&of_kind), "ms");
    }
    let mut phase_sum = [0.0; 6];
    let mut outside = Vec::new();
    for (s, body) in traced.iter().zip(&bodies) {
        if let Some(body) = body {
            let p = mix::phases(body);
            for (acc, ms) in phase_sum.iter_mut().zip(p) {
                *acc += ms;
            }
            outside.push(s.latency_ms() - p.iter().sum::<f64>());
        }
    }
    let n = outside.len().max(1) as f64;
    for (phase, total) in PHASES.iter().zip(phase_sum) {
        out.set(format!("serve.worker_ms.{phase}"), total / n, "ms");
    }
    let outside = sorted(&outside);
    out.set(
        "serve.outside_pipeline_ms.p50",
        percentile(&outside, 0.5),
        "ms",
    );
    out.set(
        "serve.outside_pipeline_ms.p99",
        percentile(&outside, 0.99),
        "ms",
    );
    let late = sorted(&traced.iter().map(Sample::late_ms).collect::<Vec<_>>());
    out.set("serve.generator_late_ms.p99", percentile(&late, 0.99), "ms");

    let raw: Vec<Vec<u8>> = traced
        .iter()
        .enumerate()
        .map(|(i, s)| wire_bytes(&s.req, Some(i as u64)))
        .collect();
    let http_us = mean_us(&raw, |bytes| {
        let mut r = std::io::Cursor::new(bytes.as_slice());
        let parsed = lagoon_gateway::http::read_head(&mut r)
            .and_then(|head| lagoon_gateway::http::read_body(&mut r, &head, 1 << 20));
        std::hint::black_box(parsed.is_ok());
    });
    out.set("gateway.http_parse_us", http_us, "us");
    let json_us = mean_us(&traced, |s| {
        std::hint::black_box(json::parse(&s.req.body).is_ok());
    });
    out.set("server.json_parse_us", json_us, "us");
    Ok((p50(&traced) / p50(&plain) - 1.0) * 100.0)
}
