//! The load generator: one process, two threads, two connections.
//!
//! A sleep-paced sender writes pre-encoded request frames onto one
//! pipelined connection; a receiver polls that connection and a second,
//! subscribed connection, and timestamps every response and pushed frame.
//! The open-loop phase sends request `i` at `start + i / rate` whatever
//! the server does; latency is timed from that intended instant, so one
//! stalled reply also delays every request queued behind it (coordinated
//! omission is counted, not hidden). The closed-loop phase keeps a fixed
//! number of requests in flight.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb_server::poll::{poll_fds, PollFd, POLLIN};
use tdb_server::wire::{
    decode_response, read_frame, FrameAssembler, MetricsFormat, Request, Response, PROTOCOL_VERSION,
};

use crate::oracle::Pushed;
use crate::workload::{frame, tenant_name};

/// Ids at and above this are not stream requests (handshake, scrapes).
const CONTROL_ID: u64 = 1 << 62;
const SCRAPE_EVERY: Duration = Duration::from_millis(250);
/// Longest the sender waits for an open-loop reply before failing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// The two load connections.
#[derive(Debug)]
pub struct Conns {
    pub req: TcpStream,
    pub sub: TcpStream,
    /// Subscription id → tenant index.
    pub sub_ids: HashMap<u64, usize>,
}

fn call(stream: &mut TcpStream, id: u64, req: &Request) -> Result<Response, String> {
    stream
        .write_all(&frame(id, req))
        .map_err(|e| format!("write: {e}"))?;
    let payload = read_frame(stream).map_err(|e| format!("read: {e}"))?;
    let (rid, resp) = decode_response(&payload).map_err(|e| format!("decode: {e}"))?;
    if rid != id {
        return Err(format!("reply for id {rid}, expected {id}"));
    }
    Ok(resp)
}

/// Opens the request connection and a connection subscribed to every
/// tenant's firings.
pub fn connect(addr: &str, tenants: usize) -> Result<Conns, String> {
    let open = || -> Result<TcpStream, String> {
        let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        match call(&mut s, CONTROL_ID, &hello)? {
            Response::HelloOk { .. } => Ok(s),
            other => Err(format!("handshake: {other:?}")),
        }
    };
    let req = open()?;
    let mut sub = open()?;
    let mut sub_ids = HashMap::new();
    for t in 0..tenants {
        let id = CONTROL_ID + 1 + t as u64;
        let subscribe = Request::SubscribeFirings {
            tenant: tenant_name(t),
        };
        match call(&mut sub, id, &subscribe)? {
            Response::Subscribed => {
                sub_ids.insert(id, t);
            }
            other => return Err(format!("subscribe {t}: {other:?}")),
        }
    }
    Ok(Conns { req, sub, sub_ids })
}

/// How one run sends.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Open-loop requests sent before measuring starts.
    pub warm: usize,
    /// Measured open-loop requests.
    pub open: usize,
    pub rate: f64,
    /// Closed-loop requests, and the longest the closed loop may take.
    pub closed: usize,
    pub closed_limit: Duration,
    pub window: usize,
    pub server_pid: u32,
    /// Trace the second half of the measured open loop, and scrape the
    /// server's metrics around and through it.
    pub traced: bool,
}

impl Plan {
    pub fn open_range(&self) -> std::ops::Range<usize> {
        self.warm..self.warm + self.open
    }

    /// First index of the traced half of the open loop.
    pub fn traced_from(&self) -> usize {
        self.warm + self.open / 2
    }
}

/// What the sender did.
#[derive(Debug, Default)]
pub struct SendLog {
    /// Per sent request: when it was due (open loop) or sent (closed).
    pub due: Vec<Instant>,
    pub sent: Vec<Instant>,
    /// Traced requests: when the frame write returned.
    pub written: HashMap<usize, Instant>,
    pub closed_start: Option<Instant>,
    pub closed_end: Option<Instant>,
    /// The closed loop hit its time limit before sending every request.
    pub timed_out: bool,
    /// Scrape id → index of the request sent just before it.
    pub scrapes: Vec<(u64, usize)>,
    /// Server on-CPU ns at segment edges of the measured open loop, keyed
    /// by requests sent, and of the closed loop, keyed by requests
    /// answered.
    pub open_cpu: Vec<(usize, u64)>,
    pub closed_cpu: Vec<(usize, u64)>,
}

/// Segments per phase for the CPU-per-request figures.
pub const SEGMENTS: usize = 10;

/// What the receiver saw.
#[derive(Debug, Default)]
pub struct RecvLog {
    /// Per request index: when the reply arrived, the reply, and (traced
    /// requests) how long decoding took.
    pub replies: Vec<Option<(Instant, Response)>>,
    pub decode_ns: HashMap<usize, u64>,
    /// Per tenant, each pushed item with its arrival time.
    pub pushes: Vec<Vec<(Instant, Pushed)>>,
    pub scrapes: HashMap<u64, String>,
    /// Frames that made no sense (unknown id, protocol error).
    pub stray: Vec<String>,
}

/// Drives one run over `conns`; `kill` is called once the closed loop
/// ends (it stops the server, which closes both connections).
pub fn run(
    conns: Conns,
    frames: Arc<Vec<Vec<u8>>>,
    plan: &Plan,
    tenants: usize,
    kill: impl FnOnce(),
) -> Result<(SendLog, RecvLog), String> {
    let Conns { req, sub, sub_ids } = conns;
    let writer = req.try_clone().map_err(|e| e.to_string())?;
    let (tok_tx, tok_rx) = channel();
    let stop = Arc::new(AtomicBool::new(false));
    let n = frames.len();
    let traced_from = plan.traced.then(|| plan.traced_from());
    let receiver = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("tdbbench-recv".into())
            .spawn(move || receive(req, sub, n, tenants, sub_ids, tok_tx, traced_from, stop))
            .map_err(|e| e.to_string())?
    };
    let sent = send(writer, &frames, plan, tok_rx);
    kill();
    stop.store(true, Ordering::SeqCst);
    let recv = receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_string())?;
    Ok((sent?, recv))
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn send(
    mut w: TcpStream,
    frames: &[Vec<u8>],
    plan: &Plan,
    tokens: Receiver<()>,
) -> Result<SendLog, String> {
    let mut log = SendLog::default();
    let open_total = plan.warm + plan.open;
    if open_total > frames.len() {
        return Err("stream shorter than the open loop".into());
    }
    let mut next_scrape_id = CONTROL_ID + (1 << 20);
    let mut scrape = |w: &mut TcpStream, log: &mut SendLog, after: usize| -> Result<(), String> {
        let f = frame(
            next_scrape_id,
            &Request::Metrics {
                format: MetricsFormat::Prometheus,
            },
        );
        w.write_all(&f).map_err(|e| format!("scrape write: {e}"))?;
        log.scrapes.push((next_scrape_id, after));
        next_scrape_id += 1;
        Ok(())
    };
    let period = Duration::from_secs_f64(1.0 / plan.rate);
    let start = Instant::now() + Duration::from_millis(20);
    let mut next_periodic = None;
    for (i, f) in frames.iter().enumerate().take(open_total) {
        let due = start + period.mul_f64(i as f64);
        sleep_until(due);
        // Traced: scrape as measuring starts, then every SCRAPE_EVERY.
        if plan.traced && (i == plan.warm || next_periodic.is_some_and(|t| Instant::now() >= t)) {
            scrape(&mut w, &mut log, i)?;
            next_periodic = Some(Instant::now() + SCRAPE_EVERY);
        }
        if i >= plan.warm
            && (i - plan.warm).is_multiple_of((plan.open / SEGMENTS).max(1))
            && log.open_cpu.len() < SEGMENTS
        {
            log.open_cpu
                .push((i, crate::proc::task_cpu_ns(plan.server_pid)));
        }
        let t = Instant::now();
        w.write_all(f)
            .map_err(|e| format!("write request {i}: {e}"))?;
        log.due.push(due);
        log.sent.push(t);
        if plan.traced && i >= plan.traced_from() {
            log.written.insert(i, Instant::now());
        }
    }
    // Drain the open loop before the closed loop starts.
    let mut answered = 0usize;
    while answered < open_total {
        tokens
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|_| format!("{} open-loop requests unanswered", open_total - answered))?;
        answered += 1;
    }
    log.open_cpu
        .push((open_total, crate::proc::task_cpu_ns(plan.server_pid)));
    if plan.traced {
        scrape(&mut w, &mut log, open_total)?;
    }

    log.closed_cpu
        .push((answered, crate::proc::task_cpu_ns(plan.server_pid)));
    let per_segment = (plan.closed / SEGMENTS).max(1);
    let closed_start = Instant::now();
    let end = closed_start + plan.closed_limit;
    log.closed_start = Some(closed_start);
    let mut i = open_total;
    let last = (open_total + plan.closed).min(frames.len());
    'closed: while i < last {
        while i - answered >= plan.window {
            let left = end.saturating_duration_since(Instant::now());
            match tokens.recv_timeout(left) {
                Ok(()) => answered += 1,
                Err(RecvTimeoutError::Timeout) => {
                    log.timed_out = true;
                    break 'closed;
                }
                Err(RecvTimeoutError::Disconnected) => return Err("receiver stopped".into()),
            }
        }
        while let Ok(()) = tokens.try_recv() {
            answered += 1;
        }
        if i > open_total && (i - open_total).is_multiple_of(per_segment) {
            log.closed_cpu
                .push((answered, crate::proc::task_cpu_ns(plan.server_pid)));
        }
        let t = Instant::now();
        w.write_all(&frames[i])
            .map_err(|e| format!("write request {i}: {e}"))?;
        log.due.push(t);
        log.sent.push(t);
        i += 1;
    }
    log.closed_end = Some(Instant::now());
    Ok(log)
}

struct Side {
    stream: TcpStream,
    asm: FrameAssembler,
    open: bool,
}

#[allow(clippy::too_many_arguments)]
fn receive(
    req: TcpStream,
    sub: TcpStream,
    n: usize,
    tenants: usize,
    sub_ids: HashMap<u64, usize>,
    tokens: Sender<()>,
    traced_from: Option<usize>,
    stop: Arc<AtomicBool>,
) -> RecvLog {
    let mut log = RecvLog {
        replies: (0..n).map(|_| None).collect(),
        pushes: vec![Vec::new(); tenants],
        ..RecvLog::default()
    };
    let mut sides = [
        Side {
            stream: req,
            asm: FrameAssembler::new(),
            open: true,
        },
        Side {
            stream: sub,
            asm: FrameAssembler::new(),
            open: true,
        },
    ];
    let mut buf = vec![0u8; 256 * 1024];
    let mut stopped_at: Option<Instant> = None;
    while sides.iter().any(|s| s.open) {
        if stop.load(Ordering::SeqCst) {
            let t = *stopped_at.get_or_insert_with(Instant::now);
            if t.elapsed() > Duration::from_secs(5) {
                log.stray
                    .push("connections still open 5 s after the kill".into());
                break;
            }
        }
        let mut fds: Vec<PollFd> = sides
            .iter()
            .map(|s| PollFd::new(s.stream.as_raw_fd(), if s.open { POLLIN } else { 0 }))
            .collect();
        if poll_fds(&mut fds, 50).is_err() {
            continue;
        }
        for (k, side) in sides.iter_mut().enumerate() {
            if !side.open || !fds[k].readable() {
                continue;
            }
            match side.stream.read(&mut buf) {
                Ok(0) => side.open = false,
                Ok(got) => side.asm.ingest(&buf[..got]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => side.open = false,
            }
            loop {
                let t = Instant::now();
                let decoded = match side.asm.next_frame() {
                    Ok(Some(payload)) => decode_response(payload),
                    Ok(None) => break,
                    Err(e) => {
                        log.stray.push(format!("framing: {e}"));
                        side.open = false;
                        break;
                    }
                };
                let (id, resp) = match decoded {
                    Ok(v) => v,
                    Err(e) => {
                        log.stray.push(format!("decode: {e}"));
                        continue;
                    }
                };
                let decode_ns = t.elapsed().as_nanos() as u64;
                match resp {
                    Response::Firing { record } => match sub_ids.get(&id) {
                        Some(&tenant) => log.pushes[tenant].push((t, Pushed::Firing(record))),
                        None => log
                            .stray
                            .push(format!("firing for unknown subscription {id}")),
                    },
                    Response::VtFiring { event } => match sub_ids.get(&id) {
                        Some(&tenant) => log.pushes[tenant].push((t, Pushed::Vt(event))),
                        None => log
                            .stray
                            .push(format!("vt event for unknown subscription {id}")),
                    },
                    Response::MetricsText { text } if id >= CONTROL_ID => {
                        log.scrapes.insert(id, text);
                    }
                    resp if id >= 1 && (id as usize) <= n => {
                        let idx = id as usize - 1;
                        if traced_from.is_some_and(|f| idx >= f) {
                            log.decode_ns.insert(idx, decode_ns);
                        }
                        if log.replies[idx].is_some() {
                            log.stray.push(format!("second reply for request {id}"));
                        }
                        log.replies[idx] = Some((t, resp));
                        let _ = tokens.send(());
                    }
                    other => log.stray.push(format!("id {id}: {other:?}")),
                }
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use tdb_server::wire::{decode_request, encode_response, write_frame};

    /// A stand-in server: answers the handshake and subscriptions, and
    /// answers requests in order, sleeping `stall` before request `slow`.
    fn fake_server(
        slow: u64,
        stall: Duration,
    ) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let handle = std::thread::spawn(move || {
            let serve = |mut s: TcpStream| {
                std::thread::spawn(move || {
                    while let Ok(payload) = read_frame(&mut s) {
                        let (id, req) = decode_request(&payload).unwrap();
                        let resp = match req {
                            Request::Hello { version } => Response::HelloOk { version },
                            Request::SubscribeFirings { .. } => Response::Subscribed,
                            _ => {
                                if id == slow {
                                    std::thread::sleep(stall);
                                }
                                Response::Committed {
                                    outcomes: Vec::new(),
                                    firings: Vec::new(),
                                }
                            }
                        };
                        if write_frame(&mut s, &encode_response(id, &resp)).is_err() {
                            break;
                        }
                    }
                })
            };
            let (a, _) = listener.accept().unwrap();
            let ac = a.try_clone().unwrap();
            let ta = serve(a);
            let (b, _) = listener.accept().unwrap();
            let bc = b.try_clone().unwrap();
            let tb = serve(b);
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = ac.shutdown(std::net::Shutdown::Both);
            let _ = bc.shutdown(std::net::Shutdown::Both);
            ta.join().unwrap();
            tb.join().unwrap();
        });
        (addr, done, handle)
    }

    /// Latency is timed from the intended send time: one stalled reply
    /// delays every request queued behind it, and the benchmark charges
    /// that wait to each of them.
    #[test]
    fn a_stalled_reply_delays_the_requests_queued_behind_it() {
        let slow = 101; // request index 100
        let stall = Duration::from_millis(300);
        let (addr, done, server) = fake_server(slow, stall);
        let conns = connect(&addr, 1).unwrap();
        let frames: Vec<Vec<u8>> = (0..400u64)
            .map(|i| {
                frame(
                    i + 1,
                    &Request::Query {
                        tenant: "t00".into(),
                        text: "item n".into(),
                        params: Vec::new(),
                    },
                )
            })
            .collect();
        let plan = Plan {
            warm: 0,
            open: 300,
            rate: 500.0, // one request every 2 ms
            closed: 100,
            closed_limit: Duration::from_secs(5),
            window: 4,
            server_pid: std::process::id(),
            traced: false,
        };
        let (sent, recv) = run(conns, Arc::new(frames), &plan, 1, || {
            done.store(true, Ordering::SeqCst)
        })
        .unwrap();
        server.join().unwrap();
        let latency = |i: usize| {
            let (t, _) = recv.replies[i].as_ref().unwrap();
            *t - sent.due[i]
        };
        // Sent on schedule, 2 ms apart, while the reply to 100 stalled:
        // each waits out the rest of the stall.
        assert!(latency(100) >= stall);
        for j in 1..=50 {
            let rest = stall - Duration::from_millis(2 * j as u64 + 20);
            assert!(
                latency(100 + j) >= rest,
                "request {} waited {:?}",
                100 + j,
                latency(100 + j)
            );
        }
        // The sender did not wait for the stall: request 120 left on time.
        assert!(sent.sent[120] - sent.due[120] < Duration::from_millis(100));
        // Long after the stall, latency is back to the round trip.
        assert!(latency(299) < stall / 2);
    }
}
