//! The `wire_ngram` workload: the shipped `mdes-serve` daemon as a child
//! process, driven by one client thread over one loopback connection.

use mdes_core::serve::ServingEngine;
use mdes_core::{read_snapshot, OnlineDetection};
use mdes_serve::frame::{
    encode_msg, read_frame, FrameKind, ReadOutcome, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use mdes_serve::{AdminClient, IngestClient, PushBatchReq, PushEntry, PushOutcome, PushReply};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::plants::Traffic;
use crate::serving::{self, Scored};
use crate::util::{self, completes_at, median, prefix_len, secs, us, STRIDE, THREADS};
use crate::Outcome;

/// Sessions multiplexed over the one connection.
pub const SESSIONS: usize = 64;
/// PushBatch frames (one sample per session each) kept in flight.
const IN_FLIGHT: usize = 4;
/// Per-session ingest queue of the daemon; must exceed `IN_FLIGHT` so the
/// closed loop never meets `Busy`.
const QUEUE_CAPACITY: usize = 16;
/// Set-up repetitions (daemon start to sessions open) per run.
const SETUP_REPS: usize = 7;
/// Longest wait for any one reply or daemon step.
const DEADLINE: Duration = Duration::from_secs(30);

/// A running daemon; killed and reaped on drop unless shut down cleanly.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    ingest: SocketAddr,
    admin: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns the daemon on free loopback ports and reads the addresses it
    /// announces; returns it with the milliseconds from spawn until its
    /// ingest port accepted a connection.
    fn spawn(bin: &Path, artifact: &Path) -> Result<(Self, TcpStream, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("--snapshot")
            .arg(artifact)
            .args(["--addr", "127.0.0.1:0", "--admin-addr", "127.0.0.1:0"])
            .args(["--threads", &THREADS.to_string()])
            .args(["--queue-capacity", &QUEUE_CAPACITY.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            ingest: SocketAddr::from(([127, 0, 0, 1], 0)),
            admin: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        // "mdes-serve: ingest on ADDR, admin on ADDR, model width N"
        let addr_after = |key: &str| -> Result<SocketAddr, String> {
            line.split(key)
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|a| a.trim().parse().ok())
                .ok_or_else(|| format!("unexpected daemon banner: {line:?}"))
        };
        daemon.ingest = addr_after("ingest on ")?;
        daemon.admin = addr_after("admin on ")?;
        let conn = TcpStream::connect(daemon.ingest).map_err(|e| format!("connect: {e}"))?;
        let ready_ms = us(t0) / 1e3;
        Ok((daemon, conn, ready_ms))
    }

    fn admin(&self, cmd: &str) -> Result<Vec<String>, String> {
        let mut a = AdminClient::connect(self.admin).map_err(|e| format!("admin connect: {e}"))?;
        let (lines, status) = a.cmd(cmd).map_err(|e| format!("admin {cmd}: {e}"))?;
        if !status.starts_with("ok") {
            return Err(format!("admin {cmd}: {status}"));
        }
        Ok(lines)
    }

    /// Admin `shutdown`, then waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.admin("shutdown")?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if start.elapsed() > DEADLINE => {
                    return Err("daemon did not exit after shutdown".to_owned())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait daemon: {e}")),
            }
        }
    }
}

/// Counters of the daemon's recorder, read through admin `obs`.
struct DaemonCounters {
    counters: HashMap<String, u64>,
    pump_rounds: u64,
}

impl DaemonCounters {
    fn read(d: &Daemon) -> Result<Self, String> {
        let lines = d.admin("obs")?;
        let mut counters = HashMap::new();
        let mut pump_rounds = 0;
        let mut in_hist = false;
        for l in &lines {
            if l.starts_with("== histograms") {
                in_hist = true;
                continue;
            }
            let mut f = l.split_whitespace();
            let (Some(name), Some(v)) = (f.next(), f.next()) else {
                continue;
            };
            if in_hist {
                if name == "serve.net.pump_us" {
                    pump_rounds = v.parse().map_err(|_| format!("bad obs line {l:?}"))?;
                }
            } else if let Ok(v) = v.parse::<u64>() {
                counters.insert(name.to_owned(), v);
            }
        }
        Ok(Self {
            counters,
            pump_rounds,
        })
    }

    fn get(&self, name: &str) -> u64 {
        self.counters
            .get(&format!("serve.net.{name}"))
            .copied()
            .unwrap_or(0)
    }
}

/// What one client connection saw.
#[derive(Default)]
struct Client {
    pushes: u64,
    acks: u64,
    scores: u64,
    bytes: u64,
    /// Arrival time (seconds into the timed phase) of every reply, twice:
    /// as the slicing key and as the value.
    arrivals: Vec<(f64, f64)>,
    /// Arrival time and latency (microseconds) of every scored push.
    latency_us: Vec<(f64, f64)>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

/// The one client thread: sessions opened, then raw frames on the socket.
struct Conn {
    stream: TcpStream,
    ids: Vec<u64>,
    index: HashMap<u64, usize>,
    window: usize,
}

impl Conn {
    fn open(ingest: SocketAddr, width: usize) -> Result<Self, String> {
        let mut c = IngestClient::connect_with_deadline(ingest, DEADLINE)
            .map_err(|e| format!("connect: {e}"))?;
        let mut ids = Vec::new();
        let mut window = 0;
        for _ in 0..SESSIONS {
            let (id, warmup) = c
                .open_session(width)
                .map_err(|e| format!("open session: {e}"))?;
            ids.push(id);
            window = warmup;
        }
        let stream = c
            .stream()
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let index = ids.iter().enumerate().map(|(k, &id)| (id, k)).collect();
        Ok(Self {
            stream,
            ids,
            index,
            window,
        })
    }

    /// Encodes and writes one PushBatch; returns the write instant.
    fn send(
        &mut self,
        entries: Vec<PushEntry>,
        client: &mut Client,
        trace: bool,
    ) -> Result<Instant, String> {
        let n = entries.len() as u64;
        let t = Instant::now();
        let frame = encode_msg(FrameKind::PushBatch, &PushBatchReq { entries });
        if trace {
            client.encode_us.push(us(t));
        }
        let at = Instant::now();
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("write: {e}"))?;
        client.pushes += n;
        client.bytes += frame.len() as u64;
        Ok(at)
    }

    /// Reads one PushReply frame; returns it with its arrival instant.
    fn recv(&mut self, client: &mut Client, trace: bool) -> Result<(PushReply, Instant), String> {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            match read_frame(&mut self.stream, DEFAULT_MAX_PAYLOAD, Some(DEADLINE)) {
                Ok(ReadOutcome::Frame(f)) => {
                    let at = Instant::now();
                    if f.kind != FrameKind::PushReply {
                        return Err(format!("unexpected {:?} frame", f.kind));
                    }
                    let reply: PushReply = f.parse().map_err(|e| format!("reply: {e:?}"))?;
                    if trace {
                        client.decode_us.push(us(t));
                    }
                    client.bytes += (HEADER_LEN + f.payload.len()) as u64;
                    return Ok((reply, at));
                }
                Ok(ReadOutcome::Idle) if start.elapsed() < DEADLINE => {}
                Ok(ReadOutcome::Idle) => return Err("reply timed out".to_owned()),
                Ok(ReadOutcome::Eof) => return Err("daemon closed the connection".to_owned()),
                Err(e) => return Err(format!("read: {e:?}")),
            }
        }
    }
}

/// Checks one reply against the stagger schedule; keeps scores.
fn absorb(
    conn: &Conn,
    reply: PushReply,
    client: &mut Client,
    scored: &mut Vec<Scored>,
    errors: &mut Vec<String>,
) -> Option<usize> {
    let Some(&k) = conn.index.get(&reply.session) else {
        errors.push(format!("reply for unknown session {}", reply.session));
        return None;
    };
    let i = reply.seq as usize;
    let expect = completes_at(i + 1, conn.window);
    match reply.outcome {
        PushOutcome::Ack if !expect => client.acks += 1,
        PushOutcome::Score(d) if expect => {
            client.scores += 1;
            let d = OnlineDetection::from(d);
            if d.sample_index != i {
                errors.push(format!(
                    "session {k} push {i}: score for sample {}",
                    d.sample_index
                ));
            }
            scored.push((k, i, d));
        }
        other => errors.push(format!("session {k} push {i}: unexpected {other:?}")),
    }
    Some(k)
}

/// Streams steady rounds `first..` with `IN_FLIGHT` batches outstanding
/// until `seconds` have passed at a stagger-cycle boundary (or `rounds`
/// rounds, when given); returns the next round and the elapsed seconds.
#[allow(clippy::too_many_arguments)]
fn stream(
    conn: &mut Conn,
    traffic: &Traffic,
    first: usize,
    seconds: f64,
    rounds: Option<usize>,
    client: &mut Client,
    scored: &mut Vec<Scored>,
    errors: &mut Vec<String>,
    trace: bool,
    measure: bool,
) -> Result<(usize, f64), String> {
    let start = Instant::now();
    let mut inflight: VecDeque<(usize, Instant, usize)> = VecDeque::new();
    let mut next = first;
    let mut stopping = false;
    loop {
        while !stopping && inflight.len() < IN_FLIGHT {
            let entries: Vec<PushEntry> = (0..SESSIONS)
                .map(|k| {
                    let i = prefix_len(k, conn.window) + next;
                    PushEntry {
                        session: conn.ids[k],
                        seq: i as u64,
                        records: traffic.push(k, i),
                    }
                })
                .collect();
            let at = conn.send(entries, client, trace)?;
            inflight.push_back((next, at, SESSIONS));
            next += 1;
            if (next - first).is_multiple_of(STRIDE) {
                stopping = match rounds {
                    Some(n) => next - first >= n,
                    None => secs(start) >= seconds,
                };
            }
        }
        if inflight.is_empty() {
            break;
        }
        let (reply, at) = conn.recv(client, trace)?;
        let i = reply.seq as usize;
        let is_score = matches!(reply.outcome, PushOutcome::Score(_));
        if let Some(k) = absorb(conn, reply, client, scored, errors) {
            let round = i.checked_sub(prefix_len(k, conn.window));
            match inflight.iter_mut().find(|b| Some(b.0) == round) {
                Some(b) => {
                    b.2 -= 1;
                    if measure {
                        let t = at.duration_since(start).as_secs_f64();
                        client.arrivals.push((t, t));
                        if is_score {
                            client
                                .latency_us
                                .push((t, at.duration_since(b.1).as_secs_f64() * 1e6));
                        }
                    }
                }
                None => errors.push(format!("session {k} push {i}: reply not in flight")),
            }
        }
        while inflight.front().is_some_and(|b| b.2 == 0) {
            inflight.pop_front();
        }
        if errors.len() > 100 {
            return Err(format!("too many errors, first: {}", errors[0]));
        }
    }
    Ok((next, secs(start)))
}

/// Per-layer figures of the wire path, from the traced pass.
pub struct WireTrace {
    pub daemon_ready_ms: f64,
    pub client_encode_us: f64,
    pub client_decode_us: f64,
    pub bytes_per_push: f64,
    pub pushes_per_pump_round: f64,
    pub wire_tax: f64,
}

/// Runs the wire workload; with `trace`, also returns the wire layers.
pub fn run(
    bin: &Path,
    artifact: &Path,
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Outcome, Option<WireTrace>) {
    let mut out = Outcome::default();
    match run_inner(bin, artifact, traffic, seed, seconds, trace, &mut out) {
        Ok(t) => (out, t),
        Err(e) => {
            out.errors.push(e);
            (out, None)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    bin: &Path,
    artifact: &Path,
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<Option<WireTrace>, String> {
    let snap = read_snapshot(artifact).map_err(|e| format!("read artifact: {e}"))?;
    let width = snap.min_width();

    // Set-up, as deployed: daemon spawn until every session is open.
    let mut setup_s = Vec::new();
    let mut ready_ms = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (daemon, probe, ready) = Daemon::spawn(bin, artifact)?;
        drop(probe);
        let conn = Conn::open(daemon.ingest, width)?;
        setup_s.push(secs(t0));
        ready_ms.push(ready);
        if rep + 1 < SETUP_REPS {
            drop(conn);
            daemon.shutdown()?;
        } else {
            live = Some((daemon, conn));
        }
    }
    let (daemon, mut conn) = live.expect("last set-up kept");
    let window = conn.window;

    // Stagger prefix, one batch per prefix step, each fully answered.
    let mut client = Client::default();
    let mut scored: Vec<Scored> = Vec::new();
    for r in 0..window + STRIDE - 1 {
        let entries: Vec<PushEntry> = (0..SESSIONS)
            .filter(|&k| r < prefix_len(k, window))
            .map(|k| PushEntry {
                session: conn.ids[k],
                seq: r as u64,
                records: traffic.push(k, r),
            })
            .collect();
        let n = entries.len();
        conn.send(entries, &mut client, false)?;
        for _ in 0..n {
            let (reply, _) = conn.recv(&mut client, false)?;
            absorb(&conn, reply, &mut client, &mut scored, &mut out.errors);
        }
    }
    // One untimed warm-up cycle, then the measured rounds.
    let (next, _) = stream(
        &mut conn,
        traffic,
        0,
        0.0,
        Some(STRIDE),
        &mut client,
        &mut scored,
        &mut out.errors,
        false,
        false,
    )?;
    let before = (client.pushes, client.bytes);
    let (end, wall) = stream(
        &mut conn,
        traffic,
        next,
        seconds,
        None,
        &mut client,
        &mut scored,
        &mut out.errors,
        trace,
        true,
    )?;
    let timed_pushes = client.pushes - before.0;
    let timed_bytes = client.bytes - before.1;

    // The daemon's own account must reconcile with the client's.
    let c = DaemonCounters::read(&daemon)?;
    let (pushes, acks, scores) = (c.get("pushes"), c.get("acks"), c.get("scores"));
    let settled = acks + scores + c.get("push_errors") + c.get("dropped_samples");
    if pushes != settled {
        out.errors.push(format!(
            "daemon pushes {pushes} != acks+scores+errors+dropped {settled}"
        ));
    }
    if (pushes, acks, scores) != (client.pushes, client.acks, client.scores) {
        out.errors.push(format!(
            "daemon (pushes, acks, scores) = {:?}, client saw {:?}",
            (pushes, acks, scores),
            (client.pushes, client.acks, client.scores)
        ));
    }
    for bad in [
        "busy",
        "gone",
        "push_errors",
        "proto_errors",
        "replies_dropped",
    ] {
        if c.get(bad) != 0 {
            out.errors
                .push(format!("daemon counted {} {bad}", c.get(bad)));
        }
    }
    let rss = util::peak_rss_mib(&daemon.child.id().to_string());
    drop(conn);
    daemon.shutdown()?;

    // Bit identity with an in-process engine fed the same samples, and the
    // independent recomputation of a seeded sample of windows.
    let engine = ServingEngine::new(snap.clone()).with_threads(THREADS);
    let mut sessions = (0..SESSIONS)
        .map(|_| engine.open_session(width))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("open in-process session: {e}"))?;
    let mut local: Vec<Scored> = Vec::new();
    for (k, session) in sessions.iter_mut().enumerate() {
        for i in 0..prefix_len(k, window) {
            let r = engine.push_opt(session, &traffic.push(k, i));
            serving::record(
                k,
                i,
                completes_at(i + 1, window),
                r,
                &mut local,
                &mut out.errors,
            );
        }
    }
    let mut busy = 0.0;
    for t in 0..end {
        let samples: Vec<Vec<Option<String>>> = (0..SESSIONS)
            .map(|k| traffic.push(k, prefix_len(k, window) + t))
            .collect();
        let t0 = Instant::now();
        let results = engine.push_opt_many(&mut sessions, &samples);
        if t >= next {
            busy += secs(t0);
        }
        for (k, r) in results.into_iter().enumerate() {
            let i = prefix_len(k, window) + t;
            serving::record(
                k,
                i,
                completes_at(i + 1, window),
                r,
                &mut local,
                &mut out.errors,
            );
        }
    }
    let key = |s: &Scored| (s.0, s.1);
    scored.sort_by_key(key);
    local.sort_by_key(key);
    if scored.len() != local.len() {
        out.errors.push(format!(
            "{} scores over the wire, {} in process",
            scored.len(),
            local.len()
        ));
    }
    for (w, l) in scored.iter().zip(&local) {
        let same = key(w) == key(l)
            && w.2.score.to_bits() == l.2.score.to_bits()
            && w.2.coverage.to_bits() == l.2.coverage.to_bits()
            && w.2.alerts == l.2.alerts
            && w.2.dropped_sensors == l.2.dropped_sensors
            && w.2.sample_index == l.2.sample_index;
        if !same {
            out.errors.push(format!(
                "session {} push {}: wire score differs from in-process",
                w.0, w.1
            ));
            break;
        }
    }
    let checked = serving::check_sample(&snap, traffic, &scored, 300, seed, &mut out.errors);

    // Per-slice figures, summarised by their median across the run.
    let lat_slices: Vec<Vec<f64>> = util::slices(&client.latency_us, util::SLICE_S, wall)
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect();
    if lat_slices.is_empty() {
        return Err("no scored pushes in the timed phase".to_owned());
    }
    // A slice's rate counts the replies after its first one over the time
    // from its first reply to its last.
    let rates: Vec<f64> = util::slices(&client.arrivals, util::SLICE_S, wall)
        .iter()
        .filter(|s| s.len() > 1)
        .map(|s| (s.len() - 1) as f64 / (s[s.len() - 1] - s[0]))
        .collect();
    if rates.is_empty() {
        return Err("no reply in the timed phase".to_owned());
    }
    let slice_pct = |p| {
        median(
            &lat_slices
                .iter()
                .map(|s| util::percentile(s, p))
                .collect::<Vec<_>>(),
        )
    };
    let all: Vec<f64> = client.latency_us.iter().map(|&(_, l)| l).collect();
    let wire_rate = timed_pushes as f64 / wall;
    eprintln!(
        "wire_ngram: {} rounds ({timed_pushes} pushes, {} scored windows, {checked} recomputed, \
         {} pump rounds); {:.0} samples/s overall; score latency over the run p50 {:.1} us \
         p90 {:.1} us p99 {:.1} us (n={}); median of {} slices: {:.0} samples/s, p50 {:.1} us, \
         p90 {:.1} us",
        end - next,
        scored.len(),
        c.pump_rounds,
        wire_rate,
        util::percentile(&all, 50.0),
        util::percentile(&all, 90.0),
        util::percentile(&all, 99.0),
        all.len(),
        rates.len(),
        median(&rates),
        slice_pct(50.0),
        slice_pct(90.0),
    );
    out.attempted = timed_pushes;
    out.put("setup_s", median(&setup_s), "s");
    out.put("throughput_per_s", median(&rates), "1/s");
    out.put("latency_p50_us", slice_pct(50.0), "us");
    out.put("latency_p90_us", slice_pct(90.0), "us");
    match rss {
        Ok(v) => out.put("peak_rss_mb", v, "MiB"),
        Err(e) => out.errors.push(e),
    }
    if !trace {
        return Ok(None);
    }
    let in_process_rate = ((end - next) * SESSIONS) as f64 / busy;
    Ok(Some(WireTrace {
        daemon_ready_ms: median(&ready_ms),
        client_encode_us: median(&client.encode_us),
        client_decode_us: median(&client.decode_us),
        bytes_per_push: timed_bytes as f64 / timed_pushes as f64,
        pushes_per_pump_round: pushes as f64 / c.pump_rounds.max(1) as f64,
        wire_tax: in_process_rate / wire_rate,
    }))
}
