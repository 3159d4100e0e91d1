//! In-process serving through `ServingEngine::push_opt_many`: the
//! `serve_nmt_int8` workload, and the traced decomposition of a scoring
//! round that both serving workloads report.

use mdes_bleu::{sentence_bleu_pre, RefNgrams};
use mdes_core::serve::{GraphSnapshot, ServingEngine, StreamSession};
use mdes_core::{read_snapshot, OnlineDetection};
use mdes_nn::InferArena;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::check;
use crate::plants::Traffic;
use crate::util::{
    self, completes, completes_at, median, prefix_len, secs, us, SplitMix, STRIDE, THREADS,
};
use crate::Outcome;

/// One served window: session, the session-local index of the push that
/// completed it, and the detection.
pub type Scored = (usize, usize, OnlineDetection);

/// An engine with its sessions open.
pub struct Serving {
    pub engine: ServingEngine,
    pub sessions: Vec<StreamSession>,
    pub snap: Arc<GraphSnapshot>,
    pub window: usize,
    /// Steady rounds pushed so far.
    rounds: usize,
}

/// Set-up as deployed: read the MDSN artifact, start an engine with pinned
/// threads, open every session. Repeated `reps` times; returns the last
/// engine, the set-up seconds of every repetition and the artifact read
/// milliseconds of every repetition.
pub fn setup(
    path: &Path,
    sessions: usize,
    reps: usize,
) -> Result<(Serving, Vec<f64>, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    let mut read_ms = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let snap = read_snapshot(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        read_ms.push(us(t0) / 1e3);
        let width = snap.min_width();
        let engine = ServingEngine::new(snap).with_threads(THREADS);
        let open: Vec<StreamSession> = (0..sessions)
            .map(|_| engine.open_session(width))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("open session: {e}"))?;
        setup_s.push(secs(t0));
        let snap = engine.snapshot();
        let window = snap.language().config().min_samples();
        last = Some(Serving {
            engine,
            sessions: open,
            snap,
            window,
            rounds: 0,
        });
    }
    Ok((last.expect("at least one repetition"), setup_s, read_ms))
}

impl Serving {
    /// Pushes every session its stagger prefix, one session at a time.
    pub fn prefix(
        &mut self,
        traffic: &Traffic,
        scored: &mut Vec<Scored>,
        errors: &mut Vec<String>,
    ) {
        for k in 0..self.sessions.len() {
            for i in 0..prefix_len(k, self.window) {
                let r = self
                    .engine
                    .push_opt(&mut self.sessions[k], &traffic.push(k, i));
                let expect = completes_at(i + 1, self.window);
                record(k, i, expect, r, scored, errors);
            }
        }
    }

    /// The samples of the next steady round, built outside any timer.
    pub fn next_samples(&self, traffic: &Traffic) -> Vec<Vec<Option<String>>> {
        (0..self.sessions.len())
            .map(|k| traffic.push(k, prefix_len(k, self.window) + self.rounds))
            .collect()
    }

    /// Runs one steady round; returns its wall time in microseconds and the
    /// `(session, push index)` of every window it completed.
    pub fn round(
        &mut self,
        samples: &[Vec<Option<String>>],
        scored: &mut Vec<Scored>,
        errors: &mut Vec<String>,
    ) -> (f64, Vec<(usize, usize)>) {
        let t = self.rounds;
        let start = Instant::now();
        let results = self.engine.push_opt_many(&mut self.sessions, samples);
        let wall = us(start);
        let mut done = Vec::new();
        for (k, r) in results.into_iter().enumerate() {
            let i = prefix_len(k, self.window) + t;
            if completes(k, t) {
                done.push((k, i));
            }
            record(k, i, completes(k, t), r, scored, errors);
        }
        self.rounds += 1;
        (wall, done)
    }
}

/// Checks one push outcome against the stagger schedule and keeps scores.
pub fn record(
    k: usize,
    i: usize,
    expect_score: bool,
    r: Result<Option<OnlineDetection>, mdes_core::CoreError>,
    scored: &mut Vec<Scored>,
    errors: &mut Vec<String>,
) {
    match r {
        Err(e) => errors.push(format!("session {k} push {i}: {e}")),
        Ok(Some(d)) if expect_score => {
            if d.sample_index != i {
                errors.push(format!(
                    "session {k} push {i}: detection for sample {}",
                    d.sample_index
                ));
            }
            scored.push((k, i, d));
        }
        Ok(None) if !expect_score => {}
        Ok(got) => errors.push(format!(
            "session {k} push {i}: expected {}, got {}",
            if expect_score { "a score" } else { "no score" },
            if got.is_some() { "a score" } else { "none" }
        )),
    }
}

/// Recomputes `a_t` apart from Algorithm 2 for a seeded sample of served
/// windows; returns how many were checked.
pub fn check_sample(
    snap: &GraphSnapshot,
    traffic: &Traffic,
    scored: &[Scored],
    n: usize,
    seed: u64,
    errors: &mut Vec<String>,
) -> usize {
    let window = snap.language().config().min_samples();
    let mut arena = InferArena::new();
    let picks = SplitMix::new(seed ^ 0xc4ec).sample(scored.len(), n);
    for &p in &picks {
        let (k, i, d) = &scored[p];
        match check::recompute(
            snap,
            &traffic.window(*k, *i, window),
            &d.dropped_sensors,
            &mut arena,
        )
        .and_then(|rec| check::verify(d, &rec))
        {
            Ok(()) => {}
            Err(e) => errors.push(format!("session {k} push {i}: {e}")),
        }
    }
    picks.len()
}

/// Sessions of the `serve_nmt_int8` workload.
pub const NMT_SESSIONS: usize = 16;

/// Windows per run whose `a_t` is recomputed independently.
const CHECKED_WINDOWS: usize = 300;

/// The `serve_nmt_int8` workload: staggered closed-loop rounds over the
/// int8 NMT artifact until `seconds` have been measured, in whole stagger
/// cycles after one untimed warm-up cycle.
pub fn run_nmt(artifact: &Path, traffic: &Traffic, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut s, setup_s, _) = match setup(artifact, NMT_SESSIONS, 5) {
        Ok(v) => v,
        Err(e) => return Outcome::fail(e),
    };
    let mut scored = Vec::new();
    s.prefix(traffic, &mut scored, &mut out.errors);
    for _ in 0..STRIDE {
        let samples = s.next_samples(traffic);
        s.round(&samples, &mut scored, &mut out.errors);
    }
    // (seconds into the timed phase at the round's end, round wall time)
    let mut rounds: Vec<(f64, f64)> = Vec::new();
    let start = Instant::now();
    let mut wall = 0.0;
    while wall < seconds {
        for _ in 0..STRIDE {
            let samples = s.next_samples(traffic);
            let us = s.round(&samples, &mut scored, &mut out.errors).0;
            rounds.push((secs(start), us));
        }
        wall = secs(start);
    }
    let pushes = (rounds.len() * NMT_SESSIONS) as u64;
    let checked = check_sample(
        &s.snap,
        traffic,
        &scored,
        CHECKED_WINDOWS,
        seed,
        &mut out.errors,
    );
    // Per-slice figures, summarised by their median across the run.
    let slices: Vec<Vec<f64>> = util::slices(&rounds, util::SLICE_S, wall)
        .into_iter()
        .filter(|x| !x.is_empty())
        .collect();
    let rates: Vec<f64> = slices
        .iter()
        .map(|x| (x.len() * NMT_SESSIONS) as f64 / (x.iter().sum::<f64>() / 1e6))
        .collect();
    let slice_pct = |p| {
        median(
            &slices
                .iter()
                .map(|x| util::percentile(x, p))
                .collect::<Vec<_>>(),
        )
    };
    let all: Vec<f64> = rounds.iter().map(|&(_, us)| us).collect();
    eprintln!(
        "serve_nmt_int8: {} rounds ({pushes} pushes, {} windows scored, {checked} recomputed); \
         round over the run p50 {:.1} us p90 {:.1} us p99 {:.1} us (n={}); median of {} slices: \
         {:.0} samples/s, p50 {:.1} us, p90 {:.1} us",
        all.len(),
        scored.len(),
        util::percentile(&all, 50.0),
        util::percentile(&all, 90.0),
        util::percentile(&all, 99.0),
        all.len(),
        slices.len(),
        median(&rates),
        slice_pct(50.0),
        slice_pct(90.0),
    );
    out.attempted = pushes;
    out.put("setup_s", median(&setup_s), "s");
    out.put("throughput_per_s", median(&rates), "1/s");
    out.put("latency_p50_us", slice_pct(50.0), "us");
    out.put("latency_p90_us", slice_pct(90.0), "us");
    out.put_rss("self", "peak_rss_mb");
    out
}

/// Per-layer figures of in-process serving, from the traced pass.
pub struct ServingTrace {
    pub snapshot_read_ms: f64,
    pub round_us: f64,
    pub parallel_speedup: f64,
    pub session_kib: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub decode_rows: f64,
    pub bleu_sentence_us: f64,
    pub detect_us: f64,
    pub detect_overhead_us: f64,
    pub recorder_cost: f64,
    /// Steady pushes the pass made.
    pub pushes: u64,
}

/// Stage self times of one round's replay, in microseconds.
#[derive(Default, Clone, Copy)]
struct Stages {
    encode: f64,
    decode: f64,
    bleu: f64,
}

/// The traced pass: every steady round runs untraced, then its completed
/// windows are replayed through `encode_segment`, `translate_batch` and
/// `sentence_bleu_pre` to time each stage. Afterwards a sample of windows
/// goes through `GraphSnapshot::detect_excluding` on one thread, and
/// alternating cycles with and without an installed `mdes_obs::Recorder`
/// price the recorder.
pub fn trace(
    label: &str,
    artifact: &Path,
    traffic: &Traffic,
    sessions: usize,
    seconds: f64,
    errors: &mut Vec<String>,
) -> Result<ServingTrace, String> {
    let (mut s, _, read_ms) = setup(artifact, sessions, 3)?;
    let snap = Arc::clone(&s.snap);
    let cfg = snap.detection().clone();
    let valid: Vec<usize> = snap.valid_models().to_vec();
    let mut scored = Vec::new();
    s.prefix(traffic, &mut scored, errors);
    for _ in 0..STRIDE {
        let samples = s.next_samples(traffic);
        s.round(&samples, &mut scored, errors);
    }

    let mut arena = InferArena::new();
    let mut walls = Vec::new();
    let mut stages: Vec<Stages> = Vec::new();
    let (mut encode_us, mut decode_us, mut rows, mut bleu_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut replayed = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds * 0.6 {
        for _ in 0..STRIDE {
            let samples = s.next_samples(traffic);
            let (wall, done) = s.round(&samples, &mut scored, errors);
            walls.push(wall);
            let mut st = Stages::default();
            let windows: Vec<_> = done
                .iter()
                .map(|&(k, i)| traffic.window(k, i, s.window))
                .collect();
            let mut sets = Vec::new();
            for w in &windows {
                let t = Instant::now();
                let enc = snap
                    .language()
                    .encode_segment(w, 0..s.window)
                    .map_err(|e| format!("encode: {e}"))?;
                let e = us(t);
                encode_us.push(e);
                st.encode += e;
                sets.push(enc);
            }
            for &m in &valid {
                let model = &snap.models()[m];
                let srcs: Vec<&[u32]> = sets
                    .iter()
                    .map(|x| x[model.src].sentences[0].as_slice())
                    .collect();
                if srcs.is_empty() {
                    continue;
                }
                let out_len = sets[0][model.dst].sentences[0].len();
                let t = Instant::now();
                let hyps = model
                    .translator()
                    .translate_batch(&srcs, out_len, &mut arena);
                let d = us(t);
                decode_us.push(d);
                rows.push(srcs.len() as f64);
                st.decode += d;
                let grams: Vec<RefNgrams<u32>> = sets
                    .iter()
                    .map(|x| RefNgrams::new(&x[model.dst].sentences[0], cfg.bleu.max_n))
                    .collect();
                let t = Instant::now();
                for (h, g) in hyps.iter().zip(&grams) {
                    black_box(sentence_bleu_pre(h, g, &cfg.bleu));
                }
                let b = us(t);
                bleu_us.push(b / hyps.len() as f64);
                st.bleu += b;
            }
            replayed.extend(sets);
            stages.push(st);
        }
    }
    print_rounds(label, &walls, &stages);

    // Algorithm 2 on one window at a time, on one pinned thread, next to
    // that window's own decode and BLEU time.
    let mut det = snap.detection().clone();
    det.threads = 1;
    let pinned = GraphSnapshot::from_frozen_parts(
        snap.graph().clone(),
        snap.language().clone(),
        det,
        snap.models().to_vec(),
    );
    let mut detect_us = Vec::new();
    let mut overhead_us = Vec::new();
    for sets in replayed.iter().take(200) {
        let t = Instant::now();
        black_box(
            pinned
                .detect_excluding(sets, &[])
                .map_err(|e| format!("detect: {e}"))?,
        );
        let whole = us(t);
        let mut own = 0.0;
        for &m in &valid {
            let model = &snap.models()[m];
            let src = sets[model.src].sentences[0].as_slice();
            let reference = &sets[model.dst].sentences[0];
            let t = Instant::now();
            let hyp = model
                .translator()
                .translate_batch(&[src], reference.len(), &mut arena);
            own += us(t);
            let g = RefNgrams::new(reference, cfg.bleu.max_n);
            let t = Instant::now();
            black_box(sentence_bleu_pre(&hyp[0], &g, &cfg.bleu));
            own += us(t);
        }
        detect_us.push(whole);
        overhead_us.push(whole - own);
    }

    // Recorder price: alternate whole cycles without and with a recorder.
    let (mut plain, mut recorded) = (0.0, 0.0);
    let start = Instant::now();
    let mut cycle = 0usize;
    while cycle < 4 || secs(start) < seconds * 0.4 {
        let with = cycle % 2 == 1;
        if with {
            mdes_obs::install(Arc::new(mdes_obs::Recorder::new()));
        }
        for _ in 0..STRIDE {
            let samples = s.next_samples(traffic);
            let wall = s.round(&samples, &mut scored, errors).0;
            if with {
                recorded += wall;
            } else {
                plain += wall;
            }
        }
        if with {
            mdes_obs::uninstall();
        }
        cycle += 1;
    }
    check_sample(&snap, traffic, &scored, 50, 0x7ace, errors);

    let session_bytes: f64 = s.sessions.iter().map(|x| x.approx_bytes() as f64).sum();
    let serial: f64 = stages.iter().map(|x| x.encode + x.decode + x.bleu).sum();
    let wall_sum: f64 = walls.iter().sum();
    Ok(ServingTrace {
        snapshot_read_ms: median(&read_ms),
        round_us: median(&walls),
        parallel_speedup: serial / wall_sum,
        session_kib: session_bytes / s.sessions.len() as f64 / 1024.0,
        encode_us: median(&encode_us),
        decode_us: median(&decode_us),
        decode_rows: rows.iter().sum::<f64>() / rows.len().max(1) as f64,
        bleu_sentence_us: median(&bleu_us),
        detect_us: median(&detect_us),
        detect_overhead_us: median(&overhead_us),
        recorder_cost: recorded / plain,
        pushes: (s.rounds * s.sessions.len()) as u64,
    })
}

/// Prints one stagger cycle of rounds with the self time of each replayed
/// stage, then the medians, so the stages can be held against the round.
fn print_rounds(label: &str, walls: &[f64], stages: &[Stages]) {
    eprintln!("{label}: round_us  encode_us  decode_us  bleu_us  serial_sum_us");
    for (w, st) in walls.iter().zip(stages).take(STRIDE) {
        eprintln!(
            "{label}: {w:9.1} {:10.1} {:10.1} {:8.1} {:14.1}",
            st.encode,
            st.decode,
            st.bleu,
            st.encode + st.decode + st.bleu
        );
    }
    let med = |f: &dyn Fn(&Stages) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "{label}: median over {} rounds: round {:.1} us = encode {:.1} + decode {:.1} + bleu {:.1} \
         (serial) over the round's threads",
        walls.len(),
        median(walls),
        med(&|x| x.encode),
        med(&|x| x.decode),
        med(&|x| x.bleu)
    );
}
