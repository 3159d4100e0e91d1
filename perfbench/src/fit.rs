//! The `fit_nmt` workload: Algorithm 1 with the NMT translator over every
//! ordered pair of a 12-sensor plant, on pinned sweep threads.

use mdes_bleu::corpus_bleu;
use mdes_core::algorithm1::{build_graph, FailurePolicy, GraphBuildConfig};
use mdes_core::{train_translator, Translator, TranslatorConfig};
use mdes_lang::{LanguagePipeline, SentenceSet, Vocab};
use mdes_synth::plant::PlantData;
use std::hint::black_box;
use std::time::Instant;

use crate::plants::window_config;
use crate::util::{self, median, secs, SplitMix, THREADS};
use crate::Outcome;

/// Language set-up repetitions per run (each is a few milliseconds).
const SETUP_REPS: usize = 31;
/// Pairs retrained serially per run to check the sweep bit for bit.
const CHECKED_PAIRS: usize = 3;

type Corpora = (LanguagePipeline, Vec<SentenceSet>, Vec<SentenceSet>);

/// Set-up: fit the language on days 1-4 and encode train (1-4) and dev
/// (5-6) corpora. Returns the corpora and each repetition's milliseconds.
fn setup(data: &PlantData, reps: usize) -> Result<(Corpora, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let lang = LanguagePipeline::fit(&data.traces, data.days_range(1, 4), window_config())
            .map_err(|e| format!("language fit: {e}"))?;
        let train = lang
            .encode_segment(&data.traces, data.days_range(1, 4))
            .map_err(|e| format!("encode train: {e}"))?;
        let dev = lang
            .encode_segment(&data.traces, data.days_range(5, 6))
            .map_err(|e| format!("encode dev: {e}"))?;
        times.push(util::us(t0) / 1e3);
        last = Some((lang, train, dev));
    }
    Ok((last.expect("at least one repetition"), times))
}

fn sweep_config() -> GraphBuildConfig {
    GraphBuildConfig {
        translator: TranslatorConfig::neural(),
        threads: THREADS,
        // Quarantine instead of aborting, so a failed pair is counted.
        policy: FailurePolicy::Degrade {
            min_success_fraction: 0.0,
        },
        max_retries: 0,
        ..GraphBuildConfig::default()
    }
}

/// One pair retrained serially, outside the sweep, with its stage times.
struct Retrained {
    score: f64,
    train_ms: f64,
    decode_ms: f64,
    bleu_ms: f64,
}

fn retrain(
    corpora: &Corpora,
    cfg: &GraphBuildConfig,
    i: usize,
    j: usize,
) -> Result<Retrained, String> {
    let (lang, train, dev) = corpora;
    let pairs: Vec<(Vec<u32>, Vec<u32>)> = train[i]
        .sentences
        .iter()
        .cloned()
        .zip(train[j].sentences.iter().cloned())
        .collect();
    let (sv, tv) = (
        lang.languages()[i].vocab.size(),
        lang.languages()[j].vocab.size(),
    );
    let t = Instant::now();
    let model = train_translator(&cfg.translator, &pairs, sv, tv, Vocab::BOS)
        .map_err(|e| format!("retrain ({i} -> {j}): {e}"))?;
    let train_ms = util::us(t) / 1e3;
    let srcs: Vec<&[u32]> = dev[i].sentences.iter().map(Vec::as_slice).collect();
    let t = Instant::now();
    let hyps = model.translate_batch(&srcs, lang.config().sent_len);
    let decode_ms = util::us(t) / 1e3;
    let t = Instant::now();
    let score = black_box(corpus_bleu(&hyps, &dev[j].sentences, &cfg.bleu));
    let bleu_ms = util::us(t) / 1e3;
    Ok(Retrained {
        score,
        train_ms,
        decode_ms,
        bleu_ms,
    })
}

/// Per-layer figures of Algorithm 1, from the traced pass.
pub struct FitTrace {
    pub lang_fit_ms: f64,
    pub train_pair_ms: f64,
    pub dev_decode_ms: f64,
    pub corpus_bleu_ms: f64,
    pub sweep_s: f64,
    pub parallel_efficiency: f64,
}

/// Runs whole sweeps until `seconds` have been measured (at least one);
/// with `trace`, also retrains a larger seeded sample and reports layers.
pub fn run(data: &PlantData, seed: u64, seconds: f64, trace: bool) -> (Outcome, Option<FitTrace>) {
    let mut out = Outcome::default();
    let (corpora, setup_ms) = match setup(data, SETUP_REPS) {
        Ok(v) => v,
        Err(e) => return (Outcome::fail(e), None),
    };
    let (lang, train, dev) = &corpora;
    let n = lang.sensor_count();
    if n != data.traces.len() {
        out.errors.push(format!(
            "{n} of {} sensors survived the language fit",
            data.traces.len()
        ));
    }
    let cfg = sweep_config();
    let mut runtimes_us = Vec::new();
    let mut per_sweep: Vec<[f64; 3]> = Vec::new();
    let mut sweep_s = Vec::new();
    let mut efficiency = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while sweep_s.is_empty() || secs(start) < seconds {
        // Only one trained graph is alive at a time, as in a deployment.
        drop(last.take());
        let t = Instant::now();
        let g = match build_graph(lang, train, dev, &cfg) {
            Ok(g) => g,
            Err(e) => return (Outcome::fail(format!("sweep: {e}")), None),
        };
        let wall = secs(t);
        sweep_s.push(wall);
        let busy: f64 = g.models().iter().map(|m| m.runtime_secs).sum();
        efficiency.push(busy / (THREADS as f64 * wall));
        let rt: Vec<f64> = g.models().iter().map(|m| m.runtime_secs * 1e6).collect();
        if !rt.is_empty() {
            let rate = g.models().len() as f64 / wall;
            per_sweep.push([
                rate,
                util::percentile(&rt, 50.0),
                util::percentile(&rt, 90.0),
            ]);
        }
        runtimes_us.extend(rt);
        out.attempted += (g.models().len() + g.quarantined().len()) as u64;
        out.failed += g.quarantined().len() as u64;
        last = Some(g);
    }
    let g = last.expect("at least one sweep");

    // Every ordered pair trained, none quarantined, every score a BLEU.
    if g.models().len() != n * (n - 1) {
        out.errors.push(format!(
            "{} pair models, expected {}",
            g.models().len(),
            n * (n - 1)
        ));
    }
    for q in g.quarantined() {
        out.errors.push(format!(
            "pair ({} -> {}) quarantined: {}",
            q.src, q.dst, q.error
        ));
    }
    for m in g.models() {
        if !(0.0..=100.0).contains(&m.train_score) {
            out.errors.push(format!(
                "s({}, {}) = {} outside [0, 100]",
                m.src, m.dst, m.train_score
            ));
        }
    }
    // Serial retraining of a seeded sample reproduces the sweep's scores.
    let sample =
        SplitMix::new(seed ^ 0xf17).sample(g.models().len(), if trace { 8 } else { CHECKED_PAIRS });
    let mut stages = Vec::new();
    for &p in &sample {
        let m = &g.models()[p];
        match retrain(&corpora, &cfg, m.src, m.dst) {
            Ok(r) if r.score.to_bits() == m.train_score.to_bits() => stages.push(r),
            Ok(r) => out.errors.push(format!(
                "pair ({} -> {}): retrained score {} != swept {}",
                m.src, m.dst, r.score, m.train_score
            )),
            Err(e) => out.errors.push(e),
        }
    }

    if per_sweep.is_empty() {
        out.errors.push("the sweep trained no pair".to_owned());
        return (out, None);
    }
    let pct = |p| util::percentile(&runtimes_us, p);
    // Each sweep gives a rate and a p50/p90; the run reports their medians.
    let sweep_med = |i: usize| median(&per_sweep.iter().map(|x| x[i]).collect::<Vec<_>>());
    eprintln!(
        "fit_nmt: {} sweeps of {} pairs; sweep {:.3} s; pair runtime over the run p50 {:.0} us \
         p90 {:.0} us p99 {:.0} us (n={}); median of sweeps: {:.2} pairs/s, p50 {:.0} us, \
         p90 {:.0} us; {} pairs retrained serially",
        sweep_s.len(),
        g.models().len(),
        median(&sweep_s),
        pct(50.0),
        pct(90.0),
        pct(99.0),
        runtimes_us.len(),
        sweep_med(0),
        sweep_med(1),
        sweep_med(2),
        stages.len()
    );
    out.put("setup_s", median(&setup_ms) / 1e3, "s");
    out.put("throughput_per_s", sweep_med(0), "1/s");
    out.put("latency_p50_us", sweep_med(1), "us");
    out.put("latency_p90_us", sweep_med(2), "us");
    out.put_rss("self", "peak_rss_mb");
    if !trace || stages.is_empty() {
        return (out, None);
    }
    let med = |f: &dyn Fn(&Retrained) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let t = FitTrace {
        lang_fit_ms: median(&setup_ms),
        train_pair_ms: med(&|r| r.train_ms),
        dev_decode_ms: med(&|r| r.decode_ms),
        corpus_bleu_ms: med(&|r| r.bleu_ms),
        sweep_s: median(&sweep_s),
        parallel_efficiency: median(&efficiency),
    };
    (out, Some(t))
}
