//! The benchmark's inputs: seeded synthetic plants, the serving artifacts
//! prepared from them, and the per-session traffic replayed against them.

use mdes_core::algorithm1::{build_graph, GraphBuildConfig};
use mdes_core::serve::{GraphSnapshot, QuantPolicy};
use mdes_core::{write_snapshot, DetectionConfig, QuantMode, TranslatorConfig};
use mdes_graph::ScoreRange;
use mdes_lang::{LanguagePipeline, RawTrace, WindowConfig};
use mdes_synth::plant::{generate, PlantConfig, PlantData};
use std::path::Path;

use crate::util::THREADS;

/// The window shape of every workload: 10-sample windows, one completion
/// every 6 samples.
pub fn window_config() -> WindowConfig {
    WindowConfig {
        word_len: 5,
        word_stride: 1,
        sent_len: 6,
        sent_stride: 6,
    }
}

/// A plant of `n` sensors: 8 days of 5-minute samples, three components,
/// no rare-event sensors (so every sensor survives the language fit and
/// the pair count is exactly `n(n-1)`) and no injected anomalies.
pub fn plant(n: usize, seed: u64) -> PlantData {
    generate(&PlantConfig {
        n_sensors: n,
        days: 8,
        minutes_per_day: 288,
        n_components: 3,
        anomaly_days: vec![],
        precursor_days: vec![],
        rare_fraction: 0.0,
        seed,
        ..PlantConfig::default()
    })
}

/// Sensors of the NMT serving plant (56 pair models).
pub const NMT_SENSORS: usize = 8;
/// Sensors of the n-gram wire plant (12 pair models).
pub const NGRAM_SENSORS: usize = 4;
/// Sensors of the Algorithm 1 plant (132 pair models).
pub const FIT_SENSORS: usize = 12;

/// Per-workload seed derivation, so the three plants of one `--seed`
/// differ from each other.
pub fn plant_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

pub const NMT_SALT: u64 = 0x6e6d74;
pub const NGRAM_SALT: u64 = 0x6e6772;
pub const FIT_SALT: u64 = 0x666974;

/// Detection settings frozen into both serving artifacts: every trained
/// pair is valid, and a pair is broken when its window BLEU falls more than
/// `margin` below its dev score.
pub fn detection() -> DetectionConfig {
    DetectionConfig {
        valid_range: ScoreRange::closed(0.0, 100.0),
        margin: 2.0,
        ..DetectionConfig::default()
    }
}

/// Fits the language on days 1-4, trains every ordered pair on days 1-4
/// against dev days 5-6, and freezes the result.
fn fit_snapshot(data: &PlantData, translator: TranslatorConfig) -> Result<GraphSnapshot, String> {
    let lang = LanguagePipeline::fit(&data.traces, data.days_range(1, 4), window_config())
        .map_err(|e| format!("language fit: {e}"))?;
    if lang.sensor_count() != data.traces.len() {
        return Err(format!(
            "{} of {} sensors survived the language fit",
            lang.sensor_count(),
            data.traces.len()
        ));
    }
    let train = lang
        .encode_segment(&data.traces, data.days_range(1, 4))
        .map_err(|e| format!("encode train: {e}"))?;
    let dev = lang
        .encode_segment(&data.traces, data.days_range(5, 6))
        .map_err(|e| format!("encode dev: {e}"))?;
    let cfg = GraphBuildConfig {
        translator,
        threads: THREADS,
        ..GraphBuildConfig::default()
    };
    let trained = build_graph(&lang, &train, &dev, &cfg).map_err(|e| format!("sweep: {e}"))?;
    Ok(GraphSnapshot::from_parts(lang, &trained, detection()))
}

/// File names of the prepared artifacts inside the work directory.
pub const NMT_INT8_FILE: &str = "nmt_int8.mdsn";
pub const NGRAM_FILE: &str = "ngram.mdsn";

/// Writes the requested serving artifacts for `seed` into `out`.
pub fn prepare(seed: u64, out: &Path, nmt: bool, ngram: bool) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("mkdir {}: {e}", out.display()))?;
    if nmt {
        let data = plant(NMT_SENSORS, plant_seed(seed, NMT_SALT));
        let f32_snap = fit_snapshot(&data, TranslatorConfig::neural())?;
        let snap = f32_snap
            .quantize(QuantMode::Int8, &QuantPolicy::default())
            .map_err(|e| format!("int8 re-encode: {e}"))?;
        write_snapshot(&out.join(NMT_INT8_FILE), &snap).map_err(|e| e.to_string())?;
    }
    if ngram {
        let data = plant(NGRAM_SENSORS, plant_seed(seed, NGRAM_SALT));
        let snap = fit_snapshot(&data, TranslatorConfig::fast())?;
        write_snapshot(&out.join(NGRAM_FILE), &snap).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Per-session traffic over the plant's test days (7-8): session `k`
/// starts at its own offset and wraps around the test segment, so no two
/// sessions decode the same windows in lockstep.
pub struct Traffic {
    samples: Vec<Vec<String>>,
    sessions: usize,
}

impl Traffic {
    pub fn new(data: &PlantData, sessions: usize) -> Self {
        let test = data.days_range(7, 8);
        Self {
            samples: test.map(|t| data.sample(t)).collect(),
            sessions,
        }
    }

    /// The `i`-th sample session `k` receives (0-based over its lifetime).
    pub fn sample(&self, k: usize, i: usize) -> &[String] {
        let len = self.samples.len();
        let base = k * len / self.sessions.max(1);
        &self.samples[(base + i) % len]
    }

    /// Sample `i` of session `k` as a push with every sensor present.
    pub fn push(&self, k: usize, i: usize) -> Vec<Option<String>> {
        self.sample(k, i).iter().cloned().map(Some).collect()
    }

    /// The window that session `k`'s push `i` completed: samples
    /// `i + 1 - window ..= i`, one trace per original sensor.
    pub fn window(&self, k: usize, i: usize, window: usize) -> Vec<RawTrace> {
        let width = self.sample(k, 0).len();
        (0..width)
            .map(|s| {
                RawTrace::new(
                    format!("s{s}"),
                    (i + 1 - window..=i)
                        .map(|j| self.sample(k, j)[s].clone())
                        .collect(),
                )
            })
            .collect()
    }
}
