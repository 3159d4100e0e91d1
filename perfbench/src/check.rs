//! Independent recomputation of the served anomaly score `a_t`.
//!
//! Algorithm 2 in the library batches decode across windows and scores
//! BLEU against precomputed reference n-grams. This check takes the other
//! road on purpose: it re-encodes the window, decodes one sentence at a
//! time through each valid model's frozen translator, scores with plain
//! `sentence_bleu`, and applies the paper's broken rule
//! `f(i, j) < s(i, j) - margin` itself.

use mdes_bleu::sentence_bleu;
use mdes_core::serve::GraphSnapshot;
use mdes_core::{BrokenRule, OnlineDetection};
use mdes_lang::RawTrace;
use mdes_nn::InferArena;

/// `a_t`, `W_t` and coverage of one window, recomputed.
#[derive(Debug, PartialEq)]
pub struct Recomputed {
    pub score: f64,
    pub alerts: Vec<(usize, usize)>,
    pub coverage: f64,
    pub participating: usize,
}

/// Recomputes one window's detection; `dropped` are the original sensor
/// indices the served detection reports as dropped.
pub fn recompute(
    snap: &GraphSnapshot,
    window: &[RawTrace],
    dropped: &[usize],
    arena: &mut InferArena,
) -> Result<Recomputed, String> {
    let len = window.first().map_or(0, |t| t.events.len());
    let sets = snap
        .language()
        .encode_segment(window, 0..len)
        .map_err(|e| format!("encode: {e}"))?;
    if sets.iter().any(|s| s.len() != 1) {
        return Err("a served window must encode to exactly one sentence".to_owned());
    }
    let excluded: Vec<usize> = snap
        .language()
        .languages()
        .iter()
        .enumerate()
        .filter(|(_, l)| dropped.contains(&l.source_index))
        .map(|(node, _)| node)
        .collect();
    let valid = snap.valid_models();
    if valid.is_empty() {
        return Err("snapshot has no valid models".to_owned());
    }
    let cfg = snap.detection();
    let mut participating = 0usize;
    let mut alerts = Vec::new();
    for &k in valid {
        let m = &snap.models()[k];
        if excluded.contains(&m.src) || excluded.contains(&m.dst) {
            continue;
        }
        participating += 1;
        let src = sets[m.src].sentences[0].as_slice();
        let reference = &sets[m.dst].sentences[0];
        let hyp = m
            .translator()
            .translate_batch(&[src], reference.len(), arena)
            .pop()
            .ok_or("translator returned no sentence")?;
        let f = sentence_bleu(&hyp, reference, &cfg.bleu);
        let threshold = match cfg.rule {
            BrokenRule::CorpusScore => m.train_score,
            BrokenRule::DevQuantileFloor => m.dev_floor,
        };
        if f < threshold - cfg.margin {
            alerts.push((m.src, m.dst));
        }
    }
    let score = if participating == 0 {
        0.0
    } else {
        alerts.len() as f64 / participating as f64
    };
    Ok(Recomputed {
        score,
        alerts,
        coverage: participating as f64 / valid.len() as f64,
        participating,
    })
}

/// Compares a served detection with its recomputation, bit for bit, and
/// checks the score's own invariants.
pub fn verify(served: &OnlineDetection, rec: &Recomputed) -> Result<(), String> {
    let a = served.score;
    if !(0.0..=1.0).contains(&a) {
        return Err(format!("a_t = {a} outside [0, 1]"));
    }
    let scaled = a * rec.participating as f64;
    if (scaled - scaled.round()).abs() > 1e-9 {
        return Err(format!(
            "a_t * |valid| = {scaled} is not an integer ({} participating)",
            rec.participating
        ));
    }
    if a.to_bits() != rec.score.to_bits() {
        return Err(format!("served a_t {a} != recomputed {}", rec.score));
    }
    if served.alerts != rec.alerts {
        return Err(format!(
            "served W_t {:?} != recomputed {:?}",
            served.alerts, rec.alerts
        ));
    }
    if served.coverage.to_bits() != rec.coverage.to_bits() {
        return Err(format!(
            "served coverage {} != recomputed {}",
            served.coverage, rec.coverage
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdes_core::serve::{FrozenPairModel, FrozenTranslator};
    use mdes_core::{DetectionConfig, NgramConfig, NgramTranslator};
    use mdes_graph::{RelGraph, ScoreRange};
    use mdes_lang::{LanguagePipeline, WindowConfig};

    fn toggling(name: &str, n: usize, period: usize, phase: usize) -> RawTrace {
        RawTrace::new(
            name,
            (0..n)
                .map(|t| {
                    if ((t + phase) / period).is_multiple_of(2) {
                        "on"
                    } else {
                        "off"
                    }
                    .to_owned()
                })
                .collect(),
        )
    }

    /// Three sensors and all six ordered pairs. Pairs (0,1) and (1,2) get a
    /// training score no window BLEU can reach (always broken); the rest
    /// get one every window clears (never broken). The scores lie outside
    /// BLEU's range on purpose, so only the pair models carry them.
    fn hand_built() -> (GraphSnapshot, Vec<RawTrace>) {
        let traces = vec![
            toggling("a", 400, 5, 0),
            toggling("b", 400, 5, 2),
            toggling("c", 400, 7, 0),
        ];
        let wc = WindowConfig {
            word_len: 5,
            word_stride: 1,
            sent_len: 6,
            sent_stride: 6,
        };
        let lang = LanguagePipeline::fit(&traces, 0..300, wc).expect("fit");
        let train = lang.encode_segment(&traces, 0..300).expect("encode");
        let graph = RelGraph::new(vec!["a".into(), "b".into(), "c".into()]);
        let mut models = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let pairs: Vec<(Vec<u32>, Vec<u32>)> = train[i]
                    .sentences
                    .iter()
                    .cloned()
                    .zip(train[j].sentences.iter().cloned())
                    .collect();
                let t = NgramTranslator::fit(&pairs, &NgramConfig::default());
                let score = if (i, j) == (0, 1) || (i, j) == (1, 2) {
                    150.0
                } else {
                    -50.0
                };
                models.push(FrozenPairModel::new(
                    i,
                    j,
                    score,
                    0.0,
                    FrozenTranslator::Ngram(t),
                ));
            }
        }
        let detection = DetectionConfig {
            valid_range: ScoreRange::closed(-100.0, 200.0),
            margin: 2.0,
            threads: 1,
            ..DetectionConfig::default()
        };
        let snap = GraphSnapshot::from_frozen_parts(graph, lang, detection, models);
        let window: Vec<RawTrace> = traces
            .iter()
            .map(|t| RawTrace::new(t.name.clone(), t.events[300..310].to_vec()))
            .collect();
        (snap, window)
    }

    #[test]
    fn recompute_gives_the_known_broken_set() {
        let (snap, window) = hand_built();
        let mut arena = InferArena::new();
        let rec = recompute(&snap, &window, &[], &mut arena).expect("recompute");
        assert_eq!(rec.alerts, vec![(0, 1), (1, 2)]);
        assert_eq!(rec.participating, 6);
        assert_eq!(rec.score.to_bits(), (2.0f64 / 6.0).to_bits());
        assert_eq!(rec.coverage, 1.0);

        // Algorithm 2 in the library agrees.
        let sets = snap
            .language()
            .encode_segment(&window, 0..10)
            .expect("encode");
        let lib = snap.detect_excluding(&sets, &[]).expect("detect");
        let served = OnlineDetection {
            sample_index: 9,
            score: lib.scores[0],
            alerts: lib.alerts[0].clone(),
            coverage: lib.coverage,
            dropped_sensors: vec![],
        };
        verify(&served, &rec).expect("library detection verifies");
    }

    #[test]
    fn recompute_honours_dropped_sensors() {
        let (snap, window) = hand_built();
        let mut arena = InferArena::new();
        // Dropping sensor c leaves (a,b) and (b,a); only (a,b) is broken.
        let rec = recompute(&snap, &window, &[2], &mut arena).expect("recompute");
        assert_eq!(rec.alerts, vec![(0, 1)]);
        assert_eq!(rec.participating, 2);
        assert_eq!(rec.score, 0.5);
        assert_eq!(rec.coverage.to_bits(), (2.0f64 / 6.0).to_bits());
    }

    #[test]
    fn verify_rejects_a_wrong_score_or_alert_set() {
        let (snap, window) = hand_built();
        let mut arena = InferArena::new();
        let rec = recompute(&snap, &window, &[], &mut arena).expect("recompute");
        let good = OnlineDetection {
            sample_index: 9,
            score: 2.0 / 6.0,
            alerts: vec![(0, 1), (1, 2)],
            coverage: 1.0,
            dropped_sensors: vec![],
        };
        verify(&good, &rec).expect("matches");
        let mut bad = good.clone();
        bad.score = 1.0 / 6.0;
        assert!(verify(&bad, &rec).is_err());
        let mut bad = good.clone();
        bad.alerts = vec![(1, 2), (0, 1)];
        assert!(verify(&bad, &rec).is_err());
        let mut bad = good;
        bad.score = 0.3;
        assert!(verify(&bad, &rec).is_err());
    }
}
