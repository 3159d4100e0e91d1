//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --serve-bin PATH/TO/mdes-serve --work-dir DIR
//! perfbench prepare --seed N --out DIR [--nmt] [--ngram]
//! ```
//!
//! Workloads: `serve_nmt_int8`, `wire_ngram`, `fit_nmt` (see README.md).
//! Serving artifacts are prepared from the seed by a separate `prepare`
//! process, so the measured process only ever reads them. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the metrics — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The exit code is non-zero when any
//! output check fails.

mod check;
mod fit;
mod plants;
mod serving;
mod util;
mod wire;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use plants::{plant, plant_seed, Traffic};
use util::{opt, put, req, Metrics};

const WORKLOADS: [&str; 3] = ["serve_nmt_int8", "wire_ngram", "fit_nmt"];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn fail(error: String) -> Self {
        Self {
            errors: vec![error],
            ..Self::default()
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        put(&mut self.metrics, name, value, unit);
    }

    /// Records the peak resident set of `pid` (`"self"` for this process).
    pub fn put_rss(&mut self, pid: &str, name: &'static str) {
        match util::peak_rss_mib(pid) {
            Ok(v) => self.put(name, v, "MiB"),
            Err(e) => self.errors.push(e),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("prepare") {
        run_prepare(&args)
    } else {
        run_bench(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_prepare(args: &[String]) -> Result<bool, String> {
    let seed: u64 = req(args, "seed")?;
    let out = PathBuf::from(opt(args, "out").ok_or("missing --out")?);
    let (nmt, ngram) = (
        args.iter().any(|a| a == "--nmt"),
        args.iter().any(|a| a == "--ngram"),
    );
    plants::prepare(seed, &out, nmt, ngram)?;
    Ok(true)
}

/// Prepares the artifacts in a child process, as a deployment would.
fn prepare_artifacts(seed: u64, dir: &Path, nmt: bool, ngram: bool) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["prepare", "--seed", &seed.to_string(), "--out"])
        .arg(dir);
    if nmt {
        cmd.arg("--nmt");
    }
    if ngram {
        cmd.arg("--ngram");
    }
    let status = cmd.status().map_err(|e| format!("spawn prepare: {e}"))?;
    if !status.success() {
        return Err(format!("prepare exited with {status}"));
    }
    Ok(())
}

fn run_bench(args: &[String]) -> Result<bool, String> {
    let workload: String = req(args, "workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed: u64 = req(args, "seed")?;
    let seconds: f64 = req(args, "seconds")?;
    let trace = req::<u8>(args, "trace")? == 1;
    let serve_bin = PathBuf::from(opt(args, "serve-bin").ok_or("missing --serve-bin")?);
    let work_root = PathBuf::from(opt(args, "work-dir").ok_or("missing --work-dir")?);
    eprintln!("{}", util::host_line());

    let work = work_root.join(format!("{workload}-{seed}-{}", std::process::id()));
    let need_nmt = trace || workload == "serve_nmt_int8";
    let need_ngram = trace || workload == "wire_ngram";
    if need_nmt || need_ngram {
        prepare_artifacts(seed, &work, need_nmt, need_ngram)?;
    }
    let outcome = if trace {
        traced(&workload, seed, seconds, &serve_bin, &work)
    } else {
        untraced(&workload, seed, seconds, &serve_bin, &work)
    };
    let _ = std::fs::remove_dir_all(&work);

    for e in outcome.errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        util::result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(correct)
}

fn nmt_traffic(seed: u64) -> Traffic {
    Traffic::new(
        &plant(plants::NMT_SENSORS, plant_seed(seed, plants::NMT_SALT)),
        serving::NMT_SESSIONS,
    )
}

fn ngram_traffic(seed: u64) -> Traffic {
    Traffic::new(
        &plant(plants::NGRAM_SENSORS, plant_seed(seed, plants::NGRAM_SALT)),
        wire::SESSIONS,
    )
}

fn untraced(workload: &str, seed: u64, seconds: f64, bin: &Path, work: &Path) -> Outcome {
    match workload {
        "serve_nmt_int8" => serving::run_nmt(
            &work.join(plants::NMT_INT8_FILE),
            &nmt_traffic(seed),
            seed,
            seconds,
        ),
        "wire_ngram" => {
            wire::run(
                bin,
                &work.join(plants::NGRAM_FILE),
                &ngram_traffic(seed),
                seed,
                seconds,
                false,
            )
            .0
        }
        _ => {
            let data = plant(plants::FIT_SENSORS, plant_seed(seed, plants::FIT_SALT));
            fit::run(&data, seed, seconds, false).0
        }
    }
}

/// The traced run. Every layer is timed from this program through its
/// public functions. A layer the traced workload drives is measured on
/// that workload's own traffic for the full `seconds`; a layer it does not
/// drive is measured on a shorter pass of the workload the README maps it
/// to, so every traced run reports every per-layer metric.
fn traced(workload: &str, seed: u64, seconds: f64, bin: &Path, work: &Path) -> Outcome {
    let budget = |w: &str| {
        if w == workload {
            seconds
        } else {
            (seconds / 4.0).max(1.0)
        }
    };
    let mut out = Outcome::default();

    let nmt = serving::trace(
        "serve_nmt_int8",
        &work.join(plants::NMT_INT8_FILE),
        &nmt_traffic(seed),
        serving::NMT_SESSIONS,
        budget("serve_nmt_int8"),
        &mut out.errors,
    );
    let ngram_traffic = ngram_traffic(seed);
    let ngram = serving::trace(
        "wire_ngram",
        &work.join(plants::NGRAM_FILE),
        &ngram_traffic,
        wire::SESSIONS,
        budget("wire_ngram"),
        &mut out.errors,
    );
    let (wire_out, net) = wire::run(
        bin,
        &work.join(plants::NGRAM_FILE),
        &ngram_traffic,
        seed,
        budget("wire_ngram"),
        true,
    );
    let data = plant(plants::FIT_SENSORS, plant_seed(seed, plants::FIT_SALT));
    let (fit_out, algo1) = fit::run(&data, seed, budget("fit_nmt"), true);

    out.errors.extend(wire_out.errors);
    out.errors.extend(fit_out.errors);
    out.failed = wire_out.failed + fit_out.failed;
    let (nmt, ngram, net, algo1) = match (nmt, ngram, net, algo1) {
        (Ok(a), Ok(b), Some(c), Some(d)) => (a, b, c, d),
        (Err(e), _, _, _) | (_, Err(e), _, _) => {
            out.errors.push(e);
            return out;
        }
        _ => {
            out.errors
                .push("a traced pass returned no layer figures".to_owned());
            return out;
        }
    };
    out.attempted = match workload {
        "serve_nmt_int8" => nmt.pushes,
        "wire_ngram" => wire_out.attempted,
        _ => fit_out.attempted,
    };

    // Serving layers come from the traced workload's own in-process pass;
    // `fit_nmt` drives none of them and takes each from the workload the
    // README maps it to.
    let (decode_side, round_side) = match workload {
        "serve_nmt_int8" => (&nmt, &nmt),
        "wire_ngram" => (&ngram, &ngram),
        _ => (&nmt, &ngram),
    };
    let m = &mut out;
    m.put(
        "checkpoint.snapshot_read_ms",
        decode_side.snapshot_read_ms,
        "ms",
    );
    m.put("serve.round_us", decode_side.round_us, "us");
    m.put(
        "serve.parallel_speedup",
        decode_side.parallel_speedup,
        "ratio",
    );
    m.put("serve.session_kib", decode_side.session_kib, "KiB");
    m.put("nn.decode_us", decode_side.decode_us, "us");
    m.put("nn.decode_rows", decode_side.decode_rows, "rows");
    m.put("lang.encode_us", round_side.encode_us, "us");
    m.put("bleu.sentence_us", round_side.bleu_sentence_us, "us");
    m.put("algorithm2.detect_us", round_side.detect_us, "us");
    m.put(
        "algorithm2.overhead_us",
        round_side.detect_overhead_us,
        "us",
    );
    // The recorder is installed only by the daemon, so its price is always
    // taken on the `wire_ngram` traffic.
    m.put("obs.recorder_cost", ngram.recorder_cost, "ratio");
    m.put("net.daemon_ready_ms", net.daemon_ready_ms, "ms");
    m.put("net.client_encode_us", net.client_encode_us, "us");
    m.put("net.client_decode_us", net.client_decode_us, "us");
    m.put("net.bytes_per_push", net.bytes_per_push, "B");
    m.put(
        "net.pushes_per_pump_round",
        net.pushes_per_pump_round,
        "count",
    );
    m.put("net.wire_tax", net.wire_tax, "ratio");
    m.put("lang.fit_ms", algo1.lang_fit_ms, "ms");
    m.put("nn.train_pair_ms", algo1.train_pair_ms, "ms");
    m.put("nn.dev_decode_ms", algo1.dev_decode_ms, "ms");
    m.put("bleu.corpus_ms", algo1.corpus_bleu_ms, "ms");
    m.put("algorithm1.sweep_s", algo1.sweep_s, "s");
    m.put(
        "algorithm1.parallel_efficiency",
        algo1.parallel_efficiency,
        "ratio",
    );
    for (name, metric) in &out.metrics {
        eprintln!(
            "trace {workload}: {name} = {:.4} {}",
            metric.value, metric.unit
        );
    }
    out
}
