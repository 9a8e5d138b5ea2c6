//! End-to-end benchmark of the Prosperity serving runtime.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <bert_cold|stream_hot|mixed_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run generates its inputs from `--seed`, verifies the program's
//! outputs bit for bit against `spikemat::gemm::spiking_gemm` before
//! timing, sets up the serving objects several times (median reported),
//! then serves a fixed amount of work whose size depends only on
//! `--seconds` (never on measured speed), checking every output against a
//! reference checksum. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` serves the same work untraced and then traced, and prints
//! the per-layer split. The last line of standard output is the result
//! object; the exit code is non-zero on any output mismatch. See
//! `README.md` next to this file for why each workload exists and which
//! end-to-end metric each layer metric should move.

mod bert_cold;
mod common;
mod mixed_open;
mod stream_hot;

use common::{emit, Args, Layers, Metrics, Pass, Phase, Tracer};

/// What one workload run produced.
pub struct Outcome {
    /// Digest of every generated input (spikes, weights, schedule).
    pub digest: String,
    /// The bit-for-bit verification pass before timing.
    pub verify: Phase,
    /// Requests served while setting up (warm-up), checksum-checked.
    pub setup: Phase,
    /// Median set-up time over the run's set-ups, in seconds.
    pub setup_s: f64,
    /// Product density of the verification set's GeMMs.
    pub pro_density: f64,
    /// The measured (untraced) pass.
    pub pass: Pass,
    /// Peak RSS over the measured pass, in MB.
    pub peak_rss_mb: f64,
    /// The traced pass, its layer split and its spans (`--trace 1`).
    pub traced: Option<(Pass, Layers, Tracer)>,
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "bert_cold" => bert_cold::run(&args),
        "stream_hot" => stream_hot::run(&args),
        "mixed_open" => mixed_open::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload {other} (bert_cold, stream_hot, mixed_open)");
            std::process::exit(2);
        }
    };
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"threads_effective\": {}, \"parallel\": {}, \"simd_active\": {}, \"input_digest\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        common::nproc(),
        prosperity_core::parallel_threads(),
        prosperity_core::parallel_enabled(),
        prosperity_core::simd_active(),
        outcome.digest,
    );
    println!("run {meta}");
    let mut phases = vec![
        ("verify", outcome.verify),
        ("setup", outcome.setup),
        ("serve", outcome.pass.phase),
    ];
    if let Some((traced, _, _)) = &outcome.traced {
        phases.push(("serve_traced", traced.phase));
    }
    for (name, p) in &phases {
        println!(
            "phase {name:<13} sent {:>6} succeeded {:>6} failed {:>4}",
            p.sent, p.succeeded, p.failed
        );
    }
    let correct = outcome.verify.sent > 0 && phases.iter().all(|(_, p)| p.failed == 0);
    let (attempted, failed, metrics) = match &outcome.traced {
        Some((traced, layers, tracer)) => {
            let path = std::path::PathBuf::from(".bench_run")
                .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            match tracer.write(&path, &meta) {
                Ok(()) => println!("trace {} spans -> {}", tracer.spans.len(), path.display()),
                Err(e) => eprintln!("e2ebench: writing {}: {e}", path.display()),
            }
            for (check, ok) in purpose_checks(&args.workload, layers) {
                println!("check {check}: {}", if ok { "ok" } else { "NOT MET" });
            }
            let m = layers.metrics(traced, outcome.pass.req_per_s());
            (
                outcome.pass.phase.sent + traced.phase.sent,
                outcome.pass.phase.failed + traced.phase.failed,
                m,
            )
        }
        None => (
            outcome.pass.phase.sent,
            outcome.pass.phase.failed,
            end_to_end(&outcome),
        ),
    };
    emit(correct, attempted, failed, &metrics);
    if !correct {
        eprintln!("e2ebench: output mismatch or failed requests");
        std::process::exit(1);
    }
}

/// What the layer split must show for the workload to serve its purpose
/// (printed with every traced run; see `README.md`).
fn purpose_checks(workload: &str, l: &Layers) -> Vec<(&'static str, bool)> {
    let (plan, exec) = (l.session.plan_ns, l.session.exec_ns);
    match workload {
        "bert_cold" => vec![
            ("session.hit_rate < 0.05", l.session.hit_rate() < 0.05),
            (
                "session.plan_ms is the largest layer",
                plan > exec && plan as f64 / 1e6 > l.sink_ms,
            ),
        ],
        "stream_hot" => vec![
            ("session.hit_rate >= 0.9", l.session.hit_rate() >= 0.9),
            (
                "session.exec_ms is the largest layer",
                exec > plan && exec as f64 / 1e6 > l.sink_ms.max(l.drain_ms),
            ),
        ],
        _ => vec![
            ("snapshot.plans_restored > 0", l.plans_restored > 0),
            ("service.snapshots_exported > 0", l.snapshots_exported > 0),
            // About one batch in flight when the last request arrives.
            ("driver.backlog_end <= 4", l.backlog_end <= 4.0),
        ],
    }
}

/// The end-to-end metrics, identical in name and unit on every workload.
fn end_to_end(o: &Outcome) -> Metrics {
    let p = &o.pass;
    let mut m = Metrics::default();
    m.put("req_per_s", "1/s", p.req_per_s());
    m.put(
        "latency_p50_ms",
        "ms",
        common::percentile(&p.latencies_ms, 0.5),
    );
    m.put(
        "latency_p90_ms",
        "ms",
        common::percentile(&p.latencies_ms, 0.9),
    );
    m.put("step_gap_p50_ms", "ms", common::median(&p.step_gaps_ms));
    m.put(
        "success_rate",
        "ratio",
        p.phase.succeeded as f64 / p.phase.sent.max(1) as f64,
    );
    m.put("setup_s", "s", o.setup_s);
    m.put("peak_rss_mb", "MB", o.peak_rss_mb);
    m.put("pro_density", "ratio", o.pro_density);
    m
}
