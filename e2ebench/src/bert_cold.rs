//! `bert_cold`: closed loop, one client. A request is one full
//! SpikingBERT/SST-2 trace (33 GeMMs at the fig8 bench's 0.06 scale, the
//! paper's 0.2049 bit / 0.0298 product densities, a per-request seed),
//! served layer by layer through one `Session` with a private cache and
//! default admission. Every request is new content, so planning dominates
//! and the cache, scheduler and lifecycle layers do almost nothing.

use std::time::Instant;

use prosperity_core::engine::{AdmissionConfig, EngineConfig, Session};
use prosperity_core::{ProSparsityPlan, ProStats};
use prosperity_models::{Architecture, Dataset, Workload};
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::SpikeMatrix;

use crate::common::{
    checksum, cpu_s, engine_delta, mix, ms, nproc, par_map, peak_rss_mb, reference, reset_peak_rss,
    verify_output, Args, Digest, Layers, Pass, Phase, Tracer,
};
use crate::Outcome;

const BIT_DENSITY: f64 = 0.2049;
const PRO_DENSITY: f64 = 0.0298;
const SCALE: f64 = 0.06;
/// Requests per second of `--seconds` (16 s → 144 requests, so p90 has
/// more than ten samples beyond it).
const REQUESTS_PER_SECOND: u64 = 9;
/// Requests of the bit-for-bit verification pass.
const VERIFY_REQUESTS: usize = 6;
/// Set-ups before, and again after, the measured pass; each builds a
/// session and serves one warm-up request.
const SETUPS_PER_SIDE: usize = 3;

type Request = Vec<SpikeMatrix>;

fn request_spikes(seed: u64) -> Request {
    Workload::new(
        Architecture::SpikingBert,
        Dataset::Sst2,
        BIT_DENSITY,
        PRO_DENSITY,
        seed,
    )
    .generate_trace(SCALE)
    .layers
    .into_iter()
    .map(|l| l.spikes)
    .collect()
}

fn config() -> EngineConfig {
    EngineConfig::default().with_admission(AdmissionConfig::default())
}

pub fn run(args: &Args) -> Outcome {
    let n = (REQUESTS_PER_SECOND * args.seconds) as usize;
    let workers = nproc();
    // The model: one weight set shared by every request.
    let model = Workload::new(
        Architecture::SpikingBert,
        Dataset::Sst2,
        BIT_DENSITY,
        PRO_DENSITY,
        mix(args.seed, 1),
    )
    .generate_trace(SCALE);
    let weights: Vec<WeightMatrix<i64>> = model
        .layers
        .iter()
        .map(|l| l.synthetic_weights(mix(args.seed, 2)))
        .collect();
    // Requests 0..n are measured; n.. are the set-ups' warm-up requests.
    let requests: Vec<Request> = par_map(n + 2 * SETUPS_PER_SIDE, workers, |i| {
        request_spikes(mix(args.seed, 100 + i as u64))
    });
    // Reference checksums, and the product density of every measured
    // request's GeMMs (plan statistics, outside timing).
    let tile = config().tile;
    let (refs, pro): (Vec<Vec<u64>>, Vec<ProStats>) = par_map(requests.len(), workers, |i| {
        let mut pro = ProStats::default();
        let refs = requests[i]
            .iter()
            .zip(&weights)
            .map(|(s, w)| {
                if i < n {
                    pro += *ProSparsityPlan::build_tiled(s, tile).stats();
                }
                reference(s, w)
            })
            .collect();
        (refs, pro)
    })
    .into_iter()
    .unzip();
    let pro = pro.into_iter().fold(ProStats::default(), |a, b| a + b);
    let mut digest = Digest::new();
    weights.iter().for_each(|w| digest.weights(w));
    requests.iter().flatten().for_each(|s| digest.spikes(s));

    // Verification pass: bit for bit against spiking_gemm.
    let mut verify = Phase::default();
    let mut session = Session::<i64>::new(config());
    let mut out = OutputMatrix::zeros(0, 0);
    for (req, want) in requests.iter().zip(&refs).take(VERIFY_REQUESTS) {
        let mut ok = true;
        for ((s, w), &r) in req.iter().zip(&weights).zip(want) {
            session.gemm_into(s, w, &mut out);
            ok &= verify_output(&out, s, w, r);
        }
        verify.add(ok);
    }
    drop(session);

    // Set-ups, half before and half after the measured pass, so one slow
    // stretch of the host does not decide the median. Each tears the
    // previous one down first; the last one serves the traced pass.
    let mut setup = Phase::default();
    let mut setup_times = Vec::with_capacity(2 * SETUPS_PER_SIDE);
    let mut set_up = |k: usize| {
        let t0 = Instant::now();
        let mut s = Session::<i64>::new(config());
        setup.add(serve_one(&mut s, &requests[n + k], &refs[n + k], &weights));
        setup_times.push(t0.elapsed().as_secs_f64());
        s
    };
    let mut session = None;
    for k in 0..SETUPS_PER_SIDE {
        drop(session.take());
        session = Some(set_up(k));
    }
    let mut s = session.take().expect("SETUPS_PER_SIDE > 0");
    reset_peak_rss();
    let (pass, _) = serve(&mut s, &requests[..n], &refs[..n], &weights, None);
    let peak_rss_mb = peak_rss_mb();
    drop(s);
    for k in SETUPS_PER_SIDE..2 * SETUPS_PER_SIDE {
        drop(session.take());
        session = Some(set_up(k));
    }
    let mut s = session.take().expect("SETUPS_PER_SIDE > 0");

    let traced = args.trace.then(|| {
        let mut tracer = Tracer::new(Instant::now());
        let (p, layers) = serve(
            &mut s,
            &requests[..n],
            &refs[..n],
            &weights,
            Some(&mut tracer),
        );
        (p, layers, tracer)
    });

    Outcome {
        digest: digest.hex(),
        verify,
        setup,
        setup_s: crate::common::median(&setup_times),
        pro_density: pro.pro_density(),
        pass,
        peak_rss_mb,
        traced,
    }
}

/// Serves one request untimed (a set-up warm-up); true when every output
/// matched its reference checksum.
fn serve_one(
    session: &mut Session<i64>,
    req: &Request,
    want: &[u64],
    weights: &[WeightMatrix<i64>],
) -> bool {
    let mut out = OutputMatrix::zeros(0, 0);
    req.iter().zip(weights).zip(want).all(|((s, w), &r)| {
        session.gemm_into(s, w, &mut out);
        checksum(&out) == r
    })
}

/// The measured closed loop: each request is submitted when the previous
/// one completes, its layers served in order through `session`.
fn serve(
    session: &mut Session<i64>,
    requests: &[Request],
    refs: &[Vec<u64>],
    weights: &[WeightMatrix<i64>],
    mut tracer: Option<&mut Tracer>,
) -> (Pass, Layers) {
    let mut out = OutputMatrix::zeros(0, 0);
    let mut pass = Pass::default();
    let before = session.stats();
    let cpu0 = cpu_s();
    let start = Instant::now();
    for (r, (req, want)) in requests.iter().zip(refs).enumerate() {
        let submit = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("request", submit, Some(r as u64)));
        let mut ok = true;
        let mut last = submit;
        for (l, ((s, w), &r_sum)) in req.iter().zip(weights).zip(want).enumerate() {
            let call = Instant::now();
            session.gemm_into(s, w, &mut out);
            let returned = Instant::now();
            ok &= checksum(&out) == r_sum;
            let done = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record("session.gemm_into", call, returned, root, Some(r as u64));
                t.record("sink", returned, done, root, Some(r as u64));
            }
            if l > 0 {
                pass.step_gaps_ms.push(ms(done - last));
            }
            last = done;
        }
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.close(root, last);
        }
        pass.latencies_ms.push(ms(last - submit));
        pass.phase.add(ok);
    }
    pass.wall = start.elapsed();
    let mut layers = Layers {
        session: engine_delta(&before, &session.stats()),
        cpu_s: cpu_s() - cpu0,
        ..Layers::default()
    };
    if let Some(t) = tracer {
        layers.call_ms = t.total_ms("session.gemm_into");
        layers.sink_ms = t.total_ms("sink");
        layers.top_ms = layers.call_ms + layers.sink_ms;
    }
    (pass, layers)
}
