//! `mixed_open`: open loop. Seeded Poisson arrivals at one fixed offered
//! rate, generated by the single driver thread; 85% of requests are short
//! correlated tenant requests (8 timesteps of 512×256 spikes against 256×64
//! weights), 15% are large cold requests (one encoder block — 8 GeMMs — of
//! a fresh SpikingBERT trace). The `ServingLoop`
//! warm-starts from a `SnapshotStore` that an untimed pre-pass wrote, and
//! runs with the deadline policy, a one-row-tile slice quantum, admission
//! GC, and snapshot persistence to that store. Requests that arrive while
//! a batch runs join the next `run_batch_as`. It is the only workload where
//! requests queue, and the only one where the cache takes bulk imports
//! beside lookups.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prosperity_core::engine::{
    AdmissionConfig, BatchPolicy, EngineConfig, ImportReport, ServiceConfig, ServingLoop,
    SnapshotStore, TraceStep,
};
use prosperity_core::{ProSparsityPlan, ProStats};
use prosperity_models::{Architecture, Dataset, TraceGen, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikemat::gemm::WeightMatrix;
use spikemat::{SpikeMatrix, TileShape};

use crate::common::{
    checksum, cpu_s, median, mix, ms, nproc, par_map, peak_rss_mb, percentile, reference,
    reset_peak_rss, run_dir, shared_delta, verify_output, Args, Digest, Layers, Pass, Phase,
    Tracer,
};
use crate::Outcome;

const BIT_DENSITY: f64 = 0.2049;
const PRO_DENSITY: f64 = 0.0298;
/// Offered load in requests per second. The count per run is this times
/// `--seconds`, fixed before anything is measured.
const RATE: f64 = 14.0;
/// Percent of requests that are cold (an exact share, shuffled).
const COLD_PERCENT: usize = 15;
const TENANTS: usize = 8;
const SHORT_STEPS: usize = 8;
/// Requests per tenant the untimed pre-pass serves to write the warm
/// image (the first ones of each tenant's stream).
const WARM_REQUESTS: usize = 8;
const ROWS: usize = 512;
const K: usize = 256;
const N: usize = 64;
const PERSISTENCE: f64 = 0.999;
const TENANT_CORRELATION: f64 = 0.999;
/// GeMMs of one SpikingBERT encoder block at the fig8 bench's scale.
const COLD_LAYERS: usize = 8;
const COLD_SCALE: f64 = 0.06;
/// One admission tenant for all cold traffic, so its window learns that
/// cold plans are not worth inserting.
const COLD_TENANT: u64 = 1 << 20;
const CAPACITY: usize = 4096;
/// Plans in the warm image: fewer than the pre-pass's distinct tiles, so
/// the image's size, and the load it costs, do not vary with the seed.
const IMAGE_PLANS: usize = 2048;
const SLICE_QUANTUM: usize = 1;
/// Deadline budget, in scheduler visits, per short request in a batch:
/// the slices one short request needs (its GeMMs are two row-tiles high).
const SHORT_BUDGET: u64 = (SHORT_STEPS * ROWS.div_ceil(256) / SLICE_QUANTUM) as u64;
const SNAPSHOT_EVERY: usize = 256;
const SNAPSHOT_PLANS: usize = 1024;
const GC_EVERY: usize = 128;
const GC_MAX_IDLE: u64 = 4;
const RETAIN: usize = 2;
/// Requests per tenant, and cold requests, in the bit-for-bit
/// verification pass.
const VERIFY_SHORT: usize = 4;
const VERIFY_COLD: usize = 4;
/// Set-ups before, and again after, the measured pass; each opens the
/// store, builds the loop, loads the newest valid snapshot and imports it.
const SETUPS_PER_SIDE: usize = 4;

#[derive(Clone, Copy)]
enum Kind {
    /// The tenant's `seq`-th request: timesteps `seq * SHORT_STEPS..` of
    /// its stream, which continues from request to request.
    Short {
        tenant: usize,
        seq: usize,
    },
    Cold {
        index: usize,
    },
}

struct Request {
    /// Seconds after the start of the schedule.
    due: f64,
    kind: Kind,
}

/// Generated inputs, borrowed by the traces the loop serves.
struct Inputs {
    short: Vec<Vec<SpikeMatrix>>,
    short_weights: WeightMatrix<i64>,
    cold: Vec<Vec<SpikeMatrix>>,
    cold_weights: Vec<WeightMatrix<i64>>,
    short_refs: Vec<u64>,
    cold_refs: Vec<Vec<u64>>,
    /// Product-density statistics over every GeMM input.
    pro: ProStats,
}

struct Traces<'a> {
    short: Vec<Vec<TraceStep<'a, i64>>>,
    cold: Vec<Vec<TraceStep<'a, i64>>>,
}

impl Inputs {
    fn traces(&self) -> Traces<'_> {
        Traces {
            short: self
                .short
                .iter()
                .map(|s| s.iter().map(|m| (m, &self.short_weights)).collect())
                .collect(),
            cold: self
                .cold
                .iter()
                .map(|c| c.iter().zip(&self.cold_weights).collect())
                .collect(),
        }
    }

    fn reference(&self, kind: Kind, step: usize) -> u64 {
        match kind {
            Kind::Short { tenant, seq } => {
                self.short_refs[tenant * self.short[0].len() + seq * SHORT_STEPS + step]
            }
            Kind::Cold { index } => self.cold_refs[index][step],
        }
    }
}

impl<'a> Traces<'a> {
    fn steps(&self, kind: Kind) -> &[TraceStep<'a, i64>] {
        match kind {
            Kind::Short { tenant, seq } => {
                &self.short[tenant][seq * SHORT_STEPS..(seq + 1) * SHORT_STEPS]
            }
            Kind::Cold { index } => &self.cold[index],
        }
    }
}

fn tenant_of(kind: Kind) -> u64 {
    match kind {
        Kind::Short { tenant, .. } => tenant as u64,
        Kind::Cold { .. } => COLD_TENANT,
    }
}

fn config() -> EngineConfig {
    EngineConfig::new(TileShape::prosperity_default(), CAPACITY)
        .with_admission(AdmissionConfig::default())
}

/// The fixed arrival schedule: `n` requests, exactly `COLD_PERCENT`
/// percent cold, exponential gaps scaled so the last arrival is due at exactly
/// `n / RATE` seconds (the offered rate does not vary with the seed).
fn schedule(n: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 7));
    let colds = (n * COLD_PERCENT).div_ceil(100);
    let mut cold: Vec<bool> = (0..n).map(|i| i < colds).collect();
    for i in (1..n).rev() {
        cold.swap(i, rng.gen_range(0..=i));
    }
    let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - rng.gen::<f64>()).ln()).collect();
    let scale = n as f64 / RATE / gaps.iter().sum::<f64>();
    let mut next_seq = [0usize; TENANTS];
    let mut cold_count = 0;
    let mut due = 0.0;
    cold.into_iter()
        .zip(gaps)
        .map(|(is_cold, gap)| {
            due += gap * scale;
            let kind = if is_cold {
                cold_count += 1;
                Kind::Cold {
                    index: cold_count - 1,
                }
            } else {
                let tenant = rng.gen_range(0..TENANTS);
                next_seq[tenant] += 1;
                Kind::Short {
                    tenant,
                    seq: next_seq[tenant] - 1,
                }
            };
            Request { due, kind }
        })
        .collect()
}

/// Inputs for `requests_per_tenant` short requests of every tenant and
/// `cold_count` cold requests.
fn generate(seed: u64, requests_per_tenant: usize, cold_count: usize) -> Inputs {
    let workers = nproc();
    let bert = |s: u64| {
        Workload::new(
            Architecture::SpikingBert,
            Dataset::Sst2,
            BIT_DENSITY,
            PRO_DENSITY,
            s,
        )
    };
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    // The short streams' generator is calibrated once for the model (the
    // paper suite's SpikingBERT/SST-2 entry) and sampled from the run seed.
    let short = TraceGen::new(Workload::spikingbert_sst2().gen_params()).generate_tenant_streams(
        TENANTS,
        requests_per_tenant * SHORT_STEPS,
        ROWS,
        K,
        PERSISTENCE,
        TENANT_CORRELATION,
        &mut rng,
    );
    let short_weights = WeightMatrix::from_fn(K, N, |_, _| rng.gen_range(-127i64..=127));
    let cold_weights: Vec<WeightMatrix<i64>> = bert(mix(seed, 3))
        .generate_trace(COLD_SCALE)
        .layers
        .iter()
        .take(COLD_LAYERS)
        .map(|l| l.synthetic_weights(mix(seed, 4)))
        .collect();
    let cold: Vec<Vec<SpikeMatrix>> = par_map(cold_count, workers, |c| {
        let trace = bert(mix(seed, 100 + c as u64)).generate_trace(COLD_SCALE);
        trace
            .layers
            .into_iter()
            .take(COLD_LAYERS)
            .map(|l| l.spikes)
            .collect()
    });
    // Reference checksums, and the product density of every GeMM input
    // (plan statistics, outside timing).
    let tile = config().tile;
    let pro_of = |s: &SpikeMatrix| *ProSparsityPlan::build_tiled(s, tile).stats();
    let flat: Vec<&SpikeMatrix> = short.iter().flatten().collect();
    let (short_refs, short_pro): (Vec<u64>, Vec<ProStats>) = par_map(flat.len(), workers, |i| {
        (reference(flat[i], &short_weights), pro_of(flat[i]))
    })
    .into_iter()
    .unzip();
    let (cold_refs, cold_pro): (Vec<Vec<u64>>, Vec<ProStats>) = par_map(cold.len(), workers, |c| {
        let refs = cold[c]
            .iter()
            .zip(&cold_weights)
            .map(|(s, w)| reference(s, w))
            .collect();
        let pro = cold[c]
            .iter()
            .map(pro_of)
            .fold(ProStats::default(), |a, b| a + b);
        (refs, pro)
    })
    .into_iter()
    .unzip();
    let pro = short_pro
        .into_iter()
        .chain(cold_pro)
        .fold(ProStats::default(), |a, b| a + b);
    Inputs {
        short,
        short_weights,
        cold,
        cold_weights,
        short_refs,
        cold_refs,
        pro,
    }
}

pub fn run(args: &Args) -> Outcome {
    let n = (RATE * args.seconds as f64).round() as usize;
    let requests = schedule(n, args.seed);
    let cold_count = requests
        .iter()
        .filter(|r| matches!(r.kind, Kind::Cold { .. }))
        .count();
    let per_tenant = requests
        .iter()
        .filter_map(|r| match r.kind {
            Kind::Short { seq, .. } => Some(seq + 1),
            Kind::Cold { .. } => None,
        })
        .max()
        .unwrap_or(0)
        .max(WARM_REQUESTS)
        .max(VERIFY_SHORT);
    let inputs = generate(args.seed, per_tenant, cold_count.max(VERIFY_COLD));
    let traces = inputs.traces();
    let mut digest = Digest::new();
    digest.weights(&inputs.short_weights);
    inputs.cold_weights.iter().for_each(|w| digest.weights(w));
    inputs.short.iter().flatten().for_each(|s| digest.spikes(s));
    inputs.cold.iter().flatten().for_each(|s| digest.spikes(s));
    for r in &requests {
        digest.word(r.due.to_bits());
        digest.word(tenant_of(r.kind));
    }

    // Untimed pre-pass: serve the first requests of every tenant's stream
    // and write the warm image the measured loop starts from.
    let dir = run_dir(&args.workload, args.seed);
    let image = dir.join("image");
    {
        let mut pre =
            ServingLoop::<i64>::new(config(), BatchPolicy::RoundRobin, Default::default());
        let tenants: Vec<u64> = (0..TENANTS as u64).collect();
        let warm: Vec<&[TraceStep<i64>]> = traces
            .short
            .iter()
            .map(|s| &s[..WARM_REQUESTS * SHORT_STEPS])
            .collect();
        pre.run_batch_as(&tenants, &warm, |_, _, _| {});
        let snapshot = pre.shared_cache().export_hottest(IMAGE_PLANS);
        SnapshotStore::new(&image, RETAIN)
            .and_then(|s| s.save(&snapshot))
            .expect("writing the warm image");
    }

    // Verification pass: warm-started like the measured loop; the first
    // requests of every tenant and the first cold requests, bit for bit.
    let mut verify = Phase::default();
    {
        let (mut serving, _) = set_up(&prepare_store(&dir, &image, "verify"));
        let mut batch: Vec<Kind> = Vec::new();
        for seq in 0..VERIFY_SHORT.max(VERIFY_COLD) {
            batch.clear();
            if seq < VERIFY_SHORT {
                batch.extend((0..TENANTS).map(|tenant| Kind::Short { tenant, seq }));
            }
            if seq < VERIFY_COLD {
                batch.push(Kind::Cold { index: seq });
            }
            let tenants: Vec<u64> = batch.iter().map(|&k| tenant_of(k)).collect();
            let lanes: Vec<&[TraceStep<i64>]> = batch.iter().map(|&k| traces.steps(k)).collect();
            let mut ok = vec![true; batch.len()];
            let mut outputs = vec![0usize; batch.len()];
            serving.scheduler_mut().set_policy(deadline(&batch));
            serving.run_batch_as(&tenants, &lanes, |lane, step, out| {
                let (spikes, w) = lanes[lane][step];
                ok[lane] &= verify_output(out, spikes, w, inputs.reference(batch[lane], step));
                outputs[lane] += 1;
            });
            for (lane, &kind) in batch.iter().enumerate() {
                verify.add(ok[lane] && outputs[lane] == traces.steps(kind).len());
            }
        }
        serving.take_snapshots();
    }

    // Set-ups, half before and half after the measured pass, so one slow
    // stretch of the host does not decide the median. Each tears the
    // previous one down and restores the store to the warm image first
    // (untimed); the last one serves the traced pass.
    let mut setup_times = Vec::with_capacity(2 * SETUPS_PER_SIDE);
    let mut set_up_timed = || {
        let store = prepare_store(&dir, &image, "store");
        let t0 = Instant::now();
        let loaded = set_up(&store);
        setup_times.push(t0.elapsed().as_secs_f64());
        loaded
    };
    let mut ready = None;
    for _ in 0..SETUPS_PER_SIDE {
        drop(ready.take());
        ready = Some(set_up_timed());
    }
    let (mut serving, _) = ready.take().expect("SETUPS_PER_SIDE > 0");
    reset_peak_rss();
    let (pass, _) = serve(&mut serving, &requests, &inputs, &traces, None);
    let peak_rss_mb = peak_rss_mb();
    drop(serving);
    for _ in 0..SETUPS_PER_SIDE {
        drop(ready.take());
        ready = Some(set_up_timed());
    }
    let (mut serving, warm) = ready.take().expect("SETUPS_PER_SIDE > 0");

    let traced = args.trace.then(|| {
        let mut tracer = Tracer::new(Instant::now());
        let (p, mut layers) = serve(&mut serving, &requests, &inputs, &traces, Some(&mut tracer));
        layers.load_ms = warm.load_ms;
        layers.import_ms = warm.import_ms;
        layers.plans_restored = warm.report.restored as u64;
        layers.bytes_loaded = warm.bytes_loaded;
        (p, layers, tracer)
    });
    drop(serving);
    let _ = std::fs::remove_dir_all(&dir);

    Outcome {
        digest: digest.hex(),
        verify,
        setup: Phase::default(),
        setup_s: median(&setup_times),
        pro_density: inputs.pro.pro_density(),
        pass,
        peak_rss_mb,
        traced,
    }
}

/// A fresh store directory holding only the pre-pass's warm image, so
/// every loop that loads from it starts from the same state.
fn prepare_store(dir: &Path, image: &Path, name: &str) -> PathBuf {
    let store = dir.join(name);
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).expect("creating the snapshot store");
    for entry in std::fs::read_dir(image).expect("listing the warm image") {
        let path = entry.expect("reading the warm image").path();
        if let Some(name) = path.file_name() {
            std::fs::copy(&path, store.join(name)).expect("copying the warm image");
        }
    }
    store
}

/// What one set-up's warm start did.
struct WarmStart {
    load_ms: f64,
    import_ms: f64,
    report: ImportReport,
    bytes_loaded: u64,
}

/// Set-up: open the store, build the loop, load the newest valid snapshot
/// and import it into the shared cache.
fn set_up(store_dir: &Path) -> (ServingLoop<i64>, WarmStart) {
    let store = Arc::new(SnapshotStore::new(store_dir, RETAIN).expect("opening the store"));
    let service = ServiceConfig::default()
        .with_snapshots(SNAPSHOT_EVERY, SNAPSHOT_PLANS)
        .with_gc(GC_EVERY, GC_MAX_IDLE);
    let mut serving = ServingLoop::new(
        config(),
        BatchPolicy::Deadline {
            budgets: Vec::new(),
        },
        service,
    )
    .with_snapshot_store(Arc::clone(&store));
    serving.scheduler_mut().set_slice_quantum(SLICE_QUANTUM);
    let t0 = Instant::now();
    let snapshot = store
        .load_latest_valid()
        .expect("reading the store")
        .expect("the warm image is valid");
    let t1 = Instant::now();
    let report = serving.shared_cache().import(&snapshot, config().tile);
    let t2 = Instant::now();
    let warm = WarmStart {
        load_ms: ms(t1 - t0),
        import_ms: ms(t2 - t1),
        report,
        bytes_loaded: store.bytes_loaded(),
    };
    (serving, warm)
}

/// Earliest-deadline-first budgets for one batch: short requests share a
/// budget that lets all of them finish first; cold requests have none.
fn deadline(batch: &[Kind]) -> BatchPolicy {
    let shorts = batch
        .iter()
        .filter(|k| matches!(k, Kind::Short { .. }))
        .count() as u64;
    BatchPolicy::Deadline {
        budgets: batch
            .iter()
            .map(|k| match k {
                Kind::Short { .. } => SHORT_BUDGET * shorts,
                Kind::Cold { .. } => u64::MAX,
            })
            .collect(),
    }
}

/// The measured open loop. The driver thread submits every request that
/// is due as one batch; while the loop is idle it collects finished
/// background exports and then busy-polls the clock until the next
/// arrival, as a low-latency server's poll loop would. Sleeping instead
/// let the core halt between arrivals, and each batch then ran on a cold
/// core: step gaps split into fast and slow modes whose shares moved from
/// run to run.
///
/// `step_gap_p50_ms` here is taken over the short requests only, the
/// tenants' timestep streams. A cold request's gaps are between different,
/// larger layers; mixed in, they put the median at the edge between two
/// populations.
fn serve(
    serving: &mut ServingLoop<i64>,
    requests: &[Request],
    inputs: &Inputs,
    traces: &Traces,
    mut tracer: Option<&mut Tracer>,
) -> (Pass, Layers) {
    let mut pass = Pass::default();
    let mut layers = Layers::default();
    let mut lags = Vec::with_capacity(requests.len());
    let mut completed = vec![None; requests.len()];
    let shared_before = serving.shared_cache().stats();
    let cpu0 = cpu_s();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(requests[i].due);
    let mut next = 0;
    let mut batch: Vec<usize> = Vec::new();
    while next < requests.len() {
        let now = Instant::now();
        if due(next) > now {
            serving.take_snapshots();
            let drained = Instant::now();
            while due(next) > Instant::now() {
                std::hint::spin_loop();
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.record("service.drain", now, drained, None, None);
                t.record("driver.idle", drained, Instant::now(), None, None);
            }
            continue;
        }
        batch.clear();
        while next < requests.len() && due(next) <= now {
            lags.push(ms(now - due(next)));
            batch.push(next);
            next += 1;
        }
        let kinds: Vec<Kind> = batch.iter().map(|&i| requests[i].kind).collect();
        let tenants: Vec<u64> = kinds.iter().map(|&k| tenant_of(k)).collect();
        let lanes: Vec<&[TraceStep<i64>]> = kinds.iter().map(|&k| traces.steps(k)).collect();
        let mut ok = vec![true; batch.len()];
        let mut outputs = vec![0usize; batch.len()];
        let mut last = vec![now; batch.len()];
        let run_span = tracer
            .as_deref_mut()
            .map(|t| t.open("batch.run", now, None));
        serving.scheduler_mut().set_policy(deadline(&kinds));
        serving.run_batch_as(&tenants, &lanes, |lane, step, out| {
            let entered = Instant::now();
            ok[lane] &= checksum(out) == inputs.reference(kinds[lane], step);
            let done = Instant::now();
            if step > 0 && matches!(kinds[lane], Kind::Short { .. }) {
                pass.step_gaps_ms.push(ms(done - last[lane]));
            }
            last[lane] = done;
            outputs[lane] += 1;
            if let Some(t) = tracer.as_deref_mut() {
                t.record("sink", entered, done, run_span, Some(batch[lane] as u64));
            }
        });
        let returned = Instant::now();
        for (lane, &i) in batch.iter().enumerate() {
            let complete = outputs[lane] == lanes[lane].len();
            if complete {
                pass.latencies_ms.push(ms(last[lane] - due(i)));
                completed[i] = Some(last[lane]);
            }
            if let Some(t) = tracer.as_deref_mut() {
                let name = match kinds[lane] {
                    Kind::Short { .. } => "request.short",
                    Kind::Cold { .. } => "request.cold",
                };
                t.record(name, due(i), last[lane], None, Some(i as u64));
            }
            pass.phase.add(ok[lane] && complete);
        }
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), run_span) {
            t.close(span, returned);
            let sched = serving.scheduler().scheduler_stats();
            layers.batch_steps += sched.lane_steps.iter().sum::<u64>();
            layers.batch_row_tiles += sched.lane_row_tiles.iter().sum::<u64>();
            layers.deadline_misses += sched.deadline_misses;
            layers.lane_faults += serving.scheduler().quarantined().len() as u64;
            let stats = serving.scheduler().merged_stats();
            layers.session = merged(&layers.session, &stats);
        }
    }
    pass.wall = completed
        .iter()
        .flatten()
        .max()
        .map_or(start.elapsed(), |&t| t - start);
    serving.take_snapshots();
    let stats = serving.stats();
    layers.shared = shared_delta(&shared_before, &serving.shared_cache().stats());
    layers.snapshots_exported = stats.snapshots_exported;
    layers.gc_evictions = stats.gc_evictions;
    layers.store_bytes_encoded = stats.snapshot_bytes_encoded;
    layers.store_io_retries = stats.snapshot_io_retries;
    layers.store_quarantined = stats.snapshots_quarantined;
    layers.cpu_s = cpu_s() - cpu0;
    layers.lag_p90_ms = percentile(&lags, 0.9);
    // Requests still outstanding at the moment the last one became due: a
    // loop that keeps up ends with about one batch in flight.
    let last_due = due(requests.len() - 1);
    layers.backlog_end = completed
        .iter()
        .filter(|c| c.is_none_or(|t| t > last_due))
        .count() as f64;
    if let Some(t) = tracer {
        layers.run_ms = t.total_ms("batch.run");
        layers.sink_ms = t.total_ms("sink");
        layers.drain_ms = t.total_ms("service.drain");
        layers.idle_ms = t.total_ms("driver.idle");
        layers.top_ms = layers.run_ms + layers.drain_ms + layers.idle_ms;
    }
    (pass, layers)
}

/// Sums two stats rows (fresh lanes each batch, so per-batch rows add).
fn merged(
    a: &prosperity_core::engine::EngineStats,
    b: &prosperity_core::engine::EngineStats,
) -> prosperity_core::engine::EngineStats {
    let mut total = *a;
    total.merge(b);
    total
}
