//! Steady-state allocation regression harness.
//!
//! A counting `#[global_allocator]` wraps the system allocator; once the
//! serving hot path is warm (plan cache populated, output/scratch/encode
//! buffers at working-set capacity, worker pool spawned), repeated GeMM
//! steps — on the serial oracle and on the default path, whose planning
//! and execution fan out over the rayon pool — warm `BatchScheduler` runs
//! and snapshot encodes must perform **zero** heap allocations. Any
//! allocation smuggled back into the hot loops fails this test with an
//! exact count. The counter is process-global, so allocations on pool
//! workers count too.
//!
//! One `#[test]` function only: the counter is process-global, so a second
//! concurrently running test would pollute the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use prosperity::core::engine::{
    BatchPolicy, BatchScheduler, Engine, EngineConfig, Session, SharedPlanCache, TraceStep,
};
use prosperity::spikemat::gemm::{spiking_gemm, OutputMatrix, WeightMatrix};
use prosperity::spikemat::{SpikeMatrix, TileShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Counts allocations (alloc, alloc_zeroed, realloc) while armed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

// SAFETY: pure pass-through to `System`; the wrapper adds only atomic
// counter updates and upholds `GlobalAlloc`'s contract by delegation.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: delegates to `System::alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    // SAFETY: delegates to `System::realloc`; ptr/layout come from `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: delegates to `System::dealloc`; ptr/layout come from `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed, returning the allocations it made.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Wrapping sum of an output, so a sink can fingerprint it without
/// allocating.
fn checksum(out: &OutputMatrix<i64>) -> i64 {
    out.as_slice()
        .iter()
        .fold(0i64, |acc, &v| acc.wrapping_add(v))
}

#[test]
fn steady_state_serving_hot_path_is_allocation_free() {
    // Exercise the pooled path whatever the host's core count: the pool
    // reads its size once, at first use, so pin it before anything runs.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", "2");
    }
    let threads = prosperity::core::parallel_threads();
    assert!(
        threads > 1,
        "the default-path checks need a multi-worker pool (got {threads})"
    );

    // --- GeMM steady state, serial oracle.
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let config = EngineConfig::new(TileShape::new(64, 64), 256);
    let mut engine = Engine::<i64>::new(config);
    let weights = WeightMatrix::from_fn(192, 32, |r, c| (r * 7 + c) as i64 - 100);
    // A small rotation of inputs, all planned and cached during warmup, so
    // steady-state steps alternate tiles while hitting the cache.
    let inputs: Vec<SpikeMatrix> = (0..4)
        .map(|_| SpikeMatrix::random(128, 192, 0.2, &mut rng))
        .collect();
    let mut out = OutputMatrix::zeros(0, 0);
    for s in &inputs {
        engine.gemm_into_serial(s, &weights, &mut out); // plan + size buffers
        engine.gemm_into_serial(s, &weights, &mut out); // warm the pools
    }
    // The counted loop below ends on the last input of the rotation.
    let reference = engine.gemm(inputs.last().unwrap(), &weights);

    let gemm_allocs = count_allocs(|| {
        for _ in 0..8 {
            for s in &inputs {
                engine.gemm_into_serial(s, &weights, &mut out);
            }
        }
    });
    assert_eq!(
        gemm_allocs, 0,
        "steady-state serial GeMM steps must not allocate"
    );
    assert_eq!(
        out.as_slice(),
        reference.as_slice(),
        "hot path stayed correct while counted"
    );

    // --- GeMM steady state, default path over a shared cache: two row
    // groups per pool thread of 2048-bit tiles, so both planning and
    // execution fan out.
    let tile = TileShape::new(32, 64);
    let rows = 2 * threads * tile.m;
    let shared_config = EngineConfig::new(tile, 1024);
    let mut session =
        Session::<i64>::with_shared(shared_config, Arc::new(SharedPlanCache::new(1024)));
    let wide: Vec<SpikeMatrix> = (0..4)
        .map(|_| SpikeMatrix::random(rows, 192, 0.2, &mut rng))
        .collect();
    for s in &wide {
        session.gemm_into(s, &weights, &mut out); // plan, spawn and size
        session.gemm_into(s, &weights, &mut out);
    }
    let default_allocs = count_allocs(|| {
        for _ in 0..8 {
            for s in &wide {
                session.gemm_into(s, &weights, &mut out);
            }
        }
    });
    assert_eq!(
        default_allocs, 0,
        "steady-state default-path GeMM steps must not allocate"
    );
    assert_eq!(out, spiking_gemm(wide.last().unwrap(), &weights));

    // --- A warm 12-step `BatchScheduler::run` (3 lanes x 4 steps) over
    // its shared cache, on the default path.
    let mut sched = BatchScheduler::<i64>::new(shared_config, BatchPolicy::RoundRobin);
    let traces: Vec<Vec<TraceStep<'_, i64>>> = (0..3)
        .map(|lane| {
            (0..4)
                .map(|step| (&wide[(lane + step) % 4], &weights))
                .collect()
        })
        .collect();
    let want: Vec<i64> = traces
        .iter()
        .flatten()
        .map(|&(s, w)| checksum(&spiking_gemm(s, w)))
        .collect();
    let mut got = vec![0i64; want.len()];
    for _ in 0..2 {
        sched.run(&traces, |lane, step, out| {
            got[lane * 4 + step] = checksum(out)
        });
    }
    got.fill(0);
    let run_allocs = count_allocs(|| {
        sched.run(&traces, |lane, step, out| {
            got[lane * 4 + step] = checksum(out)
        });
    });
    assert_eq!(
        run_allocs, 0,
        "a warm 12-step scheduler run must not allocate"
    );
    assert_eq!(got, want, "scheduled outputs stayed exact while counted");
    assert!(sched.quarantined().is_empty());

    // --- The same warm run under `CacheAffinity`: its residency probe
    // extracts tile keys into a pooled planner buffer, never a fresh one.
    let mut sched = BatchScheduler::<i64>::new(shared_config, BatchPolicy::CacheAffinity);
    for _ in 0..2 {
        sched.run(&traces, |lane, step, out| {
            got[lane * 4 + step] = checksum(out)
        });
    }
    got.fill(0);
    let affinity_allocs = count_allocs(|| {
        sched.run(&traces, |lane, step, out| {
            got[lane * 4 + step] = checksum(out)
        });
    });
    assert_eq!(
        affinity_allocs, 0,
        "a warm cache-affinity scheduler run must not allocate"
    );
    assert_eq!(got, want, "affinity-scheduled outputs stayed exact");

    // --- Snapshot encode steady state: `encode_into` reuses the caller's
    // buffer, so a warm buffer encodes the working set allocation-free.
    let snapshot = engine.export_snapshot(256);
    assert!(!snapshot.is_empty(), "warmup must leave cached plans");
    let mut buf = bytes::BytesMut::new();
    snapshot.encode_into(&mut buf); // warm the buffer to image size
    let reference_image = buf.to_vec();
    let encode_allocs = count_allocs(|| {
        for _ in 0..8 {
            snapshot.encode_into(&mut buf);
        }
    });
    assert_eq!(encode_allocs, 0, "warm snapshot encode must not allocate");
    assert_eq!(
        &buf[..],
        &reference_image[..],
        "encode stayed bit-identical"
    );
}
