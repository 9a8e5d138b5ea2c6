//! Recycled planner and executor buffers shared across layers, calls, and
//! worker threads.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::plan::PlanScratch;
use spikemat::{SpikeMatrix, TileShape};

use super::stats::EngineStats;

/// Reusable executor buffers for one row-tile worker: the arena of
/// prefix partials, each row's arena slot, and the simple-row flags.
#[derive(Debug)]
pub(crate) struct ExecScratch<T> {
    pub(crate) arena: Vec<T>,
    pub(crate) slots: Vec<u32>,
    pub(crate) simple: Vec<bool>,
}

impl<T> Default for ExecScratch<T> {
    fn default() -> Self {
        Self {
            arena: Vec::new(),
            slots: Vec::new(),
            simple: Vec::new(),
        }
    }
}

/// Reusable planner state for one row-group worker: the row group's flat
/// tile keys, the tile extracted on a miss, the planner scratch, and the
/// counters its lookups and plans accrue until
/// [`BufferPool::drain_plan_stats`] folds them into the session.
#[derive(Debug, Default)]
pub(crate) struct PlanWorker {
    pub(crate) keys: Vec<u64>,
    pub(crate) tile: SpikeMatrix,
    pub(crate) scratch: PlanScratch,
    pub(crate) stats: EngineStats,
}

/// Pool of recycled buffers shared across layers, calls, and worker threads.
///
/// Holds the executor arenas (checked out per row-tile) and the planner
/// workers (checked out per row group), both also from rayon workers —
/// hence the mutexes, each touched twice per row-tile or row group and
/// never inside the planning or accumulation loops. A fanned-out pass
/// first tops the pool up to one working-size entry per pool thread
/// ([`BufferPool::reserve_exec`], [`BufferPool::reserve_plan`]), so which
/// thread claims which task never decides whether a buffer is created or
/// grown mid-pass. A mutex poisoned by a panic elsewhere is recovered: the
/// pooled state is only a list of buffers, and returning one while
/// unwinding must not panic again. The output and spike-chain buffers live
/// directly on the [`Session`](super::Session).
#[derive(Debug, Default)]
pub(crate) struct BufferPool<T> {
    exec: Mutex<Vec<ExecScratch<T>>>,
    plan: Mutex<Vec<PlanWorker>>,
}

#[cfg(feature = "parallel")]
impl<T: Copy + Default> BufferPool<T> {
    /// Ensures `workers` pooled executor scratches, each sized for
    /// `tile_rows`-row tiles and `n` output columns.
    pub(crate) fn reserve_exec(&self, workers: usize, tile_rows: usize, n: usize) {
        let mut exec = lock(&self.exec);
        let len = exec.len().max(workers);
        exec.resize_with(len, ExecScratch::default);
        for s in exec.iter_mut() {
            if s.arena.len() < tile_rows * n {
                s.arena.resize(tile_rows * n, T::default());
            }
            // Both are cleared and refilled per row-tile; only capacity counts.
            s.slots.clear();
            s.slots.reserve(tile_rows);
            s.simple.clear();
            s.simple.reserve(tile_rows);
        }
    }

    /// Ensures `workers` pooled planner workers, each with an extraction
    /// tile of `shape` and room for the keys of a row group of `tiles`
    /// tiles.
    pub(crate) fn reserve_plan(&self, workers: usize, shape: TileShape, tiles: usize) {
        let mut plan = lock(&self.plan);
        let len = plan.len().max(workers);
        plan.resize_with(len, PlanWorker::default);
        for w in plan.iter_mut() {
            if (w.tile.rows(), w.tile.cols()) != (shape.m, shape.k) {
                w.tile = SpikeMatrix::zeros(shape.m, shape.k);
            }
            // Cleared and refilled per row group; only capacity counts.
            w.keys.clear();
            w.keys.reserve(tiles * shape.key_limbs());
        }
    }
}

fn lock<V>(m: &Mutex<V>) -> MutexGuard<'_, V> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> BufferPool<T> {
    /// Checks a planner worker out; it returns to the pool when the
    /// checkout drops, also when a panic unwinds through its row group.
    pub(crate) fn take_plan(&self) -> PlanCheckout<'_, T> {
        PlanCheckout {
            worker: lock(&self.plan).pop().unwrap_or_default(),
            pool: self,
        }
    }

    /// Guards a planning pass: when dropped — after the pass, or while a
    /// panic unwinds out of it — moves every pooled planner worker's
    /// counters into `into`. Drop it only after every checkout of the pass.
    pub(crate) fn drain_plan_stats<'a>(
        &'a self,
        into: &'a mut EngineStats,
    ) -> PlanStatsDrain<'a, T> {
        PlanStatsDrain { pool: self, into }
    }

    pub(crate) fn take_exec(&self) -> ExecScratch<T> {
        lock(&self.exec).pop().unwrap_or_default()
    }

    pub(crate) fn put_exec(&self, scratch: ExecScratch<T>) {
        lock(&self.exec).push(scratch);
    }
}

/// A [`PlanWorker`] checked out of a [`BufferPool`] by
/// [`BufferPool::take_plan`].
pub(crate) struct PlanCheckout<'a, T> {
    pool: &'a BufferPool<T>,
    worker: PlanWorker,
}

impl<T> Deref for PlanCheckout<'_, T> {
    type Target = PlanWorker;

    fn deref(&self) -> &PlanWorker {
        &self.worker
    }
}

impl<T> DerefMut for PlanCheckout<'_, T> {
    fn deref_mut(&mut self) -> &mut PlanWorker {
        &mut self.worker
    }
}

impl<T> Drop for PlanCheckout<'_, T> {
    fn drop(&mut self) {
        // A default worker owns no buffers, so the swap allocates nothing.
        lock(&self.pool.plan).push(std::mem::take(&mut self.worker));
    }
}

/// The guard [`BufferPool::drain_plan_stats`] returns.
pub(crate) struct PlanStatsDrain<'a, T> {
    pool: &'a BufferPool<T>,
    into: &'a mut EngineStats,
}

impl<T> Drop for PlanStatsDrain<'_, T> {
    fn drop(&mut self) {
        for worker in lock(&self.pool.plan).iter_mut() {
            self.into.merge(&std::mem::take(&mut worker.stats));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_buffers() {
        let pool: BufferPool<i64> = BufferPool::default();
        let mut s = pool.take_exec();
        s.arena.resize(64, 0);
        pool.put_exec(s);
        let s2 = pool.take_exec();
        assert!(s2.arena.capacity() >= 64);
    }

    #[test]
    fn planner_stats_drain_once() {
        let pool: BufferPool<i64> = BufferPool::default();
        {
            let (mut a, mut b) = (pool.take_plan(), pool.take_plan());
            a.stats.tiles = 3;
            b.stats.cache_hits = 2;
        }
        let mut total = EngineStats::default();
        drop(pool.drain_plan_stats(&mut total));
        drop(pool.drain_plan_stats(&mut total));
        assert_eq!((total.tiles, total.cache_hits), (3, 2));
    }

    #[test]
    fn unwinding_checkout_keeps_its_counters() {
        let pool: BufferPool<i64> = BufferPool::default();
        let mut total = EngineStats::default();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _drain = pool.drain_plan_stats(&mut total);
            let mut worker = pool.take_plan();
            worker.stats.cache_misses = 5;
            panic!("planning panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(total.cache_misses, 5);
        assert_eq!(
            lock(&pool.plan).len(),
            1,
            "the worker went back to the pool"
        );
    }
}
