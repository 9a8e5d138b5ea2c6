//! Lossless execution of a ProSparsity plan (the **Processor**'s row-wise
//! dataflow, Sec. V-E, as a software kernel).
//!
//! For every tile, rows are processed in the Dispatcher's order. A row with a
//! prefix starts from the prefix's *tile-local* partial result (Step 9 of the
//! pipeline: "load Prefix"), then accumulates the weight rows selected by the
//! 1-bits of its ProSparsity pattern (Steps 10–11, address decoding by
//! bit-scan-forward), and finally adds its tile-local result into the global
//! output row (Step 12, the cross-`k`-tile partial-sum accumulation).
//!
//! # Performance
//!
//! The kernel is built for speed:
//!
//! * Only rows another row loads as its prefix keep a tile-local partial,
//!   in one flat arena reused across tiles — no per-row heap allocation
//!   inside the tile loop. A prefix row whose pattern is empty (an exact
//!   match of its own prefix) *aliases* its prefix's partial instead of
//!   copying it, so only prefix rows that add weight rows, or have no
//!   prefix, get an arena slot. Slots are numbered in execution order, so
//!   the arena a tile touches is just the partials it actually builds.
//!   Weight rows are accumulated with a tight slice loop the compiler can
//!   autovectorize.
//! * Row-tiles own disjoint output rows, so with the `parallel` feature
//!   (default) they execute across threads over disjoint `&mut` chunks of the
//!   output; the `k`-tiles of one row group fold sequentially into that
//!   chunk, which keeps the result bit-identical to the serial kernel.
//!
//! With integer weights the result is bit-for-bit equal to the reference
//! [`spikemat::gemm::spiking_gemm`]; this is the paper's losslessness claim
//! and is enforced by property tests (serial *and* parallel paths).

use crate::plan::{ProSparsityPlan, TileMeta};
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};
use std::ops::AddAssign;

/// Executes a spiking GeMM under product sparsity with tile shape `shape`.
///
/// Plans each tile (Detector → Pruner → Dispatcher) and replays the meta
/// information on the weight matrix. See [`execute_plan`] to reuse an
/// existing plan.
///
/// # Panics
///
/// Panics if `spikes.cols() != weights.rows()`.
#[cfg(feature = "parallel")]
pub fn prosparsity_gemm<T: Copy + Default + AddAssign + Send + Sync + 'static>(
    spikes: &SpikeMatrix,
    weights: &WeightMatrix<T>,
    shape: TileShape,
) -> OutputMatrix<T> {
    let plan = ProSparsityPlan::build_tiled(spikes, shape);
    execute_plan(&plan, weights)
}

/// Executes a spiking GeMM under product sparsity with tile shape `shape`.
///
/// Serial build of [`prosparsity_gemm`] (the `parallel` feature is off).
///
/// # Panics
///
/// Panics if `spikes.cols() != weights.rows()`.
#[cfg(not(feature = "parallel"))]
pub fn prosparsity_gemm<T: Copy + Default + AddAssign + 'static>(
    spikes: &SpikeMatrix,
    weights: &WeightMatrix<T>,
    shape: TileShape,
) -> OutputMatrix<T> {
    let plan = ProSparsityPlan::build_tiled(spikes, shape);
    execute_plan(&plan, weights)
}

/// Replays a previously built plan against a weight matrix, parallelizing
/// across row-tiles (disjoint output-row groups).
///
/// # Panics
///
/// Panics if the plan's source column count differs from `weights.rows()`.
#[cfg(feature = "parallel")]
pub fn execute_plan<T: Copy + Default + AddAssign + Send + Sync + 'static>(
    plan: &ProSparsityPlan,
    weights: &WeightMatrix<T>,
) -> OutputMatrix<T> {
    use rayon::prelude::*;
    let mut out = new_output(plan, weights);
    let n = weights.cols();
    let gk = col_tile_count(plan);
    if gk == 0 || n == 0 {
        return out;
    }
    let chunk_elems = plan.shape().m * n;
    let tiles = plan.tiles();
    out.as_mut_slice()
        .par_chunks_mut(chunk_elems)
        .enumerate()
        .for_each(|(ti, chunk)| {
            let mut arena = Vec::new();
            let mut slots = Vec::new();
            let mut simple = Vec::new();
            execute_row_tile(
                &tiles[ti * gk..(ti + 1) * gk],
                weights,
                chunk,
                &mut arena,
                &mut slots,
                &mut simple,
                n,
            );
        });
    out
}

/// Replays a previously built plan against a weight matrix.
///
/// Serial build of [`execute_plan`] (the `parallel` feature is off).
///
/// # Panics
///
/// Panics if the plan's source column count differs from `weights.rows()`.
#[cfg(not(feature = "parallel"))]
pub fn execute_plan<T: Copy + Default + AddAssign + 'static>(
    plan: &ProSparsityPlan,
    weights: &WeightMatrix<T>,
) -> OutputMatrix<T> {
    execute_plan_serial(plan, weights)
}

/// Strictly single-threaded [`execute_plan`]; the baseline the parallel
/// executor is property-tested against. One arena allocation serves the
/// entire GeMM.
///
/// # Panics
///
/// Panics if the plan's source column count differs from `weights.rows()`.
pub fn execute_plan_serial<T: Copy + Default + AddAssign + 'static>(
    plan: &ProSparsityPlan,
    weights: &WeightMatrix<T>,
) -> OutputMatrix<T> {
    let mut out = new_output(plan, weights);
    let n = weights.cols();
    let gk = col_tile_count(plan);
    if gk == 0 || n == 0 {
        return out;
    }
    let chunk_elems = plan.shape().m * n;
    let tiles = plan.tiles();
    let mut arena = Vec::new();
    let mut slots = Vec::new();
    let mut simple = Vec::new();
    for (ti, chunk) in out.as_mut_slice().chunks_mut(chunk_elems).enumerate() {
        execute_row_tile(
            &tiles[ti * gk..(ti + 1) * gk],
            weights,
            chunk,
            &mut arena,
            &mut slots,
            &mut simple,
            n,
        );
    }
    out
}

/// Allocates the output and checks the plan/weight inner dimension.
fn new_output<T: Copy + Default + AddAssign + 'static>(
    plan: &ProSparsityPlan,
    weights: &WeightMatrix<T>,
) -> OutputMatrix<T> {
    let (m, k) = plan.source_dims();
    assert_eq!(
        k,
        weights.rows(),
        "plan K={k} does not match weight rows {}",
        weights.rows()
    );
    OutputMatrix::zeros(m, weights.cols())
}

/// Number of `k`-tiles per row group (0 for an empty plan).
fn col_tile_count(plan: &ProSparsityPlan) -> usize {
    let (_, k) = plan.source_dims();
    if plan.tiles().is_empty() {
        0
    } else {
        k.div_ceil(plan.shape().k)
    }
}

/// A planned tile the executor can replay: its meta information plus its
/// placement in the source matrix.
///
/// [`TileMeta`] carries its own placement; the serving runtime instead
/// replays *cached*, position-independent metas under per-instance
/// placements — possibly borrowed (via `Arc`) from a plan cache shared
/// with other sessions — so the executor core is generic over this view
/// rather than over one concrete meta lifetime.
pub trait TileExec {
    /// The planned meta information (rows, packed patterns, order).
    fn meta(&self) -> &TileMeta;
    /// First weight row this tile's patterns address.
    fn col_start(&self) -> usize;
    /// Valid (non-padding) rows at this placement.
    fn valid_rows(&self) -> usize;
}

impl TileExec for TileMeta {
    fn meta(&self) -> &TileMeta {
        self
    }
    fn col_start(&self) -> usize {
        self.col_start
    }
    fn valid_rows(&self) -> usize {
        self.valid_rows
    }
}

/// [`execute_row_tile`] slot marker: no row of the tile loads this row as
/// its prefix.
const LEAF: u32 = u32::MAX;

/// [`execute_row_tile`] slot marker: a prefix row not yet executed.
const UNBUILT: u32 = u32::MAX - 1;

/// Executes the `k`-tiles of one row group into its output chunk.
///
/// `out_chunk` holds the group's `valid_rows × n` output elements; the
/// scratch buffers are caller-owned and reused across every tile this worker
/// processes, so the loop itself never allocates.
///
/// Rows are split into two classes:
///
/// * **Simple** rows — no prefix in any `k`-tile and never loaded as a
///   prefix by another row. They are independent pure accumulations, so each
///   one is processed exactly once, accumulating the weight rows selected by
///   the patterns of *all* its `k`-tiles straight into the global output
///   row. On weakly correlated data this is nearly every row.
/// * **Dependent** rows (prefix holders and their prefixes) run tile by
///   tile in the Dispatcher's topological order. A prefix row's tile-local
///   partial (Step 9's prefix load source) lives in an arena *slot*, which
///   `slots` records per row. A prefix row with a prefix and an all-zero
///   pattern reuses its prefix's slot; any other prefix row takes the next
///   free slot, seeded from its prefix's partial (or zero) plus its pattern.
///   Rows no one loads start from their prefix's slot straight in the
///   output row. Every valid row then folds into the output (Step 12).
///
/// Aliasing is decided from the pattern alone, not from
/// [`RowMeta::kind`](crate::plan::RowMeta), so a field the executor does
/// not need cannot change its output.
// analyze: hot-path
pub(crate) fn execute_row_tile<T: Copy + Default + AddAssign + 'static, V: TileExec>(
    k_tiles: &[V],
    weights: &WeightMatrix<T>,
    out_chunk: &mut [T],
    arena: &mut Vec<T>,
    slots: &mut Vec<u32>,
    simple: &mut Vec<bool>,
    n: usize,
) {
    if n == 0 {
        return;
    }
    let wrows = weights.rows();
    let wdata = weights.as_slice();
    let tile_rows = k_tiles
        .iter()
        .map(|t| t.meta().rows.len())
        .max()
        .unwrap_or(0);
    let valid_rows = k_tiles.first().map_or(0, |t| t.valid_rows());

    simple.clear();
    simple.resize(tile_rows, true);
    for tile in k_tiles {
        for (r, meta) in tile.meta().rows.iter().enumerate() {
            if let Some(p) = meta.prefix {
                for i in [r, p] {
                    if let Some(flag) = simple.get_mut(i) {
                        *flag = false;
                    }
                }
            }
        }
    }

    // Fast path: one pass per simple row over all its k-tiles' patterns.
    let rows = out_chunk.chunks_exact_mut(n).zip(simple.iter());
    for (r, (out_row, &is_simple)) in rows.enumerate().take(valid_rows) {
        if is_simple {
            accumulate_row_all_tiles(out_row, k_tiles, r, wdata, wrows, n);
        }
    }

    // Dependent rows: tile-major, in the Dispatcher's topological order.
    if arena.len() < tile_rows * n {
        arena.resize(tile_rows * n, T::default());
    }
    for tile in k_tiles {
        let (meta, col_start, tile_valid) = (tile.meta(), tile.col_start(), tile.valid_rows());
        slots.clear();
        slots.resize(tile_rows, LEAF);
        for row in &meta.rows {
            if let Some(slot) = row.prefix.and_then(|p| slots.get_mut(p)) {
                *slot = UNBUILT;
            }
        }
        let wpr = meta.pattern_words();
        let mut built = 0usize;
        for &r in &meta.order {
            if simple.get(r).copied().unwrap_or(true) {
                continue;
            }
            let (Some(row), Some(pattern)) = (
                meta.rows.get(r),
                meta.pattern_limbs.get(r * wpr..(r + 1) * wpr),
            ) else {
                continue; // the planner sizes both per row
            };
            // The order is topological, so the prefix's slot is assigned.
            let prefix = row.prefix.and_then(|p| slots.get(p).copied());
            let out_row = if r < tile_valid {
                out_chunk.get_mut(r * n..(r + 1) * n)
            } else {
                None // padding row: only its partial matters
            };
            if slots.get(r) == Some(&UNBUILT) {
                let slot = match prefix {
                    // Exact match: the prefix's partial *is* this row's.
                    Some(p) if pattern.iter().all(|&w| w == 0) => p,
                    _ => {
                        let slot = built;
                        built += 1;
                        if let Some(acc) = seed_slot(arena, slot, prefix, n) {
                            accumulate_pattern(acc, pattern, col_start, wdata, wrows, n);
                        }
                        slot as u32
                    }
                };
                if let Some(s) = slots.get_mut(r) {
                    *s = slot;
                }
                // Step 12 for prefix rows: fold into the global row now.
                if let (Some(out_row), Some(local)) = (out_row, slot_of(arena, slot, n)) {
                    add_assign_slice(out_row, local);
                }
            } else if let Some(out_row) = out_row {
                // Steps 9–12 fused: accumulate prefix partial and weight
                // rows straight into the global output row.
                if let Some(local) = prefix.and_then(|p| slot_of(arena, p, n)) {
                    add_assign_slice(out_row, local);
                }
                accumulate_pattern(out_row, pattern, col_start, wdata, wrows, n);
            }
        }
    }
}

/// Arena slot `slot`'s partial, if the slot lies inside the arena.
// analyze: hot-path
#[inline]
fn slot_of<T>(arena: &[T], slot: u32, n: usize) -> Option<&[T]> {
    let at = slot as usize * n;
    arena.get(at..at + n)
}

/// Step 9: seeds fresh slot `slot` with the partial in slot `prefix` (an
/// earlier slot), or with zeros when the row has no prefix. Returns the
/// seeded slot to accumulate into.
// analyze: hot-path
#[inline]
fn seed_slot<T: Copy + Default>(
    arena: &mut [T],
    slot: usize,
    prefix: Option<u32>,
    n: usize,
) -> Option<&mut [T]> {
    let (earlier, acc) = arena.get_mut(..(slot + 1) * n)?.split_at_mut(slot * n);
    match prefix.and_then(|p| slot_of(earlier, p, n)) {
        Some(partial) => acc.copy_from_slice(partial),
        None => acc.fill(T::default()),
    }
    Some(acc)
}

/// Accumulates the weight rows selected by row `r`'s pattern in every
/// `k`-tile into `acc` (the simple-row fast path).
// analyze: hot-path
#[inline]
fn accumulate_row_all_tiles<T: Copy + Default + AddAssign + 'static, V: TileExec>(
    acc: &mut [T],
    k_tiles: &[V],
    r: usize,
    wdata: &[T],
    wrows: usize,
    n: usize,
) {
    for tile in k_tiles {
        let meta = tile.meta();
        let wpr = meta.pattern_words();
        // The planner sizes pattern_limbs to rows * wpr, so the range is
        // always valid; `get` keeps the warm loop free of panic paths.
        let Some(pattern) = meta.pattern_limbs.get(r * wpr..(r + 1) * wpr) else {
            continue;
        };
        accumulate_pattern(acc, pattern, tile.col_start(), wdata, wrows, n);
    }
}

/// Steps 10–11: decode the row's packed pattern limbs by bit-scan-forward
/// and accumulate the selected weight rows into `acc` via
/// [`add_assign_slice`].
// analyze: hot-path
#[inline]
fn accumulate_pattern<T: Copy + Default + AddAssign + 'static>(
    acc: &mut [T],
    pattern: &[u64],
    col_start: usize,
    wdata: &[T],
    wrows: usize,
    n: usize,
) {
    // Dispatch once per row pattern, not once per set bit: the AVX2 body
    // cannot inline into this (non-AVX2) function, so a per-bit call would
    // pay the boundary on every short weight-row add.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_accum::try_accumulate_pattern(acc, pattern, col_start, wdata, wrows, n) {
        return;
    }
    for (word, &limb) in pattern.iter().enumerate() {
        let mut bits = limb;
        let base = col_start + word * 64;
        while bits != 0 {
            let wk = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if wk >= wrows {
                continue; // zero-padded tile column
            }
            // wk < wrows and wdata holds wrows * n elements, so the range
            // is always valid; `get` keeps this loop free of panic paths.
            let Some(src) = wdata.get(wk * n..wk * n + n) else {
                continue;
            };
            add_assign_slice(acc, src);
        }
    }
}

/// Element-wise `dst[i] += src[i]` over equal-length slices — the executor's
/// popcount-selected weight-row accumulate.
///
/// `i64`/`i32` slices route through the AVX2 vector add when the `simd`
/// feature is compiled in and the CPU reports AVX2; every other element
/// type, build, and short slice runs the scalar zip loop (bounds-check-free,
/// so the compiler autovectorizes it where profitable). Both paths produce
/// identical bits for integer elements.
// analyze: hot-path
#[inline]
fn add_assign_slice<T: Copy + AddAssign + 'static>(dst: &mut [T], src: &[T]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_accum::try_add_slice(dst, src) {
        return;
    }
    for (a, &x) in dst.iter_mut().zip(src) {
        *a += x;
    }
}

/// AVX2 accumulate kernels, selected by `TypeId` so the generic executor
/// stays monomorphization-friendly: only the two integer element types the
/// engine actually serves get vector bodies.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd_accum {
    use std::any::TypeId;
    use std::arch::x86_64::*;

    /// Limb threshold below which the vector add has no full vector to run.
    const MIN_SIMD_ELEMS: usize = 8;

    /// Attempts a whole-pattern vector accumulate ([`super::accumulate_pattern`]
    /// semantics); `false` means the caller must run the scalar loop. The
    /// bit-scan loop lives *inside* the AVX2 boundary so the per-weight-row
    /// add inlines instead of paying a cross-feature call per set bit.
    #[inline]
    pub(super) fn try_accumulate_pattern<T: Copy + 'static>(
        acc: &mut [T],
        pattern: &[u64],
        col_start: usize,
        wdata: &[T],
        wrows: usize,
        n: usize,
    ) -> bool {
        if n < MIN_SIMD_ELEMS || !spikemat::simd::active() {
            return false;
        }
        let t = TypeId::of::<T>();
        if t == TypeId::of::<i64>() {
            // SAFETY: T is exactly i64 (TypeId match); AVX2 was verified.
            unsafe {
                pattern_i64(
                    &mut *(std::ptr::from_mut::<[T]>(acc) as *mut [i64]),
                    pattern,
                    col_start,
                    &*(std::ptr::from_ref::<[T]>(wdata) as *const [i64]),
                    wrows,
                    n,
                );
            }
            true
        } else if t == TypeId::of::<i32>() {
            // SAFETY: T is exactly i32 (TypeId match); AVX2 was verified.
            unsafe {
                pattern_i32(
                    &mut *(std::ptr::from_mut::<[T]>(acc) as *mut [i32]),
                    pattern,
                    col_start,
                    &*(std::ptr::from_ref::<[T]>(wdata) as *const [i32]),
                    wrows,
                    n,
                );
            }
            true
        } else {
            false
        }
    }

    /// [`super::accumulate_pattern`] for `i64`, bit scan and adds fused in
    /// one AVX2 region ([`add_i64`] inlines here — same target feature).
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support
    /// (`spikemat::simd::active()`), and `acc` must hold at least `n`
    /// elements.
    // analyze: hot-path
    #[target_feature(enable = "avx2")]
    unsafe fn pattern_i64(
        acc: &mut [i64],
        pattern: &[u64],
        col_start: usize,
        wdata: &[i64],
        wrows: usize,
        n: usize,
    ) {
        for (word, &limb) in pattern.iter().enumerate() {
            let mut bits = limb;
            let base = col_start + word * 64;
            while bits != 0 {
                let wk = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if wk >= wrows {
                    continue; // zero-padded tile column
                }
                let Some(src) = wdata.get(wk * n..wk * n + n) else {
                    continue; // wk < wrows makes the range valid
                };
                // SAFETY: AVX2 already verified by the caller; src has
                // exactly n elements and acc at least n.
                unsafe { add_i64(acc.as_mut_ptr(), src.as_ptr(), n) };
            }
        }
    }

    /// [`super::accumulate_pattern`] for `i32` (see [`pattern_i64`]).
    ///
    /// # Safety
    ///
    /// Same contract as [`pattern_i64`].
    // analyze: hot-path
    #[target_feature(enable = "avx2")]
    unsafe fn pattern_i32(
        acc: &mut [i32],
        pattern: &[u64],
        col_start: usize,
        wdata: &[i32],
        wrows: usize,
        n: usize,
    ) {
        for (word, &limb) in pattern.iter().enumerate() {
            let mut bits = limb;
            let base = col_start + word * 64;
            while bits != 0 {
                let wk = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if wk >= wrows {
                    continue; // zero-padded tile column
                }
                let Some(src) = wdata.get(wk * n..wk * n + n) else {
                    continue; // wk < wrows makes the range valid
                };
                // SAFETY: AVX2 already verified by the caller; src has
                // exactly n elements and acc at least n.
                unsafe { add_i32(acc.as_mut_ptr(), src.as_ptr(), n) };
            }
        }
    }

    /// Attempts the vector add; `false` means the caller must run the
    /// scalar loop (non-integer element type, short slice, or no AVX2).
    #[inline]
    pub(super) fn try_add_slice<T: Copy + 'static>(dst: &mut [T], src: &[T]) -> bool {
        let n = dst.len().min(src.len());
        if n < MIN_SIMD_ELEMS || !spikemat::simd::active() {
            return false;
        }
        let t = TypeId::of::<T>();
        if t == TypeId::of::<i64>() {
            // SAFETY: T is exactly i64 (TypeId match); AVX2 was verified.
            unsafe { add_i64(dst.as_mut_ptr().cast(), src.as_ptr().cast(), n) };
            true
        } else if t == TypeId::of::<i32>() {
            // SAFETY: T is exactly i32 (TypeId match); AVX2 was verified.
            unsafe { add_i32(dst.as_mut_ptr().cast(), src.as_ptr().cast(), n) };
            true
        } else {
            false
        }
    }

    /// `dst[i] += src[i]`, four `i64` lanes per instruction. Vector adds
    /// wrap on overflow, matching release-mode scalar `+=`.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support, and `dst`/`src` must
    /// each be valid for `n` elements.
    // analyze: hot-path
    #[target_feature(enable = "avx2")]
    unsafe fn add_i64(dst: *mut i64, src: *const i64, n: usize) {
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n keeps every unaligned lane in bounds.
            unsafe {
                let d = _mm256_loadu_si256(dst.add(i).cast());
                let s = _mm256_loadu_si256(src.add(i).cast());
                _mm256_storeu_si256(dst.add(i).cast(), _mm256_add_epi64(d, s));
            }
            i += 4;
        }
        while i < n {
            // SAFETY: i < n, so both element reads and the write are valid.
            unsafe { *dst.add(i) = (*dst.add(i)).wrapping_add(*src.add(i)) };
            i += 1;
        }
    }

    /// `dst[i] += src[i]`, eight `i32` lanes per instruction.
    ///
    /// # Safety
    ///
    /// Same contract as [`add_i64`].
    // analyze: hot-path
    #[target_feature(enable = "avx2")]
    unsafe fn add_i32(dst: *mut i32, src: *const i32, n: usize) {
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: i + 8 <= n keeps every unaligned lane in bounds.
            unsafe {
                let d = _mm256_loadu_si256(dst.add(i).cast());
                let s = _mm256_loadu_si256(src.add(i).cast());
                _mm256_storeu_si256(dst.add(i).cast(), _mm256_add_epi32(d, s));
            }
            i += 8;
        }
        while i < n {
            // SAFETY: i < n, so both element reads and the write are valid.
            unsafe { *dst.add(i) = (*dst.add(i)).wrapping_add(*src.add(i)) };
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikemat::gemm::spiking_gemm;

    fn fig1_matrix() -> SpikeMatrix {
        SpikeMatrix::from_rows_of_bits(&[
            &[1, 0, 1, 0],
            &[1, 0, 0, 1],
            &[1, 0, 1, 1],
            &[0, 0, 1, 0],
            &[1, 1, 0, 1],
            &[1, 1, 0, 1],
        ])
    }

    #[test]
    fn matches_reference_single_tile() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 3, |r, c| (r * 3 + c) as i64 - 5);
        let got = prosparsity_gemm(&s, &w, TileShape::new(6, 4));
        assert_eq!(got, spiking_gemm(&s, &w));
    }

    #[test]
    fn matches_reference_under_every_tiling() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 2, |r, c| (r as i64 + 1) * (c as i64 + 2));
        let reference = spiking_gemm(&s, &w);
        for m in 1..=7 {
            for k in 1..=5 {
                let got = prosparsity_gemm(&s, &w, TileShape::new(m, k));
                assert_eq!(got, reference, "tile {m}x{k}");
            }
        }
    }

    #[test]
    fn serial_and_default_paths_agree() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 3, |r, c| (r * 5 + c) as i64 - 7);
        for m in 1..=7 {
            for k in 1..=5 {
                let plan = ProSparsityPlan::build_tiled(&s, TileShape::new(m, k));
                assert_eq!(
                    execute_plan(&plan, &w),
                    execute_plan_serial(&plan, &w),
                    "tile {m}x{k}"
                );
            }
        }
    }

    #[test]
    fn exact_match_rows_get_identical_outputs() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 3, |r, c| (r * r + c) as i64);
        let out = prosparsity_gemm(&s, &w, TileShape::new(6, 4));
        assert_eq!(out.row(4), out.row(5));
    }

    #[test]
    fn random_matrices_are_lossless() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let m = rng.gen_range(1..40);
            let k = rng.gen_range(1..30);
            let n = rng.gen_range(1..10);
            let density = rng.gen_range(0.05..0.6);
            let s = SpikeMatrix::random(m, k, density, &mut rng);
            let w = WeightMatrix::from_fn(k, n, |_, _| rng.gen_range(-100i64..100));
            let shape = TileShape::new(rng.gen_range(1..=m.max(1)), rng.gen_range(1..=k.max(1)));
            assert_eq!(
                prosparsity_gemm(&s, &w, shape),
                spiking_gemm(&s, &w),
                "trial {trial}"
            );
        }
    }

    /// Spike matrices built to stress prefix aliasing in the executor,
    /// under 256 × 16 tiles (K = 40, so the last column tile is short):
    ///
    /// * row group 0: per block of 8 rows, four identical rows (an
    ///   exact-of-exact chain three links deep), two partial rows on top of
    ///   them, another exact row, and a subset row;
    /// * row group 1: 256 identical rows;
    /// * row group 2: 90 valid rows, every third one empty, so the
    ///   duplicated padding rows chain onto valid empty rows.
    fn aliasing_cases(rng: &mut rand::rngs::StdRng) -> SpikeMatrix {
        use rand::Rng;
        let (k, m) = (40, 256);
        let mut s = SpikeMatrix::zeros(2 * m + 90, k);
        fn set_row(s: &mut SpikeMatrix, r: usize, bits: &[usize]) {
            for &c in bits {
                s.set(r, c, true);
            }
        }
        for block in 0..m / 8 {
            let base: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.3)).collect();
            let r0 = block * 8;
            for r in r0..r0 + 4 {
                set_row(&mut s, r, &base);
            }
            let extra = rng.gen_range(0..k);
            set_row(&mut s, r0 + 4, &base);
            set_row(&mut s, r0 + 4, &[extra]);
            set_row(&mut s, r0 + 5, &base);
            set_row(&mut s, r0 + 5, &[extra, (extra + 7) % k]);
            set_row(&mut s, r0 + 6, &base);
            let half: Vec<usize> = base.iter().copied().step_by(2).collect();
            set_row(&mut s, r0 + 7, &half);
        }
        let same: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.4)).collect();
        for r in m..2 * m {
            set_row(&mut s, r, &same);
        }
        for r in 2 * m..s.rows() {
            if r % 3 != 0 {
                let bits: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.2)).collect();
                set_row(&mut s, r, &bits);
            }
        }
        s
    }

    /// Longest run of exact matches chained onto exact matches in `plan`.
    fn longest_exact_chain(plan: &ProSparsityPlan) -> usize {
        use crate::prune::MatchKind;
        let mut longest = 0;
        for tile in plan.tiles() {
            for r in 0..tile.rows.len() {
                let (mut row, mut depth) = (r, 0);
                while tile.rows[row].kind == MatchKind::Exact {
                    depth += 1;
                    match tile.rows[row].prefix {
                        Some(p) => row = p,
                        None => break,
                    }
                }
                longest = longest.max(depth);
            }
        }
        longest
    }

    fn aliasing_case_is_lossless<T>(s: &SpikeMatrix, w: &WeightMatrix<T>)
    where
        T: crate::engine::Element + std::fmt::Debug + PartialEq,
    {
        let shape = TileShape::new(256, 16);
        let want = spiking_gemm(s, w);
        let plan = ProSparsityPlan::build_tiled(s, shape);
        assert_eq!(execute_plan_serial(&plan, w), want, "serial executor");
        let config = crate::engine::EngineConfig {
            tile: shape,
            ..crate::engine::EngineConfig::default()
        };
        let mut session = crate::engine::Session::<T>::new(config);
        let mut out = OutputMatrix::zeros(0, 0);
        session.gemm_into_serial(s, w, &mut out);
        assert_eq!(out, want, "serial session");
        #[cfg(feature = "parallel")]
        rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("two-thread pool")
            .install(|| {
                assert_eq!(execute_plan(&plan, w), want, "pooled executor");
                // Cold, then warm: the second call serves cached plans.
                for pass in 0..2 {
                    session.gemm_into(s, w, &mut out);
                    assert_eq!(out, want, "pooled session, pass {pass}");
                }
            });
    }

    #[test]
    fn exact_match_aliasing_is_lossless_serial_and_pooled() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA11A5);
        let s = aliasing_cases(&mut rng);
        assert!(
            longest_exact_chain(&ProSparsityPlan::build_tiled(&s, TileShape::new(256, 16))) >= 3,
            "the cases must hold exact-of-exact chains"
        );
        // n = 16 makes each row-tile 256 · 40 · 16 MACs, enough for the
        // session to fan its row-tiles out over the pool.
        let w64 = WeightMatrix::from_fn(40, 16, |_, _| rng.gen_range(-1000i64..1000));
        let w32 = WeightMatrix::from_fn(40, 16, |_, _| rng.gen_range(-1000i32..1000));
        aliasing_case_is_lossless(&s, &w64);
        aliasing_case_is_lossless(&s, &w32);
    }

    #[test]
    fn empty_output_dimension_is_fine() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 0, |_, _| 0i64);
        let out = prosparsity_gemm(&s, &w, TileShape::new(4, 4));
        assert_eq!(out.rows(), 6);
        assert_eq!(out.cols(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match weight rows")]
    fn weight_shape_mismatch_panics() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(5, 2, |_, _| 0i32);
        let _ = prosparsity_gemm(&s, &w, TileShape::new(6, 4));
    }
}
