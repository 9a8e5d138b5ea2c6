//! Unit tests (kept beside the module, out of its main file).

use super::*;
use spikemat::{SpikeMatrix, TileShape};

fn tile_of(rows: &[&[u8]]) -> SpikeMatrix {
    SpikeMatrix::from_rows_of_bits(rows)
}

/// A tile's flat cache key: its row-major limbs.
fn key(tile: &SpikeMatrix) -> Vec<u64> {
    tile.row_slice()
        .iter()
        .flat_map(|r| r.limbs().iter().copied())
        .collect()
}

/// The tile hash streamed row by row, without a flat key: how tiles were
/// hashed before keys were extracted, and what snapshot hashes hold.
fn row_streamed_hash(tile: &SpikeMatrix) -> u64 {
    let mut h = LimbHasher::new();
    for row in tile.row_slice() {
        h.extend(row.limbs());
    }
    h.finish()
}

#[test]
fn extracted_keys_are_submatrix_limbs_and_hash_unchanged() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(3);
    let mut tile = SpikeMatrix::zeros(0, 0);
    let mut keys = Vec::new();
    for k in [1, 16, 63, 64, 65, 100, 130] {
        for m in [1, 5, 16] {
            // Ragged on both axes: a short last row group and a short last
            // column tile.
            let rows = m * rng.gen_range(1..4) + rng.gen_range(1..m.max(2));
            let cols = k * rng.gen_range(1..4) + rng.gen_range(1..k.max(2));
            let spikes = SpikeMatrix::random(rows, cols, 0.4, &mut rng);
            let shape = TileShape::new(m, k);
            let (gm, gk) = shape.grid(rows, cols);
            for ti in 0..gm {
                spikes.tile_keys_into(ti * m, shape, gk, &mut keys);
                assert_eq!(keys.len(), gk * shape.key_limbs(), "{m}x{k}");
                for (tj, got) in keys.chunks_exact(shape.key_limbs()).enumerate() {
                    spikes.submatrix_into(ti * m, tj * k, m, k, &mut tile);
                    assert_eq!(got, key(&tile).as_slice(), "{m}x{k} tile ({ti}, {tj})");
                    assert_eq!(
                        hash_limbs(got),
                        row_streamed_hash(&tile),
                        "{m}x{k} tile ({ti}, {tj})"
                    );
                }
            }
        }
    }
}

#[test]
fn hash_collisions_cannot_alias_plans() {
    // Force two distinct tiles into one bucket: plans still resolve by
    // full limb comparison.
    let t1 = tile_of(&[&[1, 0], &[0, 1]]);
    let t2 = tile_of(&[&[0, 1], &[1, 0]]);
    let tz = SpikeMatrix::zeros(2, 2);
    let m1 = Arc::new(TileMeta::build(&t1, 0, 0));
    let m2 = Arc::new(TileMeta::build(&t2, 0, 0));
    let mut cache = PlanCache::new(8, None);
    cache.insert(42, &key(&t1), Arc::clone(&m1));
    cache.insert(42, &key(&t2), Arc::clone(&m2)); // same hash, different bits
    let (got1, restored1) = cache.lookup(42, &key(&t1)).expect("t1 resident");
    let (got2, _) = cache.lookup(42, &key(&t2)).expect("t2 resident");
    assert!(Arc::ptr_eq(&got1, &m1));
    assert!(Arc::ptr_eq(&got2, &m2));
    assert!(!restored1, "live insertions are not restored entries");
    assert!(cache.lookup(42, &key(&tz)).is_none());
}

#[test]
fn lru_evicts_oldest() {
    let tiles: Vec<SpikeMatrix> = (0..3u8)
        .map(|i| tile_of(&[&[i & 1, (i >> 1) & 1, 1]]))
        .collect();
    let mut cache = PlanCache::new(2, None);
    for t in &tiles {
        let meta = Arc::new(TileMeta::build(t, 0, 0));
        let k = key(t);
        cache.insert(hash_limbs(&k), &k, meta);
    }
    assert_eq!(cache.len(), 2);
    // First-inserted tile was LRU and is gone; the other two remain.
    let keys: Vec<Vec<u64>> = tiles.iter().map(key).collect();
    assert!(cache.lookup(hash_limbs(&keys[0]), &keys[0]).is_none());
    assert!(cache.lookup(hash_limbs(&keys[1]), &keys[1]).is_some());
    assert!(cache.lookup(hash_limbs(&keys[2]), &keys[2]).is_some());
}

#[test]
fn admission_closes_on_cold_stream_and_probes() {
    let cfg = AdmissionConfig {
        window: 4,
        min_hit_permille: 500,
        probe_period: 3,
    };
    let mut a = Admission::new(cfg);
    // First window: open regardless.
    assert!(a.should_insert());
    for _ in 0..4 {
        a.record(false);
    }
    assert!(!a.open, "all-miss window must close admission");
    // Bypassing, with every 3rd miss probing through.
    let pattern: Vec<bool> = (0..6).map(|_| a.should_insert()).collect();
    assert_eq!(pattern, [false, false, true, false, false, true]);
    // A hot window re-opens admission.
    for _ in 0..4 {
        a.record(true);
    }
    assert!(a.open);
    assert!(a.should_insert());
}

#[test]
fn zero_probe_period_never_probes() {
    let mut a = Admission::new(AdmissionConfig {
        window: 2,
        min_hit_permille: 1000,
        probe_period: 0,
    });
    a.record(false);
    a.record(false);
    assert!((0..10).all(|_| !a.should_insert()));
}

#[test]
fn cache_bypasses_insertions_once_closed() {
    let cfg = AdmissionConfig {
        window: 2,
        min_hit_permille: 500,
        probe_period: 0,
    };
    let mut cache = PlanCache::new(16, Some(cfg));
    let mut tiles = Vec::new();
    for i in 0..6u8 {
        tiles.push(tile_of(&[&[1, i & 1, (i >> 1) & 1, (i >> 2) & 1]]));
    }
    let mut outcomes = Vec::new();
    for t in &tiles {
        let k = key(t);
        let h = hash_limbs(&k);
        assert!(cache.lookup(h, &k).is_none());
        outcomes.push(cache.insert(h, &k, Arc::new(TileMeta::build(t, 0, 0))));
    }
    // The window rolls during the lookup that completes it, so the
    // second miss of the all-miss window is already bypassed; only the
    // first insertion lands.
    assert_eq!(outcomes[0], InsertOutcome::Inserted);
    assert!(outcomes[1..].iter().all(|&o| o == InsertOutcome::Bypassed));
    assert_eq!(cache.len(), 1);
}
