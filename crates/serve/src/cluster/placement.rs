//! Consistent-hash model placement with per-model replica sets.
//!
//! Each shard owns a fixed number of virtual nodes on a 64-bit hash
//! ring; a model hashes (FNV-1a over its registered name, finalized
//! with splitmix64) to a ring point and walks clockwise collecting the
//! first `replication` **distinct** shards — the first is the primary,
//! the rest are replicas in chain order. The walk is a pure function of
//! (model name, shard count, replication), so placement is
//! deterministic, and consistent hashing keeps it stable: adding or
//! removing a shard moves only the models whose arcs it owned, which is
//! what makes the elastic-shard-count follow-on tractable.

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
/// The same PRNG idiom the scheduler's tests use; here it spreads ring
/// points and steers the feedback-blind `Random` router.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string — the stable name hash feeding the ring
/// lookup.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Virtual ring nodes per shard, smoothing the distribution of arcs.
const VNODES: usize = 16;

/// The cluster's model → replica-set map, built once per
/// [`ClusterRuntime`](super::ClusterRuntime) from the registered model
/// names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    /// Per model (dense cluster-global id): the shards holding its
    /// artifact, primary first, in chain-replication order.
    replicas: Vec<Vec<usize>>,
    shards: usize,
}

impl PlacementMap {
    /// Places `model_names` (dense id order) across `shards` shards
    /// with `replication` replicas each (capped at the shard count) and
    /// `VNODES` ring points per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `replication` is zero.
    pub fn consistent_hash(model_names: &[&str], shards: usize, replication: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(replication > 0, "need at least one replica per model");
        let replication = replication.min(shards);

        // Ring points: (hash, shard), sorted by hash. Ties are broken
        // by shard index so the ring is a deterministic total order.
        let mut ring: Vec<(u64, usize)> = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for v in 0..VNODES {
                ring.push((splitmix64(((s as u64) << 20) | v as u64), s));
            }
        }
        ring.sort_unstable();

        let replicas = model_names
            .iter()
            .map(|name| {
                let point = splitmix64(fnv1a(name.as_bytes()));
                let start = ring.partition_point(|&(h, _)| h < point);
                let mut set: Vec<usize> = Vec::with_capacity(replication);
                for i in 0..ring.len() {
                    let (_, shard) = ring[(start + i) % ring.len()];
                    if !set.contains(&shard) {
                        set.push(shard);
                        if set.len() == replication {
                            break;
                        }
                    }
                }
                set
            })
            .collect();
        PlacementMap { replicas, shards }
    }

    /// The shards holding `model`'s artifact, primary first.
    pub fn replicas(&self, model: usize) -> &[usize] {
        &self.replicas[model]
    }

    /// Number of shards the map was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of placed models.
    pub fn models(&self) -> usize {
        self.replicas.len()
    }

    /// The models placed on `shard` (primary or replica), in id order —
    /// the shard's local registry contents.
    pub fn models_on(&self, shard: usize) -> Vec<usize> {
        (0..self.replicas.len())
            .filter(|&m| self.replicas[m].contains(&shard))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let names = ["gru-a", "gru-b", "gru-c", "gru-d"];
        let a = PlacementMap::consistent_hash(&names, 16, 3);
        let b = PlacementMap::consistent_hash(&names, 16, 3);
        assert_eq!(a, b);
        for m in 0..names.len() {
            let set = a.replicas(m);
            assert_eq!(set.len(), 3);
            let mut sorted = set.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct shards");
            assert!(set.iter().all(|&s| s < 16));
        }
    }

    #[test]
    fn replication_caps_at_shard_count() {
        let map = PlacementMap::consistent_hash(&["m"], 2, 5);
        assert_eq!(map.replicas(0).len(), 2);
    }

    #[test]
    fn models_on_inverts_replicas() {
        let names = ["x", "y", "z"];
        let map = PlacementMap::consistent_hash(&names, 8, 2);
        for s in 0..8 {
            for m in map.models_on(s) {
                assert!(map.replicas(m).contains(&s));
            }
        }
    }

    #[test]
    fn adding_a_shard_moves_few_primaries() {
        // Consistent hashing's point: growing the ring by one shard
        // must not reshuffle the world. With 32 models over 16 → 17
        // shards, most primaries stay put.
        let names: Vec<String> = (0..32).map(|i| format!("model-{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let before = PlacementMap::consistent_hash(&refs, 16, 1);
        let after = PlacementMap::consistent_hash(&refs, 17, 1);
        let moved = (0..32)
            .filter(|&m| before.replicas(m)[0] != after.replicas(m)[0])
            .count();
        assert!(moved <= 8, "{moved} of 32 primaries moved");
    }
}
