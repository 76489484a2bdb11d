//! [`ClockStats`] aggregation laws: per-shard statistics merge to the
//! same totals in any order, as the detectors' metric feeds rely on.

use crace_vclock::{ClockStats, Observation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replays a random observation stream into per-shard `ClockStats` and
/// checks that merging the shards in any order equals folding the whole
/// stream into one accumulator — the law the Observer's clock-stats feed
/// relies on when it sums per-object stats.
#[test]
fn merge_equals_streaming_fold_in_any_order() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xC10C ^ seed);
        let mut shards = vec![ClockStats::default(); 8];
        let mut whole = ClockStats::default();
        for _ in 0..500 {
            let obs = match rng.gen_range(0u32..10) {
                0..=6 => Observation::EpochFast, // epochs dominate, as in real runs
                7 => Observation::Promoted,
                _ => Observation::VectorJoin,
            };
            shards[rng.gen_range(0..8)].record(obs);
            whole.record(obs);
        }
        // Forward order.
        let mut fwd = ClockStats::default();
        for s in &shards {
            fwd.merge(s);
        }
        assert_eq!(fwd, whole, "seed {seed}");
        // Reverse order — merge is commutative.
        let mut rev = ClockStats::default();
        for s in shards.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(rev, whole, "seed {seed}");
        assert_eq!(fwd.total(), 500);
        let rate = fwd.epoch_hit_rate();
        assert!((0.0..=1.0).contains(&rate), "rate {rate}");
    }
}

#[test]
fn merge_with_default_is_identity() {
    let mut stats = ClockStats {
        epoch_updates: 3,
        promotions: 1,
        vector_updates: 2,
    };
    let before = stats;
    stats.merge(&ClockStats::default());
    assert_eq!(stats, before);
    let mut zero = ClockStats::default();
    zero.merge(&before);
    assert_eq!(zero, before);
}
