//! Concurrency-facing integration tests: [`ClockStats`] aggregation laws
//! and [`PublishedClocks`] snapshot publication under real concurrent
//! readers driving seeded-random interleavings.

use crace_model::{LockId, ThreadId};
use crace_vclock::{ClockStats, Observation, PublishedClocks, VectorClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

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

/// Readers hammer [`PublishedClocks::clock`] while writer threads follow
/// the ownership discipline (each simulated thread's clock is written only
/// by its owning OS thread). Every snapshot a reader observes must be
/// internally consistent: monotonically non-decreasing in the owner's own
/// component, since the owner only ever joins into or increments its
/// clock.
#[test]
fn concurrent_readers_always_see_complete_snapshots() {
    for round in 0..4u64 {
        let sync = Arc::new(PublishedClocks::new());
        let stop = Arc::new(AtomicBool::new(false));
        const WRITERS: u32 = 4;
        const READERS: usize = 3;
        // Writers start only once every reader has taken its first
        // snapshot, so no reader can find the run already over.
        let start = Arc::new(Barrier::new(READERS + WRITERS as usize));

        // Fork every writer's simulated thread up front so readers have a
        // slot to watch from the start.
        for w in 0..WRITERS {
            sync.fork(ThreadId(0), ThreadId(w + 1));
        }

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let sync = Arc::clone(&sync);
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBEEF ^ round ^ (r as u64) << 32);
                    let mut floor: Vec<u64> = vec![0; WRITERS as usize];
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let w = rng.gen_range(0..WRITERS);
                        let tid = ThreadId(w + 1);
                        let snap: Arc<VectorClock> = sync.clock(tid);
                        let own = snap.get(tid);
                        assert!(
                            own >= floor[w as usize],
                            "thread {tid}: own component went back from \
                             {} to {own}",
                            floor[w as usize]
                        );
                        floor[w as usize] = own;
                        reads += 1;
                        if reads == 1 {
                            start.wait();
                        }
                    }
                    reads
                })
            })
            .collect();

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let sync = Arc::clone(&sync);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let tid = ThreadId(w + 1);
                    let mut rng = StdRng::seed_from_u64(0xFEED ^ round ^ (w as u64) << 16);
                    for _ in 0..400 {
                        // Each op ends in inc(tid) (release) or a join that
                        // never lowers components (acquire), so the owner's
                        // own component never decreases.
                        let lock = LockId(rng.gen_range(0u64..3));
                        if rng.gen_bool(0.5) {
                            sync.acquire(tid, lock);
                        } else {
                            sync.release(tid, lock);
                        }
                    }
                })
            })
            .collect();

        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let reads = r.join().unwrap();
            assert!(reads > 0, "reader starved");
        }

        // After the dust settles, joining every writer into main must
        // produce a clock that dominates each writer's final snapshot.
        for w in 0..WRITERS {
            sync.join(ThreadId(0), ThreadId(w + 1));
        }
        let main = sync.clock(ThreadId(0));
        for w in 0..WRITERS {
            assert!(sync.clock(ThreadId(w + 1)).le(&main), "writer {w}");
        }
    }
}
