//! Health-plane reconciliation properties.
//!
//! 1. Per-shard [`ShardStats`] are an exact *partition* of the service
//!    totals: over random churn (creates, joins, leaves, merges,
//!    detaches, loss) the integer counters sum precisely to
//!    [`ServiceMetrics`], and energy matches to floating-point
//!    association order. The metrics registry's counters, meters and
//!    per-suite energy histograms equal the same totals exactly.
//! 2. Merge-phase work lands on the host group's shard and nowhere else.
//! 3. The stall ledger's consecutive-epoch counter grows while a member
//!    keeps a group stalled and resets on the first successful rekey,
//!    while the cumulative counter never forgets.

use std::sync::Arc;

use egka_core::{Pkg, SecurityProfile, UserId};
use egka_hash::ChaChaRng;
use egka_service::{
    HealthReport, KeyService, MembershipEvent, ServiceBuilder, ServiceMetrics, ShardStats,
    STALLED_AFTER_EPOCHS,
};
use egka_trace::{labeled, MetricsRegistry, MetricsSnapshot, NoopSink, TraceConfig};
use proptest::prelude::*;
use rand::SeedableRng;

fn pkg(seed: u64) -> Arc<Pkg> {
    let mut rng = ChaChaRng::seed_from_u64(0x4ea1 ^ seed);
    Arc::new(Pkg::setup(&mut rng, SecurityProfile::Toy))
}

fn builder(seed: u64, shards: usize) -> ServiceBuilder {
    KeyService::builder().shards(shards).seed(seed)
}

fn service(seed: u64, shards: usize) -> KeyService {
    builder(seed, shards).build(pkg(seed))
}

/// Group `g`'s founders are `g*100 .. g*100+size`.
fn founders(g: u64, size: u32) -> Vec<UserId> {
    (0..size).map(|i| UserId(g as u32 * 100 + i)).collect()
}

/// Asserts Σ-shards == metrics for every counter the stats partition,
/// and energy up to f64 association order.
fn assert_reconciles(stats: &[ShardStats], m: &ServiceMetrics) {
    let sum = |f: &dyn Fn(&ShardStats) -> u64| stats.iter().map(f).sum::<u64>();
    assert_eq!(sum(&|s| s.events_applied), m.events_applied);
    assert_eq!(sum(&|s| s.events_rejected), m.events_rejected);
    assert_eq!(sum(&|s| s.events_cancelled), m.events_cancelled);
    assert_eq!(sum(&|s| s.rekeys_executed), m.rekeys_executed);
    assert_eq!(sum(&|s| s.rekeys_failed), m.rekeys_failed);
    assert_eq!(sum(&|s| s.groups_stalled), m.groups_stalled);
    assert_eq!(sum(&|s| s.steps_retried), m.steps_retried);
    assert_eq!(sum(&|s| s.groups), m.groups_active);
    let lat_count: u64 = stats.iter().map(|s| s.latency_virtual.count()).sum();
    assert_eq!(lat_count, m.latency_virtual.count());
    let energy: f64 = stats.iter().map(|s| s.energy_mj).sum();
    let tol = 1e-9 * m.energy_mj.abs().max(1.0);
    assert!(
        (energy - m.energy_mj).abs() <= tol,
        "shard energy {energy} != metrics {}",
        m.energy_mj
    );
}

/// Asserts the registry's exposition totals equal the metrics exactly:
/// counters, meter lifetime totals (energy to the bit), and each
/// per-suite energy histogram's sum.
fn assert_registry_reconciles(snap: &MetricsSnapshot, m: &ServiceMetrics) {
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("epochs"), m.epochs);
    assert_eq!(counter("rekeys"), m.rekeys_executed);
    assert_eq!(counter("rekeys_failed"), m.rekeys_failed);
    assert_eq!(counter("steps_retried"), m.steps_retried);
    assert_eq!(counter("nodes_died"), m.nodes_died);
    assert_eq!(counter("groups_created"), m.groups_created);
    let meter = |name: &str| {
        snap.meters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, s)| s.total)
    };
    assert_eq!(meter("events_applied"), m.events_applied as f64);
    assert_eq!(meter("rekeys_executed"), m.rekeys_executed as f64);
    assert_eq!(
        meter("energy_mj").to_bits(),
        m.energy_mj.to_bits(),
        "energy_mj meter {} != metrics {}",
        meter("energy_mj"),
        m.energy_mj
    );
    let suite_histograms = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("suite_energy_mj{"))
        .count();
    assert_eq!(suite_histograms, m.per_suite.len());
    for (suite, usage) in &m.per_suite {
        let key = labeled("suite_energy_mj", &[("suite", suite.key())]);
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("no {key} histogram"));
        assert_eq!(
            h.sum.to_bits(),
            usage.energy_mj.to_bits(),
            "{key} sums to {} != metrics {}",
            h.sum,
            usage.energy_mj
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random churn over several epochs; after every tick the per-shard
    /// stats must partition the cumulative service metrics exactly, and
    /// the registry (attached before the first group exists, so it sees
    /// every creation) must report the same totals.
    #[test]
    fn shard_stats_partition_service_metrics(
        seed in 0u64..1_000,
        shards in 1usize..5,
        n_groups in 2u64..6,
        sizes in proptest::collection::vec(3u32..6, 5),
        epochs in 2u64..5,
        loss_pct in 0u32..30,
    ) {
        let registry = Arc::new(MetricsRegistry::new());
        let trace = TraceConfig::new(Arc::new(NoopSink)).with_registry(Arc::clone(&registry));
        let mut svc = builder(seed, shards).trace(trace).build(pkg(seed));
        for g in 0..n_groups {
            svc.create_group(g, &founders(g, sizes[g as usize % sizes.len()])).unwrap();
        }
        // Below 5% acts as the lossless case.
        if loss_pct >= 5 {
            svc.set_loss(f64::from(loss_pct) / 100.0);
        }
        for e in 0..epochs {
            for g in 0..n_groups {
                let base = g as u32 * 100;
                match (e + g) % 4 {
                    0 => { let _ = svc.submit(g, MembershipEvent::Join(UserId(base + 50 + e as u32))); }
                    1 => { let _ = svc.submit(g, MembershipEvent::Leave(UserId(base))); }
                    2 => { let _ = svc.submit(g, MembershipEvent::MergeWith((g + 1) % n_groups)); }
                    _ => {
                        // A join/leave pair that cancels, plus a detach to
                        // exercise the stall path.
                        let u = UserId(base + 70 + e as u32);
                        let _ = svc.submit(g, MembershipEvent::Join(u));
                        let _ = svc.submit(g, MembershipEvent::Leave(u));
                        if e == 1 {
                            svc.detach_member(UserId(base + 1));
                        }
                    }
                }
            }
            svc.tick();
            assert_reconciles(&svc.shard_stats(), svc.metrics());
            assert_registry_reconciles(&registry.snapshot(), svc.metrics());
        }
    }
}

/// One tick in which one host's merge commits (beside a rejected
/// self-merge) under loss, while a host on another shard stalls on a
/// detached member: each host's outcome must land on its own shard's
/// stats, and no other shard may move.
#[test]
fn merge_outcomes_are_booked_on_the_host_shard() {
    let mut svc = builder(11, 4).step_retries(8).build(pkg(11));
    for g in 1..=8 {
        svc.create_group(g, &founders(g, 3)).unwrap();
    }
    let committer = 1;
    let staller = (2..=8)
        .find(|&g| svc.shard_of(g) != svc.shard_of(committer))
        .expect("a group on another shard");
    let mut spare = (2..=8).filter(|&g| g != staller);
    let (absorbed, stalled_target) = (spare.next().unwrap(), spare.next().unwrap());
    svc.submit(committer, MembershipEvent::MergeWith(absorbed))
        .unwrap();
    svc.submit(committer, MembershipEvent::MergeWith(committer))
        .unwrap();
    svc.submit(staller, MembershipEvent::MergeWith(stalled_target))
        .unwrap();
    svc.detach_member(founders(staller, 3)[1]);
    svc.set_loss(0.1);

    let before = svc.shard_stats();
    let report = svc.tick();
    let after = svc.shard_stats();
    assert!(report.steps_retried > 0, "loss must exercise retries");

    // (applied, rejected, failed, stalled, retried, rekeys) per shard.
    let delta = |s: usize| {
        let (a, b) = (&after[s], &before[s]);
        (
            a.events_applied - b.events_applied,
            a.events_rejected - b.events_rejected,
            a.rekeys_failed - b.rekeys_failed,
            a.groups_stalled - b.groups_stalled,
            a.steps_retried - b.steps_retried,
            a.rekeys_executed - b.rekeys_executed,
        )
    };
    let energy = |s: usize| after[s].energy_mj - before[s].energy_mj;
    let (host_a, host_b) = (svc.shard_of(committer), svc.shard_of(staller));
    // The staller fails fast on its detached member, so every retry this
    // tick belongs to the committer's fold.
    assert_eq!(delta(host_a), (1, 1, 0, 0, report.steps_retried, 1));
    assert_eq!(delta(host_b), (0, 0, 1, 1, 0, 0));
    assert!(energy(host_a) > 0.0, "the committed fold is charged");
    assert!(energy(host_b) > 0.0, "the aborted attempt is charged");
    let booked = energy(host_a) + energy(host_b);
    assert!((booked - report.energy_mj).abs() <= 1e-9 * report.energy_mj);
    for s in (0..after.len()).filter(|&s| s != host_a && s != host_b) {
        assert_eq!(delta(s), (0, 0, 0, 0, 0, 0), "shard {s} moved");
        assert_eq!(energy(s), 0.0, "shard {s} was charged");
    }
    assert!(
        svc.group_key(absorbed).is_none(),
        "the committed merge absorbed its target"
    );
    assert!(
        svc.group_key(stalled_target).is_some(),
        "the stalled merge is deferred"
    );
}

#[test]
fn stall_ledger_streak_resets_on_success_and_health_tracks_it() {
    let mut svc = service(7, 2);
    svc.create_group(1, &founders(1, 4)).unwrap();
    svc.create_group(2, &founders(2, 4)).unwrap();
    assert_eq!(svc.health(), HealthReport::Healthy);

    // Member 101 powers off; group 1's leave of member 100 now needs the
    // silent 101 and stalls every epoch, while group 2 churns happily.
    let culprit = UserId(101);
    svc.detach_member(culprit);
    svc.submit(1, MembershipEvent::Leave(UserId(100))).unwrap();
    for e in 1..=STALLED_AFTER_EPOCHS {
        svc.submit(2, MembershipEvent::Join(UserId(250 + e as u32)))
            .unwrap();
        svc.tick();
        let stall = svc.stall_ledger().member(1, culprit).expect("attributed");
        assert_eq!(stall.consecutive, e);
        assert_eq!(stall.cumulative, e);
        // Group 2 keeps succeeding: its streak stays closed.
        assert!(svc.stall_ledger().member(2, UserId(201)).is_none());
        if e < STALLED_AFTER_EPOCHS {
            assert!(
                matches!(svc.health(), HealthReport::Degraded { .. }),
                "short streak degrades"
            );
        }
    }
    assert_eq!(
        svc.health(),
        HealthReport::Stalled { groups: vec![1] },
        "streak of {STALLED_AFTER_EPOCHS} flags the group"
    );

    // The member comes back; the requeued leave applies and the streak
    // closes — but the cumulative history survives.
    svc.attach_member(culprit);
    let report = svc.tick();
    assert_eq!(report.rekeys_executed, 1);
    let stall = svc.stall_ledger().member(1, culprit).expect("history kept");
    assert_eq!(stall.consecutive, 0);
    assert_eq!(stall.cumulative, STALLED_AFTER_EPOCHS);
    assert_eq!(svc.health(), HealthReport::Healthy);
}
