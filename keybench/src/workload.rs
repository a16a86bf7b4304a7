//! The four workloads: service configuration plus a seeded event generator.
//!
//! The generator keeps an *intent mirror* — every group's membership once
//! all events it has emitted are applied — and emits only events that are
//! valid against it, so the service should reject none of them. Group sizes
//! are mean-reverting (Poisson churn is pulled towards a target size;
//! rotations and bursts return each group to its founding size), so epoch
//! `k` costs the same as epoch `k + N`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use egka_core::{paper_fixture, Pkg, SecurityProfile, UserId};
use egka_energy::{CpuModel, Transceiver};
use egka_hash::ChaChaRng;
use egka_medium::RadioProfile;
use egka_service::{
    GroupId, KeyService, MembershipEvent, RadioConfig, ServiceBuilder, Store, StoreConfig,
    SuitePolicy,
};
use rand::SeedableRng;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hundreds of small toy groups under Poisson churn plus merges.
    FleetChurn,
    /// A handful of 32–40 member groups on the paper's 1024-bit fixture.
    PaperBigGroups,
    /// Bursty joins (and their later leaves) over a fsyncing `FileStore`.
    DurableBurst,
    /// Tiny groups on the cheapest-suite policy over a lossy 100 kbps radio.
    FieldRadioMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetChurn,
        Workload::PaperBigGroups,
        Workload::DurableBurst,
        Workload::FieldRadioMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetChurn => "fleet_churn",
            Workload::PaperBigGroups => "paper_big_groups",
            Workload::DurableBurst => "durable_burst",
            Workload::FieldRadioMixed => "field_radio_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> Spec {
        let (groups, found, traffic, epochs_per_s) = match self {
            Workload::FleetChurn => (
                200,
                (4, 6),
                Traffic::Churn(Churn {
                    target: 5.0,
                    min_size: 3,
                    max_joins: 4,
                    rate: 0.22,
                    pull: 0.15,
                    merges_per_epoch: 0.5,
                }),
                15.0,
            ),
            Workload::PaperBigGroups => (5, (32, 40), Traffic::Rotate, 15.0),
            Workload::DurableBurst => (
                96,
                (4, 6),
                Traffic::Burst(Burst {
                    groups: 12,
                    joins: 6,
                    leave_after: 3,
                }),
                15.0,
            ),
            Workload::FieldRadioMixed => (
                28,
                (2, 4),
                Traffic::Churn(Churn {
                    target: 3.0,
                    min_size: 2,
                    max_joins: 2,
                    rate: 0.2,
                    pull: 0.2,
                    merges_per_epoch: 0.0,
                }),
                10.0,
            ),
        };
        Spec {
            workload: self,
            groups,
            found,
            traffic,
            epochs_per_s,
        }
    }
}

/// How a workload's events arrive.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// Every group, every epoch: Poisson joins and leaves plus merges.
    Churn(Churn),
    /// Each epoch one group, in rotation, gains a member (two visits out
    /// of three) or loses two (the third), so every epoch is one rekey and
    /// sizes stay within two members of their founding size.
    Rotate,
    /// Join bursts on a rotating slice of groups, leaving again later.
    Burst(Burst),
}

/// Poisson churn with rates pulled towards a target size.
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    /// Size the rates pull towards.
    pub target: f64,
    /// No leave takes a group below this size.
    pub min_size: usize,
    /// Cap on joins per group per epoch.
    pub max_joins: u64,
    /// Base Poisson rate of joins and of leaves per group per epoch.
    pub rate: f64,
    /// Extra rate per member of distance from `target`.
    pub pull: f64,
    /// Poisson mean of `MergeWith` pairs per epoch.
    pub merges_per_epoch: f64,
}

/// Join bursts on a rotating slice of groups; each burst leaves again
/// `leave_after` epochs later.
#[derive(Clone, Copy, Debug)]
pub struct Burst {
    /// Groups in the slice that bursts each epoch.
    pub groups: usize,
    /// Joins per bursting group.
    pub joins: usize,
    /// Epochs until the burst's users leave.
    pub leave_after: u64,
}

/// Sizing and traffic shape of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// Founding groups (merges re-found absorbed groups, so this stays flat).
    pub groups: usize,
    /// Founding size range, inclusive.
    pub found: (usize, usize),
    pub traffic: Traffic,
    /// Measured epochs per `--seconds`: the epoch count is fixed by the
    /// seconds argument, so every deterministic output repeats for a seed.
    pub epochs_per_s: f64,
}

impl Spec {
    /// Measured epochs for a run of `seconds`, rounded up so that each
    /// half of the run covers whole periods of the traffic pattern.
    pub fn epochs(&self, seconds: u64) -> u64 {
        let period = match self.traffic {
            Traffic::Churn(_) => 1,
            Traffic::Rotate => 3 * self.groups as u64,
            Traffic::Burst(b) => self.groups.div_ceil(b.groups) as u64,
        };
        let nominal = (seconds as f64 * self.epochs_per_s).round() as u64;
        nominal.max(2).div_ceil(2 * period) * 2 * period
    }

    /// The PKG this workload runs on (part of set-up: toy parameters are
    /// generated from the seed, the paper fixture is parsed).
    pub fn pkg(&self, seed: u64) -> Pkg {
        match self.workload {
            Workload::PaperBigGroups => paper_fixture(),
            _ => {
                let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x9c5e_11b0);
                Pkg::setup(&mut rng, SecurityProfile::Toy)
            }
        }
    }

    /// The service configuration; everything not named keeps the builder
    /// default (8 shards, sequential pump, `proposed` suite).
    pub fn builder(&self, seed: u64, store: Option<Arc<dyn Store>>) -> ServiceBuilder {
        let mut b = KeyService::builder().seed(seed ^ 0x5e41_ce00);
        if let Some(backend) = store {
            b = b.store(StoreConfig::new(backend));
        }
        if self.workload == Workload::FieldRadioMixed {
            b = b
                .suite_policy(SuitePolicy::Cheapest {
                    cpu: CpuModel::strongarm_133(),
                    transceiver: Transceiver::radio_100kbps(),
                })
                .radio(RadioConfig::new(RadioProfile::sensor_100kbps()));
        }
        b
    }

    /// Per-delivery loss switched on once the founding groups exist.
    pub fn loss(&self) -> f64 {
        if self.workload == Workload::FieldRadioMixed {
            0.01
        } else {
            0.0
        }
    }

    pub fn uses_store(&self) -> bool {
        matches!(self.traffic, Traffic::Burst(_))
    }
}

/// What the client does in one epoch: submit `events` in order, tick, then
/// found `refound` (fresh groups replacing the ones merges absorbed).
#[derive(Debug, Default)]
pub struct EpochPlan {
    pub events: Vec<(GroupId, MembershipEvent)>,
    pub refound: Vec<(GroupId, Vec<UserId>)>,
}

/// SplitMix64: a small, seedable generator for the traffic shape.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Knuth's Poisson sampler (fine for the small means used here).
    fn poisson(&mut self, mean: f64) -> u64 {
        let limit = (-mean).exp();
        let mut k = 0;
        let mut p = self.unit();
        while p > limit {
            k += 1;
            p *= self.unit();
        }
        k
    }
}

/// Seeded event source plus the intent mirror the correctness gate checks
/// the service against.
pub struct Generator {
    spec: Spec,
    rng: Mix,
    mirror: BTreeMap<GroupId, BTreeSet<UserId>>,
    /// Founding order, for the rotating workloads.
    slots: Vec<GroupId>,
    leaves_due: BTreeMap<u64, Vec<(GroupId, Vec<UserId>)>>,
    /// Every group a `MergeWith` absorbed, with the group that absorbed it.
    merged_into: BTreeMap<GroupId, GroupId>,
    next_user: u32,
    next_gid: GroupId,
    epoch: u64,
}

impl Generator {
    pub fn new(spec: Spec, seed: u64) -> Self {
        Generator {
            spec,
            rng: Mix(seed ^ 0x6b65_7962_656e_6368),
            mirror: BTreeMap::new(),
            slots: Vec::new(),
            leaves_due: BTreeMap::new(),
            merged_into: BTreeMap::new(),
            next_user: 0,
            next_gid: 1,
            epoch: 0,
        }
    }

    /// Membership every live group should have once all emitted events
    /// are applied.
    pub fn mirror(&self) -> &BTreeMap<GroupId, BTreeSet<UserId>> {
        &self.mirror
    }

    /// The group a `MergeWith` emitted for `target` would fold it into.
    pub fn merged_into(&self, target: GroupId) -> Option<GroupId> {
        self.merged_into.get(&target).copied()
    }

    fn fresh_users(&mut self, k: usize) -> Vec<UserId> {
        let users = (0..k).map(|i| UserId(self.next_user + i as u32)).collect();
        self.next_user += k as u32;
        users
    }

    /// Founds the next group. Sizes are spread evenly over the founding
    /// range by group id (re-founded groups cycle through the same sizes),
    /// not drawn from the seed: the size mix sets the suite mix and the
    /// per-epoch cost, so drawing it would make seeds differ in kind.
    fn found(&mut self) -> (GroupId, Vec<UserId>) {
        let (lo, hi) = self.spec.found;
        let i = (self.next_gid as usize - 1) % self.spec.groups;
        let n = lo + i * (hi - lo + 1) / self.spec.groups;
        let gid = self.next_gid;
        self.next_gid += 1;
        let users = self.fresh_users(n);
        self.mirror.insert(gid, users.iter().copied().collect());
        (gid, users)
    }

    /// The founding groups (created during set-up).
    pub fn founding(&mut self) -> Vec<(GroupId, Vec<UserId>)> {
        let groups: Vec<_> = (0..self.spec.groups).map(|_| self.found()).collect();
        self.slots = groups.iter().map(|(gid, _)| *gid).collect();
        groups
    }

    pub fn next_epoch(&mut self) -> EpochPlan {
        self.epoch += 1;
        match self.spec.traffic {
            Traffic::Churn(churn) => self.churn_epoch(churn),
            Traffic::Rotate => self.rotate_epoch(),
            Traffic::Burst(burst) => self.burst_epoch(burst),
        }
    }

    fn churn_epoch(&mut self, churn: Churn) -> EpochPlan {
        let mut plan = EpochPlan::default();
        let mut busy = BTreeSet::new();
        let gids: Vec<GroupId> = self.mirror.keys().copied().collect();
        for _ in 0..self.rng.poisson(churn.merges_per_epoch) {
            let host = gids[self.rng.below(gids.len())];
            let target = gids[self.rng.below(gids.len())];
            if host == target || busy.contains(&host) || busy.contains(&target) {
                continue;
            }
            busy.insert(host);
            busy.insert(target);
            plan.events.push((host, MembershipEvent::MergeWith(target)));
            self.merged_into.insert(target, host);
            let absorbed = self.mirror.remove(&target).expect("target is live");
            self.mirror
                .get_mut(&host)
                .expect("host is live")
                .extend(absorbed);
            plan.refound.push(self.found());
        }
        for gid in gids {
            if busy.contains(&gid) {
                continue;
            }
            let n = self.mirror[&gid].len();
            let gap = churn.target - n as f64;
            let join_mean = (churn.rate + churn.pull * gap).max(0.0);
            let leave_mean = (churn.rate - churn.pull * gap).max(0.0);
            let joins = self.rng.poisson(join_mean).min(churn.max_joins) as usize;
            let leaves = (self.rng.poisson(leave_mean) as usize).min(n - churn.min_size.min(n));
            self.churn_group(gid, joins, leaves, &mut plan);
        }
        plan
    }

    fn rotate_epoch(&mut self) -> EpochPlan {
        // Joins cost an order of magnitude less than the Partition, so with
        // two joins per three visits the median epoch is a join and the p90
        // epoch a Partition, each well inside its own cluster.
        let mut plan = EpochPlan::default();
        let at = self.epoch as usize - 1;
        let gid = self.slots[at % self.slots.len()];
        let (joins, leaves) = if (at / self.slots.len()) % 3 < 2 {
            (1, 0)
        } else {
            (0, 2)
        };
        self.churn_group(gid, joins, leaves, &mut plan);
        plan
    }

    /// `leaves` random current members leave, then `joins` fresh users join.
    fn churn_group(&mut self, gid: GroupId, joins: usize, leaves: usize, plan: &mut EpochPlan) {
        for _ in 0..leaves {
            let members = self.mirror.get_mut(&gid).expect("group is live");
            let pick = self.rng.below(members.len());
            let user = *members.iter().nth(pick).expect("pick is in range");
            members.remove(&user);
            plan.events.push((gid, MembershipEvent::Leave(user)));
        }
        for user in self.fresh_users(joins) {
            self.mirror
                .get_mut(&gid)
                .expect("group is live")
                .insert(user);
            plan.events.push((gid, MembershipEvent::Join(user)));
        }
    }

    fn burst_epoch(&mut self, burst: Burst) -> EpochPlan {
        let mut plan = EpochPlan::default();
        for (gid, users) in self.leaves_due.remove(&self.epoch).unwrap_or_default() {
            let members = self.mirror.get_mut(&gid).expect("group is live");
            for user in users {
                members.remove(&user);
                plan.events.push((gid, MembershipEvent::Leave(user)));
            }
        }
        let start = (self.epoch as usize - 1) * burst.groups;
        for i in 0..burst.groups {
            let gid = self.slots[(start + i) % self.slots.len()];
            let users = self.fresh_users(burst.joins);
            let members = self.mirror.get_mut(&gid).expect("group is live");
            for &user in &users {
                members.insert(user);
                plan.events.push((gid, MembershipEvent::Join(user)));
            }
            self.leaves_due
                .entry(self.epoch + burst.leave_after)
                .or_default()
                .push((gid, users));
        }
        plan
    }
}
