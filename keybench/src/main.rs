//! keybench — a closed-loop benchmark of the egka key service.
//!
//! ```text
//! cargo run --release --offline --manifest-path keybench/Cargo.toml -- \
//!     --workload fleet_churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client drives `KeyService` through its public API: it submits epoch
//! `k`'s seeded events, calls `tick()`, and only then starts epoch `k + 1`.
//! `--seconds` fixes the number of measured epochs (at the workload's
//! nominal epoch rate), so every deterministic output repeats for a seed.
//!
//! * `--trace 0`: set-up (five times, median CPU seconds reported), one
//!   untraced measured phase, and the end-to-end metrics. Time is CPU
//!   time counted in reference passes timed between epochs (see
//!   `reference`).
//! * `--trace 1`: the same untraced phase, then a separately set-up traced
//!   phase (benchmark spans around every service call, a timing decorator
//!   on the store, the service's own tracer into a bounded ring) and a
//!   calibration pass; prints the per-layer metrics and writes the spans
//!   to `keybench/out/` in Chrome `trace_event` form.
//!
//! Every run is gated on correctness outside the timed phase; a failed
//! check prints no metrics and exits non-zero. The last line of stdout is
//! one JSON object; the lines before it are a readable report.

mod calib;
mod reference;
mod spans;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use egka_core::{Pkg, UserId};
use egka_energy::OpCounts;
use egka_hash::{Digest, Sha256};
use egka_net::TrafficStats;
use egka_service::{FileStore, GroupId, KeyService, PhaseProfile, ServiceMetrics, Store, SuiteId};
use egka_trace::TraceConfig;

use spans::{Spans, TimedStore};
use workload::{Generator, Spec, Workload};

/// Set-ups per run; `setup_s` prices the median one.
const SETUPS: usize = 5;
/// Reference passes on the client thread before each set-up and after
/// the last.
const SETUP_PASSES: usize = 5;
/// What one reference pass counts for in `setup_s`: set-up CPU time is
/// reported in passes times this, the seconds it would take on a host
/// where a pass takes 1 ms (on a shared 2-vCPU VM a pass took 0.5-1.1 ms).
const PASS_S: f64 = 1e-3;
/// Reference samples on each side of an epoch that price its CPU time.
const REFERENCE_WINDOW: usize = 8;
/// Epochs the first set-up replays to check determinism.
const REPLAY_EPOCHS: u64 = 10;
/// Empty ticks allowed to flush requeued events after the measured phase.
const DRAIN_TICKS: u64 = 32;
/// Capacity of the service tracer's ring in the traced run.
const TRACE_RING: usize = 1 << 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        )
    })?;
    let number = |s: String, name: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("--{name} wants a whole number, got {s:?}"))
    };
    let seed = number(take("seed")?, "seed")?;
    let seconds = number(take("seconds")?, "seconds")?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Store directories under the output directory, removed when dropped.
struct ScratchDirs {
    root: PathBuf,
    made: Vec<PathBuf>,
}

impl ScratchDirs {
    fn fresh(&mut self, tag: &str) -> PathBuf {
        let dir = self
            .root
            .join(format!("store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        self.made.push(dir.clone());
        dir
    }
}

impl Drop for ScratchDirs {
    fn drop(&mut self) {
        for dir in &self.made {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn timed<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

/// A set-up service and the generator that drives it.
struct Instance {
    svc: KeyService,
    gen: Generator,
    pkg: Arc<Pkg>,
    store_dir: Option<PathBuf>,
    timed_store: Option<Arc<TimedStore>>,
    /// CPU seconds of the set-up.
    setup_cpu_s: f64,
    setup_wall_s: f64,
}

/// PKG load/set-up, `build`, store open and every founding `create_group`.
fn set_up(
    spec: &Spec,
    seed: u64,
    store_dir: Option<PathBuf>,
    spans: Option<&Arc<Spans>>,
) -> Result<Instance, String> {
    let started = Instant::now();
    let cpu_started = reference::process_cpu_s();
    let pkg = Arc::new(spec.pkg(seed));
    let mut timed_store = None;
    let store = match &store_dir {
        Some(dir) => {
            let file: Arc<dyn Store> = Arc::new(
                FileStore::open(dir).map_err(|e| format!("open store {}: {e}", dir.display()))?,
            );
            Some(match spans {
                Some(s) => {
                    let t = Arc::new(TimedStore::new(file, Arc::clone(s)));
                    timed_store = Some(Arc::clone(&t));
                    t as Arc<dyn Store>
                }
                None => file,
            })
        }
        None => None,
    };
    let mut builder = spec.builder(seed, store);
    if spans.is_some() {
        builder = builder.trace(TraceConfig::ring(TRACE_RING).0);
    }
    let mut svc = builder.build(Arc::clone(&pkg));
    let mut gen = Generator::new(*spec, seed);
    for (gid, members) in gen.founding() {
        timed(spans.map(|s| &**s), "service.create_group", || {
            svc.create_group(gid, &members)
        })
        .map_err(|e| format!("create_group({gid}): {e}"))?;
    }
    let setup_cpu_s = reference::process_cpu_s() - cpu_started;
    let setup_wall_s = started.elapsed().as_secs_f64();
    svc.set_loss(spec.loss());
    Ok(Instance {
        svc,
        gen,
        pkg,
        store_dir,
        timed_store,
        setup_cpu_s,
        setup_wall_s,
    })
}

/// What one measured phase did.
struct Phase {
    wall: Duration,
    install_ms: Vec<f64>,
    /// Process CPU seconds of each epoch: from its first `submit` to the
    /// return of its `tick`, and to the end of its re-founding.
    install_cpu: Vec<f64>,
    epoch_cpu: Vec<f64>,
    epoch_events: Vec<u64>,
    /// CPU seconds of one reference pass, sampled before each epoch.
    reference: Vec<f64>,
    /// Priced energy per event applied over the first and the second half
    /// of the epochs (deterministic).
    half_energy: [f64; 2],
    before: ServiceMetrics,
    after: ServiceMetrics,
    /// Tick-only sums (creations excluded), for the cost model.
    ops: OpCounts,
    traffic: TrafficStats,
    phases: PhaseProfile,
    air_ms: Vec<f64>,
    /// Fingerprint after epoch `fingerprint_at`, if the phase got there.
    fingerprint: Option<String>,
}

impl Phase {
    fn events_applied(&self) -> u64 {
        self.after.events_applied - self.before.events_applied
    }

    fn events_per_s(&self) -> f64 {
        self.events_applied() as f64 / self.wall.as_secs_f64()
    }

    fn cpu_s(&self) -> f64 {
        self.epoch_cpu.iter().sum()
    }

    /// CPU seconds of each epoch in `cpu`, in reference passes measured
    /// around that epoch.
    fn in_passes(&self, cpu: &[f64]) -> Vec<f64> {
        cpu.iter()
            .enumerate()
            .map(|(k, c)| c / reference::local(&self.reference, k, REFERENCE_WINDOW))
            .collect()
    }

    /// Reference passes per event applied over epochs `range`.
    fn event_cost_of(&self, range: std::ops::Range<usize>) -> f64 {
        let passes: f64 = self.in_passes(&self.epoch_cpu)[range.clone()].iter().sum();
        let events: u64 = self.epoch_events[range].iter().sum();
        ratio(passes, events as f64)
    }

    fn event_cost(&self) -> f64 {
        self.event_cost_of(0..self.epoch_cpu.len())
    }

    /// `event_cost` over the first and the second half of the epochs.
    fn half_cost(&self) -> [f64; 2] {
        let n = self.epoch_cpu.len();
        [self.event_cost_of(0..n / 2), self.event_cost_of(n / 2..n)]
    }
}

fn run_phase(
    inst: &mut Instance,
    epochs: u64,
    spans: Option<&Spans>,
    fingerprint_at: u64,
) -> Result<Phase, String> {
    let before = inst.svc.metrics().clone();
    let mut wall = Duration::ZERO;
    let mut events_half = [0u64; 2];
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut reference = Vec::with_capacity(epochs as usize);
    let mut install_cpu = Vec::with_capacity(epochs as usize);
    let mut epoch_cpu = Vec::with_capacity(epochs as usize);
    let mut epoch_events = Vec::with_capacity(epochs as usize);
    let mut energy_at_half = before.energy_mj;
    let mut install_ms = Vec::with_capacity(epochs as usize);
    let mut ops = OpCounts::new();
    let mut traffic = TrafficStats::default();
    let mut phases = PhaseProfile::default();
    let mut air_ms = Vec::new();
    let mut fingerprint = None;
    for k in 1..=epochs {
        let plan = inst.gen.next_epoch();
        if let Some(s) = spans {
            s.set_epoch(k);
        }
        reference.push(reference::sample(threads));
        let svc = &mut inst.svc;
        let started = Instant::now();
        let cpu_started = reference::process_cpu_s();
        for (gid, event) in plan.events {
            timed(spans, "service.submit", || svc.submit(gid, event.clone()))
                .map_err(|e| format!("epoch {k}: submit({gid}, {event:?}) refused: {e}"))?;
        }
        let report = timed(spans, "service.tick", || svc.tick());
        let installed = started.elapsed();
        install_cpu.push(reference::process_cpu_s() - cpu_started);
        for (gid, members) in &plan.refound {
            timed(spans, "service.create_group", || {
                svc.create_group(*gid, members)
            })
            .map_err(|e| format!("epoch {k}: re-founding create_group({gid}): {e}"))?;
        }
        let epoch_wall = started.elapsed();
        epoch_cpu.push(reference::process_cpu_s() - cpu_started);
        epoch_events.push(report.events_applied);

        wall += epoch_wall;
        events_half[usize::from(2 * k > epochs)] += report.events_applied;
        install_ms.push(installed.as_secs_f64() * 1e3);
        ops.merge(&report.ops);
        traffic.msgs_tx += report.traffic.msgs_tx;
        traffic.msgs_rx += report.traffic.msgs_rx;
        traffic.tx_bits += report.traffic.tx_bits;
        traffic.rx_bits += report.traffic.rx_bits;
        phases.add(&report.phases);
        air_ms.extend_from_slice(&report.rekey_latencies_virtual_ms);
        if 2 * k <= epochs {
            energy_at_half = inst.svc.metrics().energy_mj;
        }
        if k == fingerprint_at {
            fingerprint = Some(fingerprint_of(&inst.svc));
        }
    }
    let after = inst.svc.metrics().clone();
    let half_energy_mj = [
        energy_at_half - before.energy_mj,
        after.energy_mj - energy_at_half,
    ];
    Ok(Phase {
        wall,
        install_ms,
        install_cpu,
        epoch_cpu,
        epoch_events,
        reference,
        half_energy: [0, 1].map(|i| ratio(half_energy_mj[i], events_half[i] as f64)),
        before,
        after,
        ops,
        traffic,
        phases,
        air_ms,
        fingerprint,
    })
}

fn pending(svc: &KeyService) -> u64 {
    svc.shard_stats().iter().map(|s| s.pending_events).sum()
}

/// Ticks empty epochs until no event is queued (events stalled by loss
/// are requeued), at most `DRAIN_TICKS` times. Returns what is still
/// pending.
fn drain(svc: &mut KeyService) -> u64 {
    for _ in 0..DRAIN_TICKS {
        if pending(svc) == 0 {
            break;
        }
        svc.tick();
    }
    pending(svc)
}

/// Hash of every live group's id, members and key, plus the counters that
/// must repeat for a seed.
fn fingerprint_of(svc: &KeyService) -> String {
    let mut h = Sha256::new();
    for gid in svc.group_ids() {
        h.update(&gid.to_be_bytes());
        if let Some(session) = svc.session(gid) {
            for id in session.member_ids() {
                h.update(&id.0.to_be_bytes());
            }
        }
        if let Some(key) = svc.group_key(gid) {
            h.update(&key.to_bytes_be());
        }
    }
    let m = svc.metrics();
    for v in [
        m.events_applied,
        m.events_rejected,
        m.events_cancelled,
        m.rekeys_executed,
        m.full_gka_runs,
        m.groups_stalled,
        m.steps_retried,
        m.traffic.msgs_tx,
        m.traffic.msgs_rx,
        m.energy_mj.to_bits(),
    ] {
        h.update(&v.to_be_bytes());
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// Groups that still have events queued after the drain: their last rekey
/// stalled (a commit resets the ledger's streak) and their shard holds
/// queued events.
fn lagging(svc: &KeyService) -> BTreeSet<GroupId> {
    let busy: BTreeSet<usize> = svc
        .shard_stats()
        .iter()
        .filter(|s| s.pending_events > 0)
        .map(|s| s.shard)
        .collect();
    svc.stall_ledger()
        .group_records()
        .into_iter()
        .filter(|(gid, s)| s.consecutive > 0 && busy.contains(&svc.shard_of(*gid)))
        .map(|(gid, _)| gid)
        .collect()
}

/// The correctness gate: no event was rejected, every live group keeps the
/// key invariant, and every group has exactly the generator's membership.
/// Only groups whose events are still queued after the drain (those events
/// count as failed) may lag the generator, and so may a group that one of
/// their queued merges would absorb. Returns how many groups lag.
fn check(inst: &Instance) -> Result<usize, String> {
    let svc = &inst.svc;
    let rejected = svc.metrics().events_rejected;
    if rejected != 0 {
        return Err(format!("{rejected} generated events were rejected"));
    }
    let lagging = lagging(svc);
    let mirror = inst.gen.mirror();
    let live: BTreeSet<GroupId> = svc.group_ids().into_iter().collect();
    for gid in mirror.keys() {
        if !live.contains(gid) {
            return Err(format!("group {gid} is missing"));
        }
    }
    for &gid in &live {
        let session = svc
            .session(gid)
            .ok_or_else(|| format!("group {gid} has no session"))?;
        if !session.invariant_holds() {
            return Err(format!("group {gid}: key invariant broken"));
        }
        if lagging.contains(&gid) {
            continue;
        }
        let Some(members) = mirror.get(&gid) else {
            if inst
                .gen
                .merged_into(gid)
                .is_some_and(|h| lagging.contains(&h))
            {
                continue;
            }
            return Err(format!("group {gid} is live, the generator merged it away"));
        };
        let got: BTreeSet<UserId> = session.member_ids().into_iter().collect();
        if &got != members {
            return Err(format!(
                "group {gid}: {} members, generator expects {}",
                got.len(),
                members.len()
            ));
        }
    }
    Ok(lagging.len())
}

/// Rebuilds the service from its store and requires every group's key to
/// equal the live one. Returns (recover wall, records replayed).
fn check_recovery(
    inst: &Instance,
    spec: &Spec,
    seed: u64,
    spans: Option<&Spans>,
) -> Result<(Duration, u64), String> {
    let dir = inst
        .store_dir
        .as_ref()
        .expect("durable workload has a store");
    let backend: Arc<dyn Store> =
        Arc::new(FileStore::open(dir).map_err(|e| format!("reopen store {}: {e}", dir.display()))?);
    let started = Instant::now();
    let (recovered, report) = timed(spans, "service.recover", || {
        spec.builder(seed, Some(backend))
            .recover(Arc::clone(&inst.pkg))
    })
    .map_err(|e| format!("recover: {e}"))?;
    let took = started.elapsed();
    if recovered.group_ids() != inst.svc.group_ids() {
        return Err("recovered service has a different group set".into());
    }
    for gid in inst.svc.group_ids() {
        if recovered.group_key(gid) != inst.svc.group_key(gid) {
            return Err(format!(
                "group {gid}: recovered key differs from the live key"
            ));
        }
    }
    Ok((took, report.records_replayed))
}

fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` (peak resident set) of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(phase: &Phase, setup_s: f64, failed: u64) -> Result<Metrics, String> {
    let (b, a) = (&phase.before, &phase.after);
    let applied = phase.events_applied();
    let submitted = a.events_submitted - b.events_submitted;
    let rekeys = a.rekeys_executed - b.rekeys_executed;
    let stalled = a.groups_stalled - b.groups_stalled;
    let install = phase.in_passes(&phase.install_cpu);
    let mut m = Metrics::default();
    m.put("event_cost", phase.event_cost(), "passes");
    m.put("install_cost_p50", quantile(&install, 0.5), "passes");
    m.put("install_cost_p90", quantile(&install, 0.9), "passes");
    m.put("setup_s", setup_s, "s");
    m.put(
        "energy_mj_per_event",
        ratio(a.energy_mj - b.energy_mj, applied as f64),
        "mJ",
    );
    m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    m.put(
        "events_ok_ratio",
        1.0 - ratio(failed as f64, submitted as f64),
        "ratio",
    );
    m.put(
        "rekey_ok_ratio",
        1.0 - ratio(stalled as f64, (rekeys + stalled) as f64),
        "ratio",
    );
    Ok(m)
}

/// The per-layer metrics of a traced phase.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    spec: &Spec,
    phase: &Phase,
    spans: &Spans,
    inst: &Instance,
    store_bytes: u64,
    recovery: Option<(Duration, u64)>,
    untraced: &Phase,
    seed: u64,
) -> Result<Metrics, String> {
    let (b, a) = (&phase.before, &phase.after);
    let applied = phase.events_applied() as f64;
    let rekeys = (a.rekeys_executed - b.rekeys_executed) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut m = Metrics::default();

    // What the costs divide out, from the untraced phase.
    m.put("wall.events_per_s", untraced.events_per_s(), "events/s");
    m.put(
        "wall.install_ms_p50",
        quantile(&untraced.install_ms, 0.5),
        "ms",
    );
    m.put(
        "wall.install_ms_p90",
        quantile(&untraced.install_ms, 0.9),
        "ms",
    );
    m.put(
        "cpu.ms_per_event",
        ratio(untraced.cpu_s() * 1e3, untraced.events_applied() as f64),
        "ms",
    );
    m.put(
        "cpu.reference_pass_us",
        quantile(&untraced.reference, 0.5) * 1e6,
        "us",
    );

    let tick_ms = spans.total_ms("service.tick", 1);
    let execute_ms = ms(phase.phases.execute.wall);
    m.put("service.tick_ms", tick_ms, "ms");
    m.put(
        "service.submit_ms",
        spans.total_ms("service.submit", 1),
        "ms",
    );
    m.put(
        "service.create_ms",
        spans.total_ms("service.create_group", 0),
        "ms",
    );
    m.put("service.plan_ms", ms(phase.phases.plan.wall), "ms");
    m.put("service.execute_ms", execute_ms, "ms");
    m.put("service.commit_ms", ms(phase.phases.commit.wall), "ms");
    m.put("service.snapshot_ms", ms(phase.phases.snapshot.wall), "ms");
    m.put(
        "service.execute_parallelism",
        ratio(execute_ms, tick_ms),
        "ratio",
    );
    m.put(
        "service.coalesce_ratio",
        ratio(applied, rekeys),
        "events/rekey",
    );
    m.put("service.rekeys", rekeys, "count");
    m.put(
        "service.full_gka_runs",
        (a.full_gka_runs - b.full_gka_runs) as f64,
        "count",
    );
    m.put(
        "service.merges",
        (a.groups_merged_away - b.groups_merged_away) as f64,
        "count",
    );
    m.put(
        "service.events_cancelled",
        (a.events_cancelled - b.events_cancelled) as f64,
        "count",
    );
    let suite_rekeys = |metrics: &ServiceMetrics, suite: Option<SuiteId>| -> u64 {
        metrics
            .per_suite
            .iter()
            .filter(|(id, _)| suite.is_none_or(|s| **id == s))
            .map(|(_, u)| u.rekeys)
            .sum()
    };
    let ecdsa = suite_rekeys(a, Some(SuiteId::BdEcdsa)) - suite_rekeys(b, Some(SuiteId::BdEcdsa));
    let all = suite_rekeys(a, None) - suite_rekeys(b, None);
    m.put(
        "service.suite_share_bd_ecdsa",
        ratio(ecdsa as f64, all as f64),
        "ratio",
    );

    m.put("core.msgs_tx", phase.traffic.msgs_tx as f64, "count");
    m.put("core.msgs_rx", phase.traffic.msgs_rx as f64, "count");
    m.put(
        "core.rx_per_event",
        ratio(phase.traffic.msgs_rx as f64, applied),
        "msgs/event",
    );
    m.put("medium.tx_bits", phase.traffic.tx_bits as f64, "bits");
    m.put("medium.rx_bits", phase.traffic.rx_bits as f64, "bits");
    m.put("medium.air_ms_p50", quantile(&phase.air_ms, 0.5), "vms");
    m.put("medium.air_ms_p90", quantile(&phase.air_ms, 0.9), "vms");
    m.put(
        "service.steps_retried",
        (a.steps_retried - b.steps_retried) as f64,
        "count",
    );
    m.put(
        "service.groups_stalled",
        (a.groups_stalled - b.groups_stalled) as f64,
        "count",
    );

    // Count × calibrated cost, op by op, against the measured execute time.
    let typical_n = ((spec.found.0 + spec.found.1) / 2).max(2);
    let mut explained_ms = 0.0;
    for cost in calib::calibrate(&inst.pkg, typical_n, seed)? {
        let count = phase.ops.get(cost.op) as f64;
        let op_ms = count * cost.ns / 1e6;
        explained_ms += op_ms;
        m.put(cost.stem, count, "count");
        m.put(&format!("{}_ns", cost.stem), cost.ns, "ns");
        m.put(&format!("{}_ms", cost.stem), op_ms, "ms");
    }

    let appends_us: Vec<f64> = spans
        .durations_ns("store.append", 1)
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let (recover_ms, replayed) = recovery.map_or((0.0, 0), |(d, n)| (ms(d), n));
    m.put("store.appends", appends_us.len() as f64, "count");
    m.put("store.append_us_p50", quantile(&appends_us, 0.5), "us");
    m.put("store.append_us_p99", quantile(&appends_us, 0.99), "us");
    m.put("store.bytes", store_bytes as f64, "bytes");
    m.put(
        "store.snapshots",
        spans.durations_ns("store.snapshot", 1).len() as f64,
        "count",
    );
    m.put(
        "store.snapshot_ms",
        spans.total_ms("store.snapshot", 1),
        "ms",
    );
    m.put("store.recover_ms", recover_ms, "ms");
    m.put("store.records_replayed", replayed as f64, "count");

    m.put(
        "model.explained_fraction",
        ratio(explained_ms, execute_ms),
        "ratio",
    );
    m.put("model.residual_ms", execute_ms - explained_ms, "ms");
    m.put(
        "trace.overhead_ratio",
        ratio(untraced.event_cost(), phase.event_cost()),
        "ratio",
    );
    Ok(m)
}

struct Outcome {
    report: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = args.workload.spec();
    let epochs = spec.epochs(args.seconds);
    let replay_at = REPLAY_EPOCHS.min(epochs);
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let mut dirs = ScratchDirs {
        root: out_dir.clone(),
        made: Vec::new(),
    };
    let mut store_dir = |tag: &str| spec.uses_store().then(|| dirs.fresh(tag));

    // Set-up, several times, all before the process starts its first
    // thread, as a service starting up would (set-ups done after the
    // determinism replay's fan-out threads had run were up to 60% slower
    // within a run). Set-up runs on the client thread alone, so the passes
    // that price it run there too, and start no thread; the first pass
    // warms up and is not counted. The first instance then replays a
    // prefix of the run for the determinism check; the last one is
    // measured.
    reference::sample(1);
    let mut setup_pass = Vec::with_capacity((SETUPS + 1) * SETUP_PASSES);
    let mut setup_cpu_s = Vec::with_capacity(SETUPS);
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut first = None;
    let mut last = None;
    for i in 0..SETUPS {
        setup_pass.extend((0..SETUP_PASSES).map(|_| reference::sample(1)));
        let inst = set_up(&spec, args.seed, store_dir(&format!("setup{i}")), None)?;
        setup_cpu_s.push(inst.setup_cpu_s);
        setup_wall_s.push(inst.setup_wall_s);
        if i == 0 {
            first = Some(inst);
        } else if i + 1 == SETUPS {
            last = Some(inst);
        }
    }
    setup_pass.extend((0..SETUP_PASSES).map(|_| reference::sample(1)));
    let setup_s = quantile(&setup_cpu_s, 0.5) / quantile(&setup_pass, 0.5) * PASS_S;
    let (Some(mut first), Some(mut inst)) = (first, last) else {
        unreachable!("SETUPS is at least two");
    };
    let replay_fingerprint = run_phase(&mut first, replay_at, None, replay_at)?.fingerprint;
    drop(first);
    let phase = run_phase(&mut inst, epochs, None, replay_at)?;

    // Correctness, outside the timed phase.
    let failed = drain(&mut inst.svc);
    let lagging = check(&inst)?;
    let final_fingerprint = fingerprint_of(&inst.svc);
    if phase.fingerprint != replay_fingerprint {
        return Err(format!(
            "same seed, different state after epoch {replay_at}: {:?} vs {:?}",
            phase.fingerprint, replay_fingerprint
        ));
    }
    if spec.uses_store() {
        check_recovery(&inst, &spec, args.seed, None)?;
    }
    let attempted = phase.after.events_submitted - phase.before.events_submitted;
    let install = phase.in_passes(&phase.install_cpu);
    let install_beyond_p90 = {
        let p90 = quantile(&install, 0.9);
        install.iter().filter(|&&x| x > p90).count()
    };
    let half_cost = phase.half_cost();
    let e2e = end_to_end(&phase, setup_s, failed)?;
    let (b, a) = (&phase.before, &phase.after);
    let rekeys = a.rekeys_executed - b.rekeys_executed;
    let stalled = a.groups_stalled - b.groups_stalled;
    let mut report = vec![
        format!(
            "# keybench workload={} seed={} seconds={} epochs={epochs} groups={} threads={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            inst.svc.groups_active(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
        format!(
            "# events applied={} submitted={attempted} failed={failed} rekeys={rekeys} \
             stalled={stalled} lagging_groups={lagging} wall_s={:.3}",
            phase.events_applied(),
            phase.wall.as_secs_f64()
        ),
        format!(
            "# stationarity event_cost first_half={:.4} second_half={:.4} drift={:+.4}",
            half_cost[0],
            half_cost[1],
            half_cost[1] / half_cost[0] - 1.0
        ),
        format!(
            "# stationarity energy_mj_per_event first_half={:.3} second_half={:.3} drift={:+.4}",
            phase.half_energy[0],
            phase.half_energy[1],
            phase.half_energy[1] / phase.half_energy[0] - 1.0
        ),
        format!(
            "# install samples={} beyond_p90={install_beyond_p90}; set-up CPU s samples={:?}",
            install.len(),
            setup_cpu_s
        ),
        format!(
            "# wall events_per_s={:.2} install_ms_p50={:.3} install_ms_p90={:.3} \
             setup_wall_s={:.4}; cpu setup_s={:.4} setup_pass_us={:.1} ms_per_event={:.4} \
             reference_pass_us={:.1}",
            phase.events_per_s(),
            quantile(&phase.install_ms, 0.5),
            quantile(&phase.install_ms, 0.9),
            quantile(&setup_wall_s, 0.5),
            quantile(&setup_cpu_s, 0.5),
            quantile(&setup_pass, 0.5) * 1e6,
            ratio(phase.cpu_s() * 1e3, phase.events_applied() as f64),
            quantile(&phase.reference, 0.5) * 1e6,
        ),
        format!(
            "# events_failed_ratio={} rekey_abort_ratio={}",
            ratio(failed as f64, attempted as f64),
            ratio(stalled as f64, (rekeys + stalled) as f64)
        ),
        format!(
            "# fingerprint epoch{replay_at}={} final={final_fingerprint}",
            phase.fingerprint.clone().unwrap_or_default()
        ),
    ];
    for (name, value, unit) in &e2e.0 {
        report.push(format!("{name:>24} {value:>14.6} {unit}"));
    }
    if !args.trace {
        return Ok(Outcome {
            report,
            attempted,
            failed,
            metrics: e2e,
        });
    }

    // Traced run: a fresh set-up of the same seed, measured with spans.
    drop(inst);
    let spans = Arc::new(Spans::new());
    let mut inst = set_up(&spec, args.seed, store_dir("traced"), Some(&spans))?;
    let bytes_before = inst.timed_store.as_ref().map_or(0, |t| t.bytes());
    let traced = run_phase(&mut inst, epochs, Some(&spans), replay_at)?;
    let store_bytes = inst.timed_store.as_ref().map_or(0, |t| t.bytes()) - bytes_before;
    spans.set_epoch(epochs + 1);
    let traced_failed = drain(&mut inst.svc);
    check(&inst)?;
    if traced.fingerprint != replay_fingerprint
        || fingerprint_of(&inst.svc) != final_fingerprint
        || traced_failed != failed
    {
        return Err("the traced run diverged from the untraced run".into());
    }
    let recovery = if spec.uses_store() {
        Some(check_recovery(&inst, &spec, args.seed, Some(&spans))?)
    } else {
        None
    };
    let layers = per_layer(
        &spec,
        &traced,
        &spans,
        &inst,
        store_bytes,
        recovery,
        &phase,
        args.seed,
    )?;
    let trace_path = out_dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    spans
        .write_chrome(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    report.push(format!("# spans written to {}", trace_path.display()));
    for (name, value, unit) in &layers.0 {
        report.push(format!("{name:>32} {value:>16.6} {unit}"));
    }
    Ok(Outcome {
        report,
        attempted,
        failed,
        metrics: layers,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("keybench: {e}");
            eprintln!("usage: keybench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for line in &out.report {
                println!("{line}");
            }
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.attempted,
                out.failed,
                out.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("keybench: {} seed {}: {e}", args.workload.name(), args.seed);
            ExitCode::FAILURE
        }
    }
}
