//! The discrete-event radio: a virtual clock, a serialized channel, and a
//! delivery queue.
//!
//! A [`RadioMedium`] is the radio transport of an [`egka_net::Medium`]:
//! protocol code sends through the medium as usual, and each transmission
//! stays parked there until [`RadioMedium::pump_air`] schedules it —
//! serializing airtime on the shared channel, drawing per-link jitter,
//! applying seeded loss, and debiting the transmitter's battery.
//! [`RadioMedium::advance`] then moves the virtual clock to the next
//! scheduled delivery and hands the packet to its receiver's mailbox
//! (debiting *its* battery), so a driver alternates "pump the machines" /
//! "advance the air" and reads the rekey's latency straight off
//! [`RadioMedium::now_ms`].
//!
//! Everything is deterministic per seed: the jitter and loss draws come
//! from one xorshift64* stream advanced in transmission order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use egka_net::{Medium, NodeId, Packet};

use crate::battery::BatteryBank;
use crate::profile::RadioProfile;

/// One scheduled hand-off to a receiver. Ordered by `(at_ns, seq)` so a
/// min-heap pops deliveries in virtual-time order with FIFO tie-breaking —
/// zero-delay configurations reproduce the instant medium's arrival order
/// exactly.
#[derive(Clone, Debug)]
struct Delivery {
    at_ns: u64,
    seq: u64,
    to: NodeId,
    packet: Packet,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ns, self.seq) == (other.at_ns, other.seq)
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ns, self.seq).cmp(&(other.at_ns, other.seq))
    }
}

/// A virtual-time wireless medium: per-link delay, airtime contention on
/// one shared channel, seeded loss, and battery-driven node death. It is
/// the radio transport of an [`egka_net::Medium`], which it works on by
/// `&mut`: node ids, mailboxes and traffic counters live there.
pub struct RadioMedium {
    profile: RadioProfile,
    bank: BatteryBank,
    /// Node id → raw user id (battery cell key).
    users: Vec<u32>,
    now_ns: u64,
    /// The shared channel is busy until this instant; the next
    /// transmission starts no earlier.
    channel_free_ns: u64,
    /// xorshift64* stream for jitter and loss draws.
    rng: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Delivery>>,
    /// Users whose battery died on this medium, in death order.
    newly_dead: Vec<u32>,
    /// Observational trace hook: airtime spans, loss drops and battery
    /// debits are reported here when attached. Never read back, so it
    /// cannot perturb the schedule or the RNG stream.
    trace: Option<egka_trace::StepTrace>,
}

impl RadioMedium {
    /// A radio with mains-powered nodes (energy is accounted but nobody
    /// dies).
    pub fn new(profile: RadioProfile, seed: u64) -> Self {
        Self::with_bank(profile, seed, BatteryBank::infinite())
    }

    /// A radio whose nodes draw from `bank` — the bank outlives the
    /// medium, so drain accumulates across protocol runs.
    pub fn with_bank(profile: RadioProfile, seed: u64, bank: BatteryBank) -> Self {
        RadioMedium {
            profile,
            bank,
            users: Vec::new(),
            now_ns: 0,
            channel_free_ns: 0,
            // xorshift64* needs a non-zero state.
            rng: seed | 1,
            seq: 0,
            queue: BinaryHeap::new(),
            newly_dead: Vec::new(),
            trace: None,
        }
    }

    /// Attaches an observational trace: subsequent transmissions report
    /// airtime spans, drops, and battery debits into it.
    pub fn set_trace(&mut self, trace: egka_trace::StepTrace) {
        self.trace = Some(trace);
    }

    /// The radio's hardware/channel profile.
    pub fn profile(&self) -> &RadioProfile {
        &self.profile
    }

    /// The battery bank nodes draw from.
    pub fn bank(&self) -> &BatteryBank {
        &self.bank
    }

    /// Uniform draw in `[0, 1)` (xorshift64*, the same generator as the
    /// instant transport's loss draws).
    fn unit(&mut self) -> f64 {
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let x = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Powers `node` (user `user`) off on `net` and records the death.
    fn kill(&mut self, net: &mut Medium, node: NodeId, user: u32) {
        net.detach(node);
        self.newly_dead.push(user);
        if let Some(t) = &self.trace {
            t.air_death(user, self.now_ns);
        }
    }

    /// Registers a node for `user` on `net`. A user whose battery is
    /// already dead joins powered off (detached immediately).
    pub fn join(&mut self, net: &mut Medium, user: u32) -> NodeId {
        let id = net.join();
        self.users.push(user);
        if self.bank.is_dead(user) {
            net.detach(id);
        }
        id
    }

    /// Drains `net`'s parked sends and puts every transmission on the
    /// air: debits the transmitter's battery, serializes the shared
    /// channel, draws loss and per-link jitter, and schedules each
    /// surviving copy's delivery. Returns how many transmissions were
    /// scheduled.
    pub fn pump_air(&mut self, net: &mut Medium) -> usize {
        let txs = net.take_outbox();
        for tx in &txs {
            let from = tx.packet.from;
            let bits = tx.packet.nominal_bits;
            let user = self.users[from as usize];
            let tx_uj = bits as f64 * self.profile.transceiver.tx_uj_per_bit;
            if !self.bank.debit(user, tx_uj) && !net.is_detached(from) {
                // The battery browned out radiating this packet: it still
                // leaves the antenna, but the node is off from here on.
                self.kill(net, from, user);
            }
            let start = self.now_ns.max(self.channel_free_ns);
            let end = start + self.profile.airtime_ns(bits);
            self.channel_free_ns = end;
            if let Some(t) = &self.trace {
                t.air_tx(bits, tx_uj, start, end);
            }
            for &to in &tx.targets {
                if self.profile.loss > 0.0 && self.unit() < self.profile.loss {
                    if let Some(t) = &self.trace {
                        t.air_drop(self.users[to as usize], end);
                    }
                    continue;
                }
                let jitter_ns = if self.profile.delay.jitter_ms > 0.0 {
                    (self.unit() * self.profile.delay.jitter_ms * 1e6) as u64
                } else {
                    0
                };
                let at_ns = end + (self.profile.delay.base_ms * 1e6) as u64 + jitter_ns;
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(Reverse(Delivery {
                    at_ns,
                    seq,
                    to,
                    packet: tx.packet.clone(),
                }));
            }
        }
        txs.len()
    }

    /// Advances the virtual clock to the next scheduled delivery and hands
    /// every packet due at that instant to its receiver on `net`, debiting
    /// each receiver's battery (a receiver that dies mid-reception hears
    /// nothing). Returns the new virtual now in nanoseconds, or `None` if
    /// nothing is in flight.
    pub fn advance(&mut self, net: &mut Medium) -> Option<u64> {
        let Reverse(first) = self.queue.pop()?;
        self.now_ns = self.now_ns.max(first.at_ns);
        let due_at = first.at_ns;
        let mut due = vec![first];
        while self
            .queue
            .peek()
            .is_some_and(|Reverse(d)| d.at_ns == due_at)
        {
            let Reverse(d) = self.queue.pop().expect("peeked");
            due.push(d);
        }
        for d in due {
            if net.is_detached(d.to) {
                continue; // powered off since the packet went on the air
            }
            let user = self.users[d.to as usize];
            let rx_uj = d.packet.nominal_bits as f64 * self.profile.transceiver.rx_uj_per_bit;
            if !self.bank.debit(user, rx_uj) {
                self.kill(net, d.to, user);
                continue;
            }
            if let Some(t) = &self.trace {
                t.air_rx(user, rx_uj, self.now_ns);
            }
            net.deliver_to(d.to, &d.packet);
        }
        Some(self.now_ns)
    }

    /// Debits compute energy (millijoules, the unit the CPU model prices
    /// in) from `user`'s battery; a drained battery powers the node off on
    /// `net`. Returns whether the node is still alive.
    pub fn debit_compute_mj(&mut self, net: &mut Medium, user: u32, mj: f64) -> bool {
        if mj <= 0.0 {
            return !self.bank.is_dead(user);
        }
        if self.bank.debit(user, mj * 1000.0) {
            return true;
        }
        if let Some(idx) = self.users.iter().position(|&u| u == user) {
            let node = idx as NodeId;
            if !net.is_detached(node) {
                self.kill(net, node, user);
            }
        }
        false
    }

    /// Jumps the clock forward to `at_ns` (never backward) — how a driver
    /// realizes a *timer* event (e.g. a silence deadline) when nothing is
    /// on the air. With deliveries pending, use [`RadioMedium::advance`]
    /// instead so the timer cannot leapfrog traffic.
    pub fn advance_to(&mut self, at_ns: u64) {
        self.now_ns = self.now_ns.max(at_ns);
    }

    /// Virtual now, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Virtual now, milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.now_ns as f64 / 1e6
    }

    /// Users whose battery died on this medium so far, in death order.
    pub fn newly_dead(&self) -> &[u32] {
        &self.newly_dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DelaySpec;
    use bytes::Bytes;
    use egka_energy::Transceiver;
    use egka_net::Dest;

    fn quiet() -> RadioProfile {
        RadioProfile {
            transceiver: Transceiver::radio_100kbps(),
            cpu: egka_energy::CpuModel::strongarm_133(),
            delay: DelaySpec {
                base_ms: 0.0,
                jitter_ms: 0.0,
            },
            loss: 0.0,
        }
    }

    /// A radio and its medium with one node per user.
    fn air(radio: RadioMedium, users: &[u32]) -> (RadioMedium, Medium) {
        let (mut radio, mut net) = (radio, Medium::new());
        for &u in users {
            radio.join(&mut net, u);
        }
        (radio, net)
    }

    fn broadcast(net: &mut Medium, from: NodeId, kind: u16, bits: u64) {
        let packet = Packet {
            from,
            kind,
            payload: Bytes::new(),
            nominal_bits: bits,
        };
        net.send(&Dest::Broadcast, packet);
    }

    /// Packets node `id` has been handed since the last poll.
    fn heard(net: &mut Medium, id: NodeId) -> Vec<u16> {
        let ready = net.poll(0).swap_remove(id as usize);
        ready.packets.iter().map(|p| p.kind).collect()
    }

    #[test]
    fn airtime_serializes_the_shared_channel() {
        // A 3000-bit broadcast at 100 kbps occupies the channel for 30
        // virtual ms; two back-to-back broadcasts end at 30 and 60 ms.
        let (mut radio, mut net) = air(RadioMedium::new(quiet(), 1), &[10, 11]);
        broadcast(&mut net, 0, 1, 3000);
        broadcast(&mut net, 0, 2, 3000);
        assert_eq!(radio.pump_air(&mut net), 2);
        radio.advance(&mut net).unwrap();
        assert!((radio.now_ms() - 30.0).abs() < 1e-9, "{}", radio.now_ms());
        assert_eq!(
            heard(&mut net, 1),
            vec![1],
            "second packet still on the air"
        );
        radio.advance(&mut net).unwrap();
        assert!((radio.now_ms() - 60.0).abs() < 1e-9);
        assert_eq!(heard(&mut net, 1), vec![2]);
        assert!(radio.advance(&mut net).is_none(), "air is quiet again");
    }

    #[test]
    fn per_link_delay_adds_base_and_seeded_jitter() {
        let mut profile = quiet();
        profile.delay = DelaySpec {
            base_ms: 5.0,
            jitter_ms: 2.0,
        };
        let arrival = |seed: u64| {
            let (mut radio, mut net) = air(RadioMedium::new(profile.clone(), seed), &[0, 1]);
            broadcast(&mut net, 0, 1, 1000); // 10 ms airtime
            radio.pump_air(&mut net);
            radio.advance(&mut net).unwrap()
        };
        let t = arrival(7);
        // 10 ms airtime + 5 ms base + jitter ∈ [0, 2) ms.
        assert!((15_000_000..17_000_000).contains(&t), "{t}");
        assert_eq!(arrival(7), t, "same seed, same jitter");
        assert_ne!(arrival(8), t, "different seed, different jitter");
    }

    #[test]
    fn seeded_loss_drops_deterministically() {
        let mut profile = quiet();
        profile.loss = 0.5;
        let delivered = |seed: u64| {
            let (mut radio, mut net) = air(RadioMedium::new(profile.clone(), seed), &[0, 1]);
            for _ in 0..200 {
                broadcast(&mut net, 0, 1, 8);
            }
            radio.pump_air(&mut net);
            while radio.advance(&mut net).is_some() {}
            heard(&mut net, 1).len()
        };
        let n = delivered(3);
        assert!((60..140).contains(&n), "50% loss delivered {n}/200");
        assert_eq!(delivered(3), n);
    }

    #[test]
    fn battery_death_powers_a_node_off_mid_air() {
        let bank = BatteryBank::new(40_000.0); // 40 mJ
        bank.set_capacity(0, f64::INFINITY); // the transmitter is mains-powered
        let (mut radio, mut net) = air(RadioMedium::with_bank(quiet(), 1, bank.clone()), &[0, 1]);
        // Receiving 1000 bits costs 7510 µJ on the sensor radio; node 1
        // can afford five receptions, then dies mid-reception of the sixth.
        for _ in 0..8 {
            broadcast(&mut net, 0, 1, 1000);
        }
        radio.pump_air(&mut net);
        while radio.advance(&mut net).is_some() {}
        assert_eq!(
            heard(&mut net, 1).len(),
            5,
            "the sixth reception browned out the battery"
        );
        assert!(bank.is_dead(1));
        assert_eq!(radio.newly_dead(), [1]);
        assert!(net.is_detached(1));
        // Node 0 paid 8 × 1000 × 10.8 µJ of transmit energy.
        assert!((bank.spent_uj(0) - 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn dead_user_joins_powered_off() {
        let bank = BatteryBank::new(1.0);
        bank.debit(9, 2.0);
        let (_radio, net) = air(RadioMedium::with_bank(quiet(), 1, bank), &[9]);
        assert!(net.is_detached(0));
    }

    #[test]
    fn compute_debit_can_kill_too() {
        let bank = BatteryBank::new(10_000.0); // 10 mJ
        let (mut radio, mut net) = air(RadioMedium::with_bank(quiet(), 1, bank), &[4]);
        assert!(radio.debit_compute_mj(&mut net, 4, 9.0));
        assert!(
            !radio.debit_compute_mj(&mut net, 4, 2.0),
            "11 mJ of compute: dead"
        );
        assert!(net.is_detached(0));
        assert_eq!(radio.newly_dead(), [4]);
    }
}
