//! # egka-net
//!
//! The simulated wireless broadcast medium of the `egka` reproduction.
//!
//! The paper's evaluation assumes a shared broadcast medium: every message
//! a user sends is received by all other group members (each user transmits
//! 2 messages and receives `2(n − 1)` during the initial GKA, Table 1).
//! This crate provides it as one in-process, single-owner
//! [`Medium`]: plain `&mut self`, no threads, no locks. It keeps a table of
//! nodes, and each node holds a mailbox, its [`TrafficStats`] (nominal bits
//! for the energy model, actual serialized bits for the "measured encoding"
//! ablation), a detached flag and a silence deadline.
//!
//! Every send takes one path. [`Medium::send`] charges the sender, resolves
//! the audible (attached) recipients and parks a [`Transmission`]. Exactly
//! one transport then delivers it:
//!
//! * **instant** — [`Medium::flush`] delivers every parked transmission
//!   right away, drawing the seeded loss ([`Medium::set_loss`]) once per
//!   audible target in send order;
//! * **radio** — `egka-medium`'s `RadioMedium` drains
//!   [`Medium::take_outbox`] and hands each copy over with
//!   [`Medium::deliver_to`] when its virtual clock says so.
//!
//! Delivered packets wait in their mailbox until [`Medium::poll`], which a
//! scheduler calls once at the top of each sweep: a packet sent during
//! sweep *k* is visible only from sweep *k + 1*.
//!
//! ```
//! use bytes::Bytes;
//! use egka_net::{Dest, Medium, Packet};
//!
//! // A broadcast reaches every *other* node with the sender's
//! // paper-nominal bit accounting attached.
//! let mut medium = Medium::new();
//! let (a, b) = (medium.join(), medium.join());
//! let pkt = Packet { from: a, kind: 1, payload: Bytes::from_static(b"round 1"), nominal_bits: 40 };
//! medium.send(&Dest::Broadcast, pkt);
//! medium.flush();
//! let ready = medium.poll(0);
//! assert!(ready[a as usize].packets.is_empty(), "no self-delivery");
//! let got = &ready[b as usize].packets[0];
//! assert_eq!((got.from, got.kind, got.nominal_bits), (a, 1, 40));
//! assert_eq!(medium.stats(b).rx_bits, 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Identifies a node on the medium (dense, assigned at [`Medium::join`]).
pub type NodeId = u32;

/// A network-level failure a protocol machine can be handed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A silence deadline expired before any packet arrived.
    Timeout {
        /// How long the node was allowed to stay silent.
        waited: Duration,
    },
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let NetError::Timeout { waited } = self;
        write!(f, "no packet arrived within {waited:?}")
    }
}

impl std::error::Error for NetError {}

/// Where a transmission goes.
#[derive(Clone, Debug)]
pub enum Dest {
    /// Every other attached node on the medium.
    Broadcast,
    /// Exactly one node.
    Unicast(NodeId),
    /// An explicit recipient set (the paper's intended-recipient
    /// accounting; self is skipped if present).
    Multicast(Vec<NodeId>),
}

/// A message in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Sender.
    pub from: NodeId,
    /// Protocol-defined message kind (round tags etc.).
    pub kind: u16,
    /// Serialized payload (cheaply shared between receivers).
    pub payload: Bytes,
    /// The paper-accounting size of this message in bits. Energy models
    /// charge this, not `payload.len() * 8`.
    pub nominal_bits: u64,
}

/// Per-node cumulative traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Nominal bits transmitted.
    pub tx_bits: u64,
    /// Nominal bits received.
    pub rx_bits: u64,
    /// Actual serialized bits transmitted.
    pub tx_bits_actual: u64,
    /// Actual serialized bits received.
    pub rx_bits_actual: u64,
    /// Messages transmitted.
    pub msgs_tx: u64,
    /// Messages received.
    pub msgs_rx: u64,
}

/// A send the medium has charged and resolved, parked until a transport
/// delivers it.
#[derive(Debug)]
pub struct Transmission {
    /// Audible recipients at send time: attached nodes, minus the sender
    /// on a broadcast or multicast.
    pub targets: Vec<NodeId>,
    /// The packet itself.
    pub packet: Packet,
}

/// What one node has to act on at the top of a sweep ([`Medium::poll`]).
#[derive(Debug)]
pub struct Ready {
    /// Packets delivered since the last poll, oldest first.
    pub packets: Vec<Packet>,
    /// Set when the node's silence deadline expired with nothing
    /// delivered: how long it was allowed to stay silent.
    pub timed_out: Option<Duration>,
}

#[derive(Default)]
struct Node {
    mailbox: Vec<Packet>,
    stats: TrafficStats,
    /// Detached nodes neither send nor receive (a leaver that powered off).
    detached: bool,
    /// `(fires_at_ns, allowed silence)` on the caller's clock.
    deadline: Option<(u64, Duration)>,
}

/// The shared broadcast medium (see the crate docs).
#[derive(Default)]
pub struct Medium {
    nodes: Vec<Node>,
    outbox: Vec<Transmission>,
    /// Per-delivery drop probability of the instant transport.
    loss: f64,
    /// xorshift64* state for its loss draws (seeded by `set_loss`).
    rng: u64,
}

impl Medium {
    /// A lossless medium with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node and returns its id (ids are dense, from 0).
    pub fn join(&mut self) -> NodeId {
        self.nodes.push(Node::default());
        (self.nodes.len() - 1) as NodeId
    }

    /// Sets the instant transport's per-delivery drop probability and its
    /// generator seed. Retried protocol attempts salt the seed so they do
    /// not replay the identical drop pattern.
    ///
    /// # Panics
    /// Panics unless `0.0 <= prob < 1.0`.
    pub fn set_loss(&mut self, prob: f64, seed: u64) {
        assert!((0.0..1.0).contains(&prob), "loss probability out of range");
        self.loss = prob;
        // xorshift64* needs a non-zero state.
        self.rng = seed | 1;
    }

    /// Detaches `id`: it stops receiving, and its sends are ignored.
    pub fn detach(&mut self, id: NodeId) {
        self.nodes[id as usize].detached = true;
    }

    /// Whether `id` is detached (powered off).
    pub fn is_detached(&self, id: NodeId) -> bool {
        self.nodes[id as usize].detached
    }

    /// Traffic counters for `id`.
    pub fn stats(&self, id: NodeId) -> TrafficStats {
        self.nodes[id as usize].stats
    }

    /// Transmits `packet` from `packet.from`: charges the sender, resolves
    /// the audible recipients and parks the [`Transmission`] for a
    /// transport. A detached sender transmits nothing and is not charged.
    pub fn send(&mut self, to: &Dest, packet: Packet) {
        let from = packet.from;
        let src = &mut self.nodes[from as usize];
        if src.detached {
            return;
        }
        src.stats.tx_bits += packet.nominal_bits;
        src.stats.tx_bits_actual += packet.payload.len() as u64 * 8;
        src.stats.msgs_tx += 1;
        let mut targets: Vec<NodeId> = match to {
            Dest::Broadcast => (0..self.nodes.len() as NodeId).collect(),
            Dest::Unicast(id) => vec![*id],
            Dest::Multicast(ids) => ids.clone(),
        };
        // A unicast names its target outright; fan-outs skip the sender.
        let fan_out = !matches!(to, Dest::Unicast(_));
        targets.retain(|&id| !self.nodes[id as usize].detached && (id != from || !fan_out));
        self.outbox.push(Transmission { targets, packet });
    }

    /// The instant transport: delivers every parked transmission now,
    /// drawing the seeded loss once per audible target in send order.
    pub fn flush(&mut self) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for tx in outbox.drain(..) {
            for &to in &tx.targets {
                if !self.drop_now() {
                    self.deliver_to(to, &tx.packet);
                }
            }
        }
        // Hand the (empty) buffer back so steady-state sends reuse it.
        self.outbox = outbox;
    }

    /// Drains the parked transmissions in send order — the radio
    /// transport's intake.
    pub fn take_outbox(&mut self) -> Vec<Transmission> {
        std::mem::take(&mut self.outbox)
    }

    /// Puts `packet` in `to`'s mailbox and charges its receive counters.
    /// Returns `false` (delivering nothing) if `to` has detached since the
    /// packet went on the air.
    pub fn deliver_to(&mut self, to: NodeId, packet: &Packet) -> bool {
        let dst = &mut self.nodes[to as usize];
        if dst.detached {
            return false;
        }
        dst.stats.rx_bits += packet.nominal_bits;
        dst.stats.rx_bits_actual += packet.payload.len() as u64 * 8;
        dst.stats.msgs_rx += 1;
        dst.mailbox.push(packet.clone());
        true
    }

    /// Arms (or with `None` disarms) `id`'s silence deadline `timeout`
    /// after `now_ns` on the caller's clock (the host clock or a radio's
    /// virtual one). It fires at most once per arming; traffic re-arms it.
    pub fn set_deadline(&mut self, id: NodeId, now_ns: u64, timeout: Option<Duration>) {
        self.nodes[id as usize].deadline = timeout.map(|t| (now_ns + t.as_nanos() as u64, t));
    }

    /// The earliest armed deadline, if any — the next timer event a
    /// discrete-event driver jumps its clock to when nothing is on the air.
    pub fn next_deadline(&self) -> Option<u64> {
        self.nodes.iter().filter_map(|n| Some(n.deadline?.0)).min()
    }

    /// Hands every node its mailbox and checks deadlines against `now_ns`.
    /// A node with deliveries re-arms its deadline (deadlines bound
    /// *silence*, not session length); a silent node whose deadline has
    /// passed reports it once, disarmed. Indexed by node id.
    pub fn poll(&mut self, now_ns: u64) -> Vec<Ready> {
        let poll_node = |node: &mut Node| {
            let packets = std::mem::take(&mut node.mailbox);
            let mut timed_out = None;
            if let Some((at, after)) = node.deadline {
                if !packets.is_empty() {
                    node.deadline = Some((now_ns + after.as_nanos() as u64, after));
                } else if now_ns >= at {
                    node.deadline = None;
                    timed_out = Some(after);
                }
            }
            Ready { packets, timed_out }
        };
        self.nodes.iter_mut().map(poll_node).collect()
    }

    /// One xorshift64* loss draw (none at all on a lossless medium).
    fn drop_now(&mut self) -> bool {
        if self.loss <= 0.0 {
            return false;
        }
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let x = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
        ((x >> 11) as f64 / (1u64 << 53) as f64) < self.loss
    }
}

#[cfg(test)]
mod reactor;

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn medium(n: usize) -> Medium {
        let mut m = Medium::new();
        for _ in 0..n {
            m.join();
        }
        m
    }

    pub(crate) fn packet(from: NodeId, kind: u16, payload: &'static [u8], bits: u64) -> Packet {
        let payload = Bytes::from_static(payload);
        Packet {
            from,
            kind,
            payload,
            nominal_bits: bits,
        }
    }

    /// Sends over the instant transport.
    pub(crate) fn send(
        m: &mut Medium,
        from: NodeId,
        to: Dest,
        kind: u16,
        payload: &'static [u8],
        bits: u64,
    ) {
        m.send(&to, packet(from, kind, payload, bits));
        m.flush();
    }

    fn kinds(ready: &Ready) -> Vec<u16> {
        ready.packets.iter().map(|p| p.kind).collect()
    }

    #[test]
    fn broadcast_reaches_all_others() {
        let mut m = medium(3);
        send(&mut m, 0, Dest::Broadcast, 7, b"hello", 2080);
        let ready = m.poll(0);
        assert_eq!(kinds(&ready[1]), vec![7]);
        assert_eq!(ready[2].packets[0].payload.as_ref(), b"hello");
        assert!(ready[0].packets.is_empty(), "no self-delivery");
    }

    #[test]
    fn unicast_reaches_only_target() {
        let mut m = medium(3);
        send(&mut m, 0, Dest::Unicast(1), 1, b"x", 8);
        let ready = m.poll(0);
        assert_eq!(ready[1].packets[0].from, 0);
        assert!(ready[2].packets.is_empty());
    }

    #[test]
    fn multicast_reaches_only_listed_targets() {
        let mut m = medium(4);
        send(&mut m, 0, Dest::Multicast(vec![1, 3, 0]), 5, b"m", 64);
        let ready = m.poll(0);
        assert_eq!(kinds(&ready[1]), vec![5]);
        assert_eq!(kinds(&ready[3]), vec![5]);
        assert!(ready[2].packets.is_empty());
        assert!(ready[0].packets.is_empty(), "self in target set is skipped");
        assert_eq!(m.stats(0).msgs_tx, 1);
        assert_eq!(m.stats(2).msgs_rx, 0);
    }

    #[test]
    fn nominal_and_actual_bits_accounted() {
        let mut m = medium(2);
        send(&mut m, 0, Dest::Broadcast, 0, b"abcd", 2080); // 4 bytes actual
        let sa = m.stats(0);
        assert_eq!((sa.tx_bits, sa.tx_bits_actual, sa.msgs_tx), (2080, 32, 1));
        let sb = m.stats(1);
        assert_eq!((sb.rx_bits, sb.rx_bits_actual, sb.msgs_rx), (2080, 32, 1));
    }

    #[test]
    fn rx_counts_match_paper_shape() {
        // n nodes, each broadcasts 2 messages: every node receives 2(n−1).
        let n = 5;
        let mut m = medium(n);
        for id in 0..n as NodeId {
            send(&mut m, id, Dest::Broadcast, 1, b"", 100);
            send(&mut m, id, Dest::Broadcast, 2, b"", 100);
        }
        for id in 0..n as NodeId {
            assert_eq!(m.stats(id).msgs_rx, 2 * (n as u64 - 1));
            assert_eq!(m.stats(id).msgs_tx, 2);
        }
    }

    #[test]
    fn detached_nodes_are_silent() {
        let mut m = medium(2);
        m.detach(1);
        send(&mut m, 1, Dest::Broadcast, 0, b"", 8);
        send(&mut m, 0, Dest::Broadcast, 0, b"", 8);
        let ready = m.poll(0);
        assert!(ready[0].packets.is_empty() && ready[1].packets.is_empty());
        assert_eq!(m.stats(1).msgs_tx, 0, "detached sends are not charged");
    }

    #[test]
    fn deferred_medium_parks_sends_in_the_outbox() {
        let mut m = medium(4);
        m.detach(3);
        m.send(&Dest::Broadcast, packet(0, 3, b"air", 2080));
        // Nothing delivered yet; the sender is already charged.
        assert_eq!((m.stats(0).msgs_tx, m.stats(0).tx_bits), (1, 2080));
        assert_eq!(m.stats(1).msgs_rx, 0);
        let outbox = m.take_outbox();
        assert_eq!((outbox.len(), outbox[0].packet.from), (1, 0));
        assert_eq!(outbox[0].targets, vec![1, 2], "detached 3 is not audible");
        assert!(m.take_outbox().is_empty(), "drained");
        // The transport delivers when its clock says so; rx is charged then.
        assert!(m.deliver_to(1, &outbox[0].packet));
        assert_eq!(m.poll(0)[1].packets[0].payload.as_ref(), b"air");
        assert_eq!(m.stats(1).rx_bits, 2080);
        assert_eq!(m.stats(2).msgs_rx, 0, "undelivered target uncharged");
    }

    #[test]
    fn deferred_send_resolves_partition_and_detachment_at_send_time() {
        // Partitions are gone; detachment is the one audibility rule left.
        let mut m = medium(3);
        m.detach(1);
        m.detach(2);
        m.send(&Dest::Broadcast, packet(0, 0, b"", 8));
        let outbox = m.take_outbox();
        assert_eq!(outbox.len(), 1);
        assert!(
            outbox[0].targets.is_empty(),
            "detached nodes are not audible"
        );
        // A target that detaches *after* the send but before delivery is
        // dropped at delivery time.
        let d = m.join();
        m.send(&Dest::Broadcast, packet(0, 0, b"", 8));
        let outbox = m.take_outbox();
        assert_eq!(outbox[0].targets, vec![d]);
        m.detach(d);
        assert!(!m.deliver_to(d, &outbox[0].packet));
        assert_eq!(m.stats(d).msgs_rx, 0);
    }

    /// Messages node 1 receives from node 0's `count` broadcasts at 8 bits.
    fn lossy_run(prob: f64, seed: u64, count: usize) -> (u64, Vec<u16>) {
        let mut m = medium(2);
        m.set_loss(prob, seed);
        for i in 0..count {
            send(&mut m, 0, Dest::Broadcast, i as u16, b"", 8);
        }
        // Sender is still charged for every transmission.
        assert_eq!(m.stats(0).msgs_tx, count as u64);
        (m.stats(1).msgs_rx, kinds(&m.poll(0)[1]))
    }

    #[test]
    fn loss_drops_a_fraction() {
        let (got, _) = lossy_run(0.5, 7, 1000);
        assert!((300..700).contains(&got), "50% loss delivered {got}/1000");
    }

    #[test]
    fn loss_is_deterministic_per_medium_seed() {
        assert_eq!(lossy_run(0.3, 11, 200), lossy_run(0.3, 11, 200));
    }

    #[test]
    fn seeded_loss_changes_the_drop_pattern() {
        let (s1, p1) = lossy_run(0.4, 1, 64);
        let (s2, p2) = lossy_run(0.4, 2, 64);
        assert_ne!(p1, p2, "seeds decorrelate the pattern");
        // Both in the plausible band.
        for got in [s1, s2] {
            assert!((20..55).contains(&got), "40% loss delivered {got}/64");
        }
    }
}
