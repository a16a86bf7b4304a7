//! Tests of the reactor role the medium plays: [`Medium::poll`] hands
//! every node its mailbox and surfaces expired silence deadlines, without
//! ever blocking.

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use crate::tests::{medium, send};
    use crate::Dest;

    #[test]
    fn poll_all_fans_packets_to_the_right_mailboxes() {
        let mut m = medium(3);
        send(&mut m, 0, Dest::Unicast(1), 1, b"b", 8);
        send(&mut m, 0, Dest::Unicast(2), 2, b"c", 8);
        let ready = m.poll(0);
        assert_eq!(ready.iter().map(|r| r.packets.len()).sum::<usize>(), 2);
        assert_eq!(ready[1].packets[0].payload.as_ref(), b"b");
        assert_eq!(ready[2].packets[0].payload.as_ref(), b"c");
        assert!(m.poll(0)[1].packets.is_empty(), "handed over once");
    }

    #[test]
    fn deadline_surfaces_timeout_once_and_only_when_silent() {
        // The deadline runs on whatever clock the caller supplies; here
        // it is the host clock.
        let start = Instant::now();
        let now = || start.elapsed().as_nanos() as u64;
        let mut m = medium(2);
        m.set_deadline(1, now(), Some(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        let ready = m.poll(now());
        assert_eq!(ready[1].timed_out, Some(Duration::ZERO));
        assert!(ready[0].timed_out.is_none(), "unarmed nodes never fire");
        // Expiry disarmed it: silence no longer reports.
        assert!(m.poll(now()).iter().all(|r| r.timed_out.is_none()));
        // Re-armed, but traffic resets the clock instead of timing out.
        m.set_deadline(1, now(), Some(Duration::ZERO));
        send(&mut m, 0, Dest::Broadcast, 1, b"", 8);
        std::thread::sleep(Duration::from_millis(2));
        let ready = m.poll(now());
        assert_eq!(ready[1].packets.len(), 1);
        assert!(ready[1].timed_out.is_none());
    }

    #[test]
    fn virtual_deadline_fires_on_the_simulated_clock_only() {
        let mut m = medium(2);
        let ms = Duration::from_millis(1);
        m.set_deadline(1, 0, Some(ms));
        assert_eq!(m.next_deadline(), Some(1_000_000));
        // Only the supplied clock counts: polling before the deadline
        // reports nothing, however long the host waited.
        std::thread::sleep(Duration::from_millis(3));
        assert!(m.poll(999_999)[1].timed_out.is_none());
        assert_eq!(m.poll(1_000_000)[1].timed_out, Some(ms));
        assert!(m.poll(1_500_000)[1].timed_out.is_none(), "expiry disarms");
        assert_eq!(m.next_deadline(), None);
        // Traffic re-arms the silence window instead of timing out.
        m.set_deadline(1, 2_000_000, Some(ms));
        send(&mut m, 0, Dest::Broadcast, 1, b"", 8);
        assert_eq!(m.poll(3_000_000)[1].packets.len(), 1);
        assert!(m.poll(3_500_000)[1].timed_out.is_none(), "re-armed at 3 ms");
        assert_eq!(m.poll(4_000_000)[1].timed_out, Some(ms), "3 ms + 1 ms");
    }

    #[test]
    fn never_blocks_with_nothing_to_read() {
        let mut m = medium(3);
        let ready = m.poll(0);
        assert_eq!(ready.len(), 3);
        assert!(ready
            .iter()
            .all(|r| r.packets.is_empty() && r.timed_out.is_none()));
        assert!(m.take_outbox().is_empty());
    }
}
