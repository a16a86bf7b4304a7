//! User identities.
//!
//! The paper's users carry 32-bit identities (`Extract: the PKG verifies the
//! 32-bit identity U_i`); [`UserId`] is that identity. Everything that hashes
//! or transmits an identity goes through [`UserId::to_bytes`] so the wire
//! width matches the accounting width (`egka_energy::wire::ID_BITS`).

use core::fmt;
use std::sync::Arc;

use egka_sig::{GqParams, GqRingKey};

/// A 32-bit user identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u32);

impl UserId {
    /// Canonical 4-byte big-endian encoding (32 bits on the wire).
    pub fn to_bytes(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Inverse of [`UserId::to_bytes`].
    pub fn from_bytes(b: [u8; 4]) -> Self {
        UserId(u32::from_be_bytes(b))
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U{}", self.0)
    }
}

/// Ring position of `id` in `ring` — for resolving a wire message's sender
/// identity to its protocol role. Honest-run protocols treat an unknown
/// sender as a scripting bug, hence the panic.
///
/// # Panics
/// Panics (with `what` naming the round) if `id` is not in `ring`.
pub(crate) fn ring_position(ring: &[UserId], id: UserId, what: &str) -> usize {
    ring.iter()
        .position(|&u| u == id)
        .unwrap_or_else(|| panic!("{what} sender is a ring member"))
}

/// The eq. (2) identity term for `ring`, built once per run and shared by
/// every member's machine. `None` (an empty ring or a non-invertible
/// identity product) makes every member's batch check fail.
pub(crate) fn gq_ring_key(gq: &GqParams, ring: &[UserId]) -> Option<Arc<GqRingKey>> {
    let ids: Vec<[u8; 4]> = ring.iter().map(|u| u.to_bytes()).collect();
    let refs: Vec<&[u8]> = ids.iter().map(|b| b.as_slice()).collect();
    gq.ring_key(&refs).map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip() {
        for v in [0u32, 1, 0xdead_beef, u32::MAX] {
            assert_eq!(UserId::from_bytes(UserId(v).to_bytes()), UserId(v));
        }
    }

    #[test]
    fn display_is_paper_notation() {
        assert_eq!(UserId(7).to_string(), "U7");
    }
}
