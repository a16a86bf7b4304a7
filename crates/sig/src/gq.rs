//! The Guillou–Quisquater ID-based signature variant of paper §3, with the
//! aggregate ("batch") verification of paper eq. (2).
//!
//! ```text
//! Setup:   n = p'·q' (RSA modulus), prime e with gcd(e, Φ(n)) = 1,
//!          d = e⁻¹ mod Φ(n);  params = (n, e, H), master = (p', q', d)
//! Extract: S_ID = H(ID)^d mod n
//! Sign:    τ ∈R Z_n*, t = τ^e, c = H(t, M), s = τ·S_ID^c;  σ = (s, c)
//! Verify:  c == H(s^e · H(ID)^{−c}, M)
//! ```
//!
//! The GKA protocol uses the **split** form: commitments `t_i` are broadcast
//! in Round 1, a *shared* challenge `c = H(∏ t_i, Z)` binds everyone, each
//! user answers with `s_i`, and a single aggregate check
//!
//! ```text
//! c == H((∏ s_i)^e · (∏ H(U_i))^{−c}, Z)          (paper eq. (2))
//! ```
//!
//! replaces `n` individual verifications — that is what makes the proposed
//! protocol's "Sign Ver" row in Table 1 a constant 1.
//!
//! The check splits into a per-ring and a per-member part. The identity
//! term `(∏ H(U_i))⁻¹` depends only on the ring, so [`GqParams::ring_key`]
//! computes it once — `n` full-domain hashes and one inverse — and every
//! member then runs [`GqParams::aggregate_verify_ring`]: a product of the
//! `n` responses and **one joint exponentiation** `s^e · h⁻ᶜ`
//! ([`egka_bigint::mod_pow2`]). [`GqParams::aggregate_verify`] is the two
//! composed, so a caller that verifies once per ring pays the hashes every
//! time.
//!
//! Security parameters follow the paper: 512-bit prime factors (1024-bit
//! `n`), 160-bit challenges, and a prime `e` one bit longer than the
//! challenge (classic GQ requires `e > 2^l` for soundness).

use egka_bigint::{gcd, gen_prime, mod_inverse, mod_mul, mod_pow, mod_pow2, random_unit, Ubig};
use egka_hash::{challenge_hash, hash_to_unit};
use rand::Rng;

/// Domain-separation tag for identity hashing.
const ID_TAG: &[u8] = b"egka.gq.id.v1";

/// Public parameters of a GQ instance: `(n, e)` plus the hash conventions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GqParams {
    /// RSA modulus `n = p'·q'`.
    pub n: Ubig,
    /// Public (verification) exponent, a prime with `e > 2^l`.
    pub e: Ubig,
}

/// The PKG's master key.
#[derive(Clone, Debug)]
pub struct GqMasterKey {
    /// First prime factor.
    pub p: Ubig,
    /// Second prime factor.
    pub q: Ubig,
    /// Extraction exponent `d = e⁻¹ mod Φ(n)`.
    pub d: Ubig,
}

/// A user's extracted ID key `S_ID = H(ID)^d mod n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GqSecretKey {
    /// The identity the key was extracted for.
    pub id: Vec<u8>,
    /// `H(ID)^d mod n`.
    pub s_id: Ubig,
}

/// A GQ signature `σ = (s, c)`.
///
/// Wire size (paper Table 3, note 3): `|s| = 1024` bits, `|c| = 160` bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GqSignature {
    /// Response `s = τ·S_ID^c mod n`.
    pub s: Ubig,
    /// Challenge `c = H(t, M)`.
    pub c: Ubig,
}

/// The per-ring half of eq. (2): `(∏ H(U_i))⁻¹ mod n` for one ring of
/// identities, built by [`GqParams::ring_key`] and consumed by
/// [`GqParams::aggregate_verify_ring`] under the same parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GqRingKey {
    /// `(∏ H(U_i))⁻¹ mod n`.
    h_inv: Ubig,
    /// Ring length; a response vector of any other length is rejected.
    len: usize,
}

/// A GQ private-key-generator (paper's PKG for the proposed protocol).
#[derive(Clone, Debug)]
pub struct GqPkg {
    /// Public parameters.
    pub params: GqParams,
    master: GqMasterKey,
}

impl GqPkg {
    /// Runs Setup with `factor_bits`-bit prime factors (paper: 512) and a
    /// `challenge_bits + 1`-bit prime `e` (paper: l = 160 ⇒ 161-bit `e`).
    pub fn setup<R: Rng + ?Sized>(rng: &mut R, factor_bits: u32) -> Self {
        Self::setup_with_e_bits(rng, factor_bits, 161)
    }

    /// Setup with an explicit `e` size (smaller values make unit tests with
    /// toy moduli possible; `e` must stay above the challenge space for real
    /// deployments).
    pub fn setup_with_e_bits<R: Rng + ?Sized>(rng: &mut R, factor_bits: u32, e_bits: u32) -> Self {
        loop {
            let p = gen_prime(rng, factor_bits);
            let q = gen_prime(rng, factor_bits);
            if p == q {
                continue;
            }
            let n = p.mul_ref(&q);
            let phi = p
                .checked_sub(&Ubig::one())
                .unwrap()
                .mul_ref(&q.checked_sub(&Ubig::one()).unwrap());
            // Prime e coprime to Φ(n); d = e⁻¹ mod Φ(n).
            let e = loop {
                let cand = gen_prime(rng, e_bits);
                if gcd(&cand, &phi).is_one() {
                    break cand;
                }
            };
            let d = mod_inverse(&e, &phi).expect("e coprime to phi");
            return GqPkg {
                params: GqParams { n, e },
                master: GqMasterKey { p, q, d },
            };
        }
    }

    /// Rebuilds a PKG from its prime factors and public exponent (used by
    /// pinned parameter fixtures).
    ///
    /// # Panics
    /// Panics if `e` is not invertible modulo `Φ(p·q)`. Primality of the
    /// factors is the caller's responsibility (fixture tests re-validate).
    pub fn from_master(p: Ubig, q: Ubig, e: Ubig) -> Self {
        let n = p.mul_ref(&q);
        let phi = p
            .checked_sub(&Ubig::one())
            .unwrap()
            .mul_ref(&q.checked_sub(&Ubig::one()).unwrap());
        let d = mod_inverse(&e, &phi).expect("fixture e must be a unit mod phi");
        GqPkg {
            params: GqParams { n, e },
            master: GqMasterKey { p, q, d },
        }
    }

    /// Extracts the ID key `S_ID = H(ID)^d mod n` (paper's Extract).
    pub fn extract(&self, id: &[u8]) -> GqSecretKey {
        let h = self.params.hash_id(id);
        GqSecretKey {
            id: id.to_vec(),
            s_id: mod_pow(&h, &self.master.d, &self.params.n),
        }
    }

    /// The master key (exposed for tests of the `d·e ≡ 1` invariant).
    pub fn master(&self) -> &GqMasterKey {
        &self.master
    }
}

impl GqParams {
    /// Full-domain identity hash `H : {0,1}* → Z_n^*`.
    pub fn hash_id(&self, id: &[u8]) -> Ubig {
        hash_to_unit(ID_TAG, id, &self.n)
    }

    /// The `l = 160`-bit challenge `c = H(t, m)` used by Sign/Verify.
    pub fn challenge(&self, t: &Ubig, msg: &[u8]) -> Ubig {
        challenge_hash(&[&t.to_bytes_be(), msg])
    }

    /// Signs `msg` under `key` (paper's Sign).
    pub fn sign<R: Rng + ?Sized>(&self, rng: &mut R, key: &GqSecretKey, msg: &[u8]) -> GqSignature {
        let tau = random_unit(rng, &self.n);
        let t = mod_pow(&tau, &self.e, &self.n);
        let c = self.challenge(&t, msg);
        let s = mod_mul(&tau, &mod_pow(&key.s_id, &c, &self.n), &self.n);
        GqSignature { s, c }
    }

    /// Verifies `σ = (s, c)` on `msg` for identity `id` (paper's Verify):
    /// recomputes `t' = s^e · H(ID)^{−c}` in one joint exponentiation and
    /// checks `c == H(t', msg)`.
    pub fn verify(&self, id: &[u8], msg: &[u8], sig: &GqSignature) -> bool {
        if sig.s.is_zero() || sig.s >= self.n {
            return false;
        }
        let Some(h_inv) = mod_inverse(&self.hash_id(id), &self.n) else {
            return false;
        };
        let t = mod_pow2(&sig.s, &self.e, &h_inv, &sig.c, &self.n);
        self.challenge(&t, msg) == sig.c
    }

    // ----- split API used by the GKA protocol -----

    /// Round-1 commitment: samples `τ` and returns `(τ, t = τ^e)`.
    pub fn commit<R: Rng + ?Sized>(&self, rng: &mut R) -> (Ubig, Ubig) {
        let tau = random_unit(rng, &self.n);
        let t = mod_pow(&tau, &self.e, &self.n);
        (tau, t)
    }

    /// The protocol's shared challenge `c = H(T, Z)` where `T = ∏ t_i mod n`
    /// and `bind` is the protocol binding (the paper's `Z`).
    pub fn shared_challenge(&self, t_agg: &Ubig, bind: &[u8]) -> Ubig {
        challenge_hash(&[&t_agg.to_bytes_be(), bind])
    }

    /// Round-2 response `s = τ·S_ID^c mod n`.
    pub fn respond(&self, key: &GqSecretKey, tau: &Ubig, c: &Ubig) -> Ubig {
        mod_mul(tau, &mod_pow(&key.s_id, c, &self.n), &self.n)
    }

    /// Aggregates commitments: `T = ∏ t_i mod n`.
    pub fn aggregate_commitments(&self, ts: &[Ubig]) -> Ubig {
        ts.iter()
            .fold(Ubig::one(), |acc, t| mod_mul(&acc, t, &self.n))
    }

    /// The paper's batch verification (eq. (2)): checks
    /// `c == H((∏ s_i)^e · (∏ H(U_i))^{−c}, bind)`.
    ///
    /// The composition of [`Self::ring_key`] and
    /// [`Self::aggregate_verify_ring`]: `n` identity hashes and one inverse,
    /// then `n` products and one joint exponentiation. Callers that check
    /// the same ring more than once should build the ring key once.
    pub fn aggregate_verify(
        &self,
        ids: &[&[u8]],
        responses: &[Ubig],
        c: &Ubig,
        bind: &[u8],
    ) -> bool {
        self.ring_key(ids)
            .is_some_and(|ring| self.aggregate_verify_ring(&ring, responses, c, bind))
    }

    /// The per-ring part of eq. (2): `(∏ H(U_i))⁻¹ mod n` over `ids`.
    ///
    /// Costs `n` full-domain hashes and one modular inverse. `None` for an
    /// empty ring or a non-invertible identity product (cannot happen for
    /// honest hashes); [`Self::aggregate_verify`] treats both as a failed
    /// check.
    pub fn ring_key(&self, ids: &[&[u8]]) -> Option<GqRingKey> {
        if ids.is_empty() {
            return None;
        }
        let h_prod = ids.iter().fold(Ubig::one(), |acc, id| {
            mod_mul(&acc, &self.hash_id(id), &self.n)
        });
        Some(GqRingKey {
            h_inv: mod_inverse(&h_prod, &self.n)?,
            len: ids.len(),
        })
    }

    /// The per-member part of eq. (2) against a prepared ring: range-checks
    /// the responses, requires one per ring member, and checks
    /// `c == H(s^e · h⁻ᶜ, bind)` with `s = ∏ s_i` and `h⁻¹` from `ring` —
    /// one joint exponentiation, whatever the ring size.
    pub fn aggregate_verify_ring(
        &self,
        ring: &GqRingKey,
        responses: &[Ubig],
        c: &Ubig,
        bind: &[u8],
    ) -> bool {
        if ring.len != responses.len() {
            return false;
        }
        let mut s_prod = Ubig::one();
        for s in responses {
            if s.is_zero() || s >= &self.n {
                return false;
            }
            s_prod = mod_mul(&s_prod, s, &self.n);
        }
        let t = mod_pow2(&s_prod, &self.e, &ring.h_inv, c, &self.n);
        &self.shared_challenge(&t, bind) == c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    /// Toy-sized PKG shared across tests (128-bit factors, 41-bit e so the
    /// soundness margin still exceeds nothing — fine for functional tests).
    fn pkg() -> GqPkg {
        let mut rng = ChaChaRng::seed_from_u64(0x4751);
        GqPkg::setup_with_e_bits(&mut rng, 128, 41)
    }

    #[test]
    fn master_key_inverts_e() {
        let pkg = pkg();
        let phi = pkg
            .master()
            .p
            .checked_sub(&Ubig::one())
            .unwrap()
            .mul_ref(&pkg.master().q.checked_sub(&Ubig::one()).unwrap());
        assert_eq!(mod_mul(&pkg.params.e, &pkg.master().d, &phi), Ubig::one());
    }

    #[test]
    fn extraction_satisfies_gq_identity() {
        // S_ID^e == H(ID) mod n
        let pkg = pkg();
        let key = pkg.extract(b"alice");
        let lhs = mod_pow(&key.s_id, &pkg.params.e, &pkg.params.n);
        assert_eq!(lhs, pkg.params.hash_id(b"alice"));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"hello group");
        assert!(pkg.params.verify(b"alice", b"hello group", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(2);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"msg");
        assert!(!pkg.params.verify(b"alice", b"other msg", &sig));
    }

    #[test]
    fn verify_rejects_wrong_identity() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let key = pkg.extract(b"alice");
        let sig = pkg.params.sign(&mut rng, &key, b"msg");
        assert!(!pkg.params.verify(b"bob", b"msg", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let key = pkg.extract(b"alice");
        let mut sig = pkg.params.sign(&mut rng, &key, b"msg");
        sig.s = mod_mul(&sig.s, &Ubig::from_u64(2), &pkg.params.n);
        assert!(!pkg.params.verify(b"alice", b"msg", &sig));
    }

    #[test]
    fn verify_rejects_out_of_range_s() {
        let pkg = pkg();
        let sig = GqSignature {
            s: pkg.params.n.clone(),
            c: Ubig::from_u64(1),
        };
        assert!(!pkg.params.verify(b"alice", b"msg", &sig));
        let sig0 = GqSignature {
            s: Ubig::zero(),
            c: Ubig::from_u64(1),
        };
        assert!(!pkg.params.verify(b"alice", b"msg", &sig0));
    }

    /// One honest split-form round over `ids`: Round-1 commitments, the
    /// shared challenge under `bind`, and every member's response.
    fn honest_round(pkg: &GqPkg, ids: &[&[u8]], seed: u64, bind: &[u8]) -> (Ubig, Vec<Ubig>) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let commits: Vec<(Ubig, Ubig)> = ids.iter().map(|_| pkg.params.commit(&mut rng)).collect();
        let ts: Vec<Ubig> = commits.iter().map(|(_, t)| t.clone()).collect();
        let c = pkg
            .params
            .shared_challenge(&pkg.params.aggregate_commitments(&ts), bind);
        let responses = ids
            .iter()
            .zip(&commits)
            .map(|(id, (tau, _))| pkg.params.respond(&pkg.extract(id), tau, &c))
            .collect();
        (c, responses)
    }

    fn user_ids(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("user-{i}").into_bytes()).collect()
    }

    fn refs(ids: &[Vec<u8>]) -> Vec<&[u8]> {
        ids.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn aggregate_verify_accepts_honest_group() {
        let pkg = pkg();
        let ids = user_ids(8);
        let bind = b"protocol binding Z";
        let (c, responses) = honest_round(&pkg, &refs(&ids), 5, bind);
        assert!(pkg
            .params
            .aggregate_verify(&refs(&ids), &responses, &c, bind));
    }

    #[test]
    fn aggregate_verify_rejects_one_bad_response() {
        let pkg = pkg();
        let ids = user_ids(4);
        let (c, mut responses) = honest_round(&pkg, &refs(&ids), 6, b"Z");
        // Corrupt user 2's response.
        responses[2] = mod_mul(&responses[2], &Ubig::from_u64(3), &pkg.params.n);
        assert!(!pkg
            .params
            .aggregate_verify(&refs(&ids), &responses, &c, b"Z"));
    }

    #[test]
    fn aggregate_verify_rejects_wrong_binding() {
        let pkg = pkg();
        let ids = [b"a".as_slice(), b"b".as_slice()];
        let (c, responses) = honest_round(&pkg, &ids, 7, b"bind-1");
        assert!(!pkg.params.aggregate_verify(&ids, &responses, &c, b"bind-2"));
    }

    #[test]
    fn aggregate_verify_rejects_shape_mismatch() {
        let pkg = pkg();
        assert!(!pkg.params.aggregate_verify(&[], &[], &Ubig::one(), b""));
        assert!(!pkg
            .params
            .aggregate_verify(&[b"a".as_slice()], &[], &Ubig::one(), b""));
    }

    #[test]
    fn ring_key_of_empty_ring_is_none() {
        assert_eq!(pkg().params.ring_key(&[]), None);
    }

    /// The split check and the composed one agree on every ring size, on
    /// honest and on corrupted responses.
    #[test]
    fn ring_check_matches_composed_check_for_every_ring_size() {
        let pkg = pkg();
        let p = &pkg.params;
        for n in 1..=40 {
            let ids = user_ids(n);
            let ring = p.ring_key(&refs(&ids)).expect("honest ring is invertible");
            let (c, mut responses) = honest_round(&pkg, &refs(&ids), 0x600 + n as u64, b"Z");
            assert!(
                p.aggregate_verify_ring(&ring, &responses, &c, b"Z"),
                "n = {n}"
            );
            assert!(
                p.aggregate_verify(&refs(&ids), &responses, &c, b"Z"),
                "n = {n}"
            );
            responses[n / 2] = mod_mul(&responses[n / 2], &Ubig::from_u64(2), &p.n);
            assert!(
                !p.aggregate_verify_ring(&ring, &responses, &c, b"Z"),
                "n = {n}"
            );
            assert!(
                !p.aggregate_verify(&refs(&ids), &responses, &c, b"Z"),
                "n = {n}"
            );
        }
    }

    #[test]
    fn ring_check_rejects_every_tampering() {
        let pkg = pkg();
        let p = &pkg.params;
        let ids = user_ids(6);
        let ring = p.ring_key(&refs(&ids)).unwrap();
        let (c, responses) = honest_round(&pkg, &refs(&ids), 11, b"Z");
        let mut tampered = responses.clone();
        tampered[0] = mod_mul(&tampered[0], &Ubig::from_u64(5), &p.n);
        let wrong_c = c.add_ref(&Ubig::one());
        let cases: [(&[Ubig], &Ubig, &[u8]); 5] = [
            (&tampered, &c, b"Z"),
            (&responses, &c, b"not Z"),
            (&responses, &wrong_c, b"Z"),
            (&responses[1..], &c, b"Z"),
            (&[responses.clone(), vec![Ubig::one()]].concat(), &c, b"Z"),
        ];
        for (i, (rs, c, bind)) in cases.into_iter().enumerate() {
            assert!(!p.aggregate_verify_ring(&ring, rs, c, bind), "case {i}");
            assert!(!p.aggregate_verify(&refs(&ids), rs, c, bind), "case {i}");
        }
    }

    /// Security note made concrete (see DESIGN.md §security-notes): the
    /// paper's Leave/Partition protocols let a member answer a *fresh*
    /// challenge with its *old* commitment τ. Two responses under one τ
    /// fully leak the ID key: with `s = τ·S^c`, `s̄ = τ·S^c̄`,
    /// `s/s̄ = S^{c−c̄}`; since `e` is prime and `0 < c−c̄ < e`, extended
    /// Euclid gives `a(c−c̄) = 1 + t·e`, so
    /// `S = (s/s̄)^a · H(ID)^{−t}` — everything on the right is public.
    #[test]
    fn tau_reuse_recovers_secret_key() {
        let pkg = pkg();
        let params = &pkg.params;
        let key = pkg.extract(b"victim");
        let mut rng = ChaChaRng::seed_from_u64(9);
        // One commitment, two different challenges (exactly what a Leave
        // following the initial GKA produces for an even-indexed member).
        let (tau, _t) = params.commit(&mut rng);
        let c1 = params.shared_challenge(&Ubig::from_u64(111), b"session-1");
        let c2 = params.shared_challenge(&Ubig::from_u64(222), b"session-2");
        assert_ne!(c1, c2);
        let s1 = params.respond(&key, &tau, &c1);
        let s2 = params.respond(&key, &tau, &c2);

        // Attacker's computation, using only public values and (s1, s2).
        let (hi, lo) = if c1 > c2 { (&c1, &c2) } else { (&c2, &c1) };
        let (s_hi, s_lo) = if c1 > c2 { (&s1, &s2) } else { (&s2, &s1) };
        let dc = hi.checked_sub(lo).unwrap();
        // s_hi / s_lo = S^dc mod n
        let s_dc = mod_mul(
            s_hi,
            &egka_bigint::mod_inverse(s_lo, &params.n).unwrap(),
            &params.n,
        );
        // a·dc ≡ 1 (mod e)  ⇒  a·dc = 1 + t·e
        let a = egka_bigint::mod_inverse(&dc, &params.e).expect("e prime, 0 < dc < e");
        let t = a
            .mul_ref(&dc)
            .checked_sub(&Ubig::one())
            .unwrap()
            .div_rem(&params.e)
            .0;
        // S = (S^dc)^a · H^{−t}
        let h = params.hash_id(b"victim");
        let h_inv = egka_bigint::mod_inverse(&h, &params.n).unwrap();
        let recovered = mod_mul(
            &mod_pow(&s_dc, &a, &params.n),
            &mod_pow(&h_inv, &t, &params.n),
            &params.n,
        );
        assert_eq!(recovered, key.s_id, "full ID-key recovery from τ reuse");
    }

    #[test]
    fn single_signature_is_special_case_of_aggregate() {
        // A 1-party "aggregate" with the shared challenge equals the plain
        // scheme with bind as message.
        let pkg = pkg();
        let mut rng = ChaChaRng::seed_from_u64(8);
        let key = pkg.extract(b"solo");
        let (tau, t) = pkg.params.commit(&mut rng);
        let c = pkg.params.shared_challenge(&t, b"bind");
        let s = pkg.params.respond(&key, &tau, &c);
        assert!(pkg
            .params
            .aggregate_verify(&[b"solo".as_slice()], &[s], &c, b"bind"));
    }
}
