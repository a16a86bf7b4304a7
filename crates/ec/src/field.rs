//! Prime-field arithmetic contexts.
//!
//! Two representations of `F_p` live here:
//!
//! * [`Fp`] (and the extension [`Fp2`]) — the public one. It bundles an odd
//!   prime modulus with its Montgomery context from `egka-bigint`; elements
//!   are plain [`Ubig`] values reduced into `[0, p)`. The pairing, point
//!   compression and the affine group law run on it, and every public
//!   point coordinate is a `Ubig`.
//! * `MontField` (crate-private) — fixed-width Montgomery arithmetic for
//!   moduli below `2^256`: elements are `[u64; 4]` arrays holding `a·R mod
//!   p` with `R = 2^(64·k)` for the modulus's `k` limbs, and no operation
//!   allocates. The scalar-multiplication internals of [`crate::curve`]
//!   run on it and convert to and from `Ubig` only at the `Point`
//!   boundary.

use egka_bigint::{mod_inverse, Montgomery, Ubig};
use rand::Rng;

/// A prime field `F_p` for an odd prime `p`.
#[derive(Clone, Debug)]
pub struct Fp {
    p: Ubig,
    mont: Montgomery,
    /// `(p + 1) / 4`, defined only when `p ≡ 3 (mod 4)` (square-root exponent).
    sqrt_exp: Option<Ubig>,
}

impl Fp {
    /// Builds a field context.
    ///
    /// # Panics
    /// Panics if `p` is even or `p <= 1`. Primality is the caller's
    /// responsibility (checked in curve constructors and tests).
    pub fn new(p: Ubig) -> Self {
        assert!(
            p.is_odd() && !p.is_one(),
            "field modulus must be an odd prime"
        );
        let mont = Montgomery::new(p.clone());
        let sqrt_exp = if p.low_u64() & 3 == 3 {
            Some(p.add_ref(&Ubig::one()).shr_bits(2))
        } else {
            None
        };
        Fp { p, mont, sqrt_exp }
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> &Ubig {
        &self.p
    }

    /// Number of bits in `p`.
    pub fn bits(&self) -> u32 {
        self.p.bit_length()
    }

    /// Canonical byte width of a serialized element.
    pub fn byte_len(&self) -> usize {
        (self.p.bit_length() as usize).div_ceil(8)
    }

    /// True iff `p ≡ 3 (mod 4)` (fast square roots available).
    pub fn is_3_mod_4(&self) -> bool {
        self.sqrt_exp.is_some()
    }

    /// Reduces an arbitrary integer into the field.
    pub fn reduce(&self, a: &Ubig) -> Ubig {
        a.rem_ref(&self.p)
    }

    /// `(a + b) mod p` for reduced operands.
    pub fn add(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let s = a.add_ref(b);
        if s >= self.p {
            s.checked_sub(&self.p).unwrap()
        } else {
            s
        }
    }

    /// `(a - b) mod p` for reduced operands.
    pub fn sub(&self, a: &Ubig, b: &Ubig) -> Ubig {
        if a >= b {
            a.checked_sub(b).unwrap()
        } else {
            a.add_ref(&self.p).checked_sub(b).unwrap()
        }
    }

    /// `-a mod p` for a reduced operand.
    pub fn neg(&self, a: &Ubig) -> Ubig {
        if a.is_zero() {
            Ubig::zero()
        } else {
            self.p.checked_sub(a).unwrap()
        }
    }

    /// `(a * b) mod p`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        a.mul_ref(b).rem_ref(&self.p)
    }

    /// `a² mod p`.
    pub fn sqr(&self, a: &Ubig) -> Ubig {
        a.square().rem_ref(&self.p)
    }

    /// `a * k mod p` for a small scalar.
    pub fn mul_u64(&self, a: &Ubig, k: u64) -> Ubig {
        self.mul(a, &Ubig::from_u64(k))
    }

    /// `a^e mod p` (Montgomery ladder under the hood).
    pub fn pow(&self, a: &Ubig, e: &Ubig) -> Ubig {
        self.mont.pow(&self.reduce(a), e)
    }

    /// `a^{-1} mod p`, or `None` for `a = 0`.
    pub fn inv(&self, a: &Ubig) -> Option<Ubig> {
        if a.is_zero() {
            return None;
        }
        mod_inverse(a, &self.p)
    }

    /// Legendre symbol test: true iff `a` is a non-zero quadratic residue.
    pub fn is_qr(&self, a: &Ubig) -> bool {
        !a.is_zero() && egka_bigint::jacobi(a, &self.p) == 1
    }

    /// Square root of a quadratic residue for `p ≡ 3 (mod 4)`:
    /// `a^{(p+1)/4}`. Returns `None` if `a` is a non-residue.
    ///
    /// # Panics
    /// Panics if the field modulus is not `≡ 3 (mod 4)`.
    pub fn sqrt(&self, a: &Ubig) -> Option<Ubig> {
        let e = self.sqrt_exp.as_ref().expect("sqrt requires p ≡ 3 (mod 4)");
        if a.is_zero() {
            return Some(Ubig::zero());
        }
        let r = self.mont.pow(a, e);
        if self.sqr(&r) == self.reduce(a) {
            Some(r)
        } else {
            None
        }
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        egka_bigint::random_below(rng, &self.p)
    }

    /// Uniformly random non-zero element.
    pub fn random_nonzero<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        loop {
            let v = self.random(rng);
            if !v.is_zero() {
                return v;
            }
        }
    }
}

/// An element of `F_p² = F_p[i] / (i² + 1)`, valid when `p ≡ 3 (mod 4)`.
///
/// Stored as `c0 + c1·i` with both coordinates reduced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fp2El {
    /// Real coordinate.
    pub c0: Ubig,
    /// Imaginary coordinate (coefficient of `i`).
    pub c1: Ubig,
}

impl Fp2El {
    /// The additive identity.
    pub fn zero() -> Self {
        Fp2El {
            c0: Ubig::zero(),
            c1: Ubig::zero(),
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Fp2El {
            c0: Ubig::one(),
            c1: Ubig::zero(),
        }
    }

    /// Embeds a base-field element.
    pub fn from_base(c0: Ubig) -> Self {
        Fp2El {
            c0,
            c1: Ubig::zero(),
        }
    }

    /// True iff this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// True iff this is the one element.
    pub fn is_one(&self) -> bool {
        self.c0.is_one() && self.c1.is_zero()
    }
}

/// The quadratic extension field `F_p²` with `i² = -1`.
///
/// Requires `p ≡ 3 (mod 4)` so that `x² + 1` is irreducible over `F_p`.
#[derive(Clone, Debug)]
pub struct Fp2 {
    base: Fp,
}

impl Fp2 {
    /// Builds the extension over `base`.
    ///
    /// # Panics
    /// Panics unless `p ≡ 3 (mod 4)` (otherwise `i² = -1` is reducible).
    pub fn new(base: Fp) -> Self {
        assert!(base.is_3_mod_4(), "F_p² with i² = -1 needs p ≡ 3 (mod 4)");
        Fp2 { base }
    }

    /// The base field.
    pub fn base(&self) -> &Fp {
        &self.base
    }

    /// `a + b`.
    pub fn add(&self, a: &Fp2El, b: &Fp2El) -> Fp2El {
        Fp2El {
            c0: self.base.add(&a.c0, &b.c0),
            c1: self.base.add(&a.c1, &b.c1),
        }
    }

    /// `a - b`.
    pub fn sub(&self, a: &Fp2El, b: &Fp2El) -> Fp2El {
        Fp2El {
            c0: self.base.sub(&a.c0, &b.c0),
            c1: self.base.sub(&a.c1, &b.c1),
        }
    }

    /// `-a`.
    pub fn neg(&self, a: &Fp2El) -> Fp2El {
        Fp2El {
            c0: self.base.neg(&a.c0),
            c1: self.base.neg(&a.c1),
        }
    }

    /// `a · b` (schoolbook; Karatsuba in `F_p²` saves one base mul but the
    /// pairing loop is dominated by the 3 base muls either way).
    pub fn mul(&self, a: &Fp2El, b: &Fp2El) -> Fp2El {
        let f = &self.base;
        let t0 = f.mul(&a.c0, &b.c0);
        let t1 = f.mul(&a.c1, &b.c1);
        let c0 = f.sub(&t0, &t1);
        // (a0 + a1)(b0 + b1) - t0 - t1 = a0 b1 + a1 b0
        let s = f.mul(&f.add(&a.c0, &a.c1), &f.add(&b.c0, &b.c1));
        let c1 = f.sub(&f.sub(&s, &t0), &t1);
        Fp2El { c0, c1 }
    }

    /// `a²`.
    pub fn sqr(&self, a: &Fp2El) -> Fp2El {
        let f = &self.base;
        // (a0 + a1 i)² = (a0+a1)(a0-a1) + 2 a0 a1 i
        let c0 = f.mul(&f.add(&a.c0, &a.c1), &f.sub(&a.c0, &a.c1));
        let t = f.mul(&a.c0, &a.c1);
        let c1 = f.add(&t, &t);
        Fp2El { c0, c1 }
    }

    /// Conjugate `a0 - a1·i` (which equals the Frobenius `a^p`).
    pub fn conj(&self, a: &Fp2El) -> Fp2El {
        Fp2El {
            c0: a.c0.clone(),
            c1: self.base.neg(&a.c1),
        }
    }

    /// Norm `a0² + a1² ∈ F_p`.
    pub fn norm(&self, a: &Fp2El) -> Ubig {
        let f = &self.base;
        f.add(&f.sqr(&a.c0), &f.sqr(&a.c1))
    }

    /// `a^{-1}`, or `None` for zero.
    pub fn inv(&self, a: &Fp2El) -> Option<Fp2El> {
        if a.is_zero() {
            return None;
        }
        let f = &self.base;
        let n_inv = f.inv(&self.norm(a))?;
        Some(Fp2El {
            c0: f.mul(&a.c0, &n_inv),
            c1: f.mul(&f.neg(&a.c1), &n_inv),
        })
    }

    /// `a^e` by square-and-multiply.
    pub fn pow(&self, a: &Fp2El, e: &Ubig) -> Fp2El {
        if e.is_zero() {
            return Fp2El::one();
        }
        let mut acc = Fp2El::one();
        for i in (0..e.bit_length()).rev() {
            acc = self.sqr(&acc);
            if e.bit(i) {
                acc = self.mul(&acc, a);
            }
        }
        acc
    }
}

/// Limbs of a [`MontField`] element: little-endian, the top `4 − k` zero.
pub(crate) type Limbs = [u64; MAX_LIMBS];

/// Widest modulus [`MontField`] takes, in 64-bit limbs.
pub(crate) const MAX_LIMBS: usize = 4;

/// Fixed-width Montgomery arithmetic modulo an odd prime `p < 2^256`.
///
/// Elements are [`Limbs`] in Montgomery form (`a·R mod p`, `R = 2^(64·k)`),
/// always fully reduced, so equal values have equal limbs. Multiplication
/// is CIOS, monomorphised per limb count `k ∈ 1..=4`; inversion is Fermat's
/// `a^(p−2)` with a fixed 4-bit window. Nothing here allocates.
#[derive(Debug)]
pub(crate) struct MontField {
    /// Limbs of the modulus actually used (`1..=4`).
    k: usize,
    p: Limbs,
    /// `−p⁻¹ mod 2^64`.
    n0: u64,
    /// `R² mod p` (converts into Montgomery form).
    r2: Limbs,
    /// `R mod p`, the Montgomery form of 1.
    one: Limbs,
    /// `p − 2`, the Fermat inversion exponent.
    p_minus_2: Limbs,
}

impl MontField {
    /// Builds the context for an odd prime `p` of at most 256 bits.
    pub(crate) fn new(p: &Ubig) -> Self {
        assert!(
            p.bit_length() <= 64 * MAX_LIMBS as u32,
            "fixed-width field needs p < 2^256"
        );
        assert!(
            p.is_odd() && p.bit_length() > 1,
            "modulus must be an odd prime"
        );
        let k = p.limbs().len();
        // Newton's iteration doubles the correct low bits of p⁻¹ mod 2^64.
        let p0 = p.limbs()[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        }
        let r = Ubig::one().shl_bits(64 * k as u32);
        MontField {
            k,
            p: to_limbs(p),
            n0: inv.wrapping_neg(),
            r2: to_limbs(&r.mul_ref(&r).rem_ref(p)),
            one: to_limbs(&r.rem_ref(p)),
            p_minus_2: to_limbs(&p.checked_sub(&Ubig::from_u64(2)).expect("p ≥ 3")),
        }
    }

    /// The Montgomery form of 1.
    pub(crate) fn one(&self) -> Limbs {
        self.one
    }

    /// Converts into Montgomery form (reducing first if `a ≥ p`).
    pub(crate) fn to_mont(&self, a: &Ubig) -> Limbs {
        let reduced = a.bit_length() <= 64 * MAX_LIMBS as u32 && lt(&to_limbs(a), &self.p);
        let plain = if reduced {
            to_limbs(a)
        } else {
            to_limbs(&a.rem_ref(&Ubig::from_limbs(self.p.to_vec())))
        };
        self.mul(&plain, &self.r2)
    }

    /// Converts out of Montgomery form.
    pub(crate) fn to_ubig(&self, a: &Limbs) -> Ubig {
        let mut unit = [0u64; MAX_LIMBS];
        unit[0] = 1;
        Ubig::from_limbs(self.mul(a, &unit).to_vec())
    }

    /// `a + b mod p`.
    #[inline]
    pub(crate) fn add(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let mut s = *a;
        if add_limbs(&mut s, b) || !lt(&s, &self.p) {
            sub_limbs(&mut s, &self.p);
        }
        s
    }

    /// `a − b mod p`.
    #[inline]
    pub(crate) fn sub(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let mut d = *a;
        if sub_limbs(&mut d, b) {
            add_limbs(&mut d, &self.p);
        }
        d
    }

    /// `−a mod p`.
    #[inline]
    pub(crate) fn neg(&self, a: &Limbs) -> Limbs {
        if is_zero(a) {
            *a
        } else {
            let mut d = self.p;
            sub_limbs(&mut d, a);
            d
        }
    }

    /// `a · b · R⁻¹ mod p` — the Montgomery product.
    #[inline]
    pub(crate) fn mul(&self, a: &Limbs, b: &Limbs) -> Limbs {
        match self.k {
            1 => mont_mul::<1>(a, b, &self.p, self.n0),
            2 => mont_mul::<2>(a, b, &self.p, self.n0),
            3 => mont_mul::<3>(a, b, &self.p, self.n0),
            _ => mont_mul::<4>(a, b, &self.p, self.n0),
        }
    }

    /// `a²` in Montgomery form.
    #[inline]
    pub(crate) fn sqr(&self, a: &Limbs) -> Limbs {
        self.mul(a, a)
    }

    /// `a⁻¹` in Montgomery form (`0` maps to `0`; callers never invert it).
    pub(crate) fn inv(&self, a: &Limbs) -> Limbs {
        // powers[i] = a^i for the 4-bit window.
        let mut powers = [self.one; 16];
        for i in 1..16 {
            powers[i] = self.mul(&powers[i - 1], a);
        }
        let nibble = |i: usize| (self.p_minus_2[i / 16] >> (4 * (i % 16))) as usize & 0xf;
        let top = (0..MAX_LIMBS * 16)
            .rev()
            .find(|&i| nibble(i) != 0)
            .unwrap_or(0);
        let mut acc = powers[nibble(top)];
        for i in (0..top).rev() {
            acc = self.sqr(&self.sqr(&acc));
            acc = self.sqr(&self.sqr(&acc));
            if nibble(i) != 0 {
                acc = self.mul(&acc, &powers[nibble(i)]);
            }
        }
        acc
    }
}

/// True iff every limb is zero.
#[inline]
pub(crate) fn is_zero(a: &Limbs) -> bool {
    a.iter().all(|&l| l == 0)
}

/// `a < b` as 256-bit integers.
#[inline]
fn lt(a: &Limbs, b: &Limbs) -> bool {
    for i in (0..MAX_LIMBS).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a ← a − b` (wrapping); returns the borrow out.
#[inline]
fn sub_limbs(a: &mut Limbs, b: &Limbs) -> bool {
    let mut borrow = false;
    for i in 0..MAX_LIMBS {
        let (t, b1) = a[i].overflowing_sub(b[i]);
        let (t, b2) = t.overflowing_sub(borrow as u64);
        a[i] = t;
        borrow = b1 | b2;
    }
    borrow
}

/// `a ← a + b` (wrapping); returns the carry out.
#[inline]
fn add_limbs(a: &mut Limbs, b: &Limbs) -> bool {
    let mut carry = false;
    for i in 0..MAX_LIMBS {
        let (t, c1) = a[i].overflowing_add(b[i]);
        let (t, c2) = t.overflowing_add(carry as u64);
        a[i] = t;
        carry = c1 | c2;
    }
    carry
}

/// The low 256 bits of `a` as limbs.
fn to_limbs(a: &Ubig) -> Limbs {
    let mut out = [0u64; MAX_LIMBS];
    for (o, l) in out.iter_mut().zip(a.limbs()) {
        *o = *l;
    }
    out
}

/// CIOS Montgomery multiplication over the low `K` limbs: for `a, b < p`
/// returns `a·b·2^(−64K) mod p`, fully reduced.
#[inline(always)]
fn mont_mul<const K: usize>(a: &Limbs, b: &Limbs, p: &Limbs, n0: u64) -> Limbs {
    // t holds K + 2 limbs (K ≤ 4).
    let mut t = [0u64; MAX_LIMBS + 2];
    for &bi in &b[..K] {
        let mut c = 0u64;
        for j in 0..K {
            let s = t[j] as u128 + (a[j] as u128) * (bi as u128) + c as u128;
            t[j] = s as u64;
            c = (s >> 64) as u64;
        }
        let s = t[K] as u128 + c as u128;
        t[K] = s as u64;
        t[K + 1] = (s >> 64) as u64;
        let m = t[0].wrapping_mul(n0);
        let s = t[0] as u128 + (m as u128) * (p[0] as u128);
        let mut c = (s >> 64) as u64;
        for j in 1..K {
            let s = t[j] as u128 + (m as u128) * (p[j] as u128) + c as u128;
            t[j - 1] = s as u64;
            c = (s >> 64) as u64;
        }
        let s = t[K] as u128 + c as u128;
        t[K - 1] = s as u64;
        t[K] = t[K + 1] + (s >> 64) as u64;
    }
    // t < 2p: one conditional subtraction reduces it.
    let mut out = [0u64; MAX_LIMBS];
    out[..K].copy_from_slice(&t[..K]);
    if t[K] != 0 || !lt(&out, p) {
        sub_limbs(&mut out, p);
        // The borrow ran into the unused top limbs; the difference is < p.
        out[K..].fill(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use egka_bigint::mod_pow;
    use egka_hash::ChaChaRng;
    use rand::SeedableRng;

    fn f23() -> Fp {
        Fp::new(Ubig::from_u64(23)) // 23 ≡ 3 (mod 4)
    }

    #[test]
    fn add_sub_neg_small() {
        let f = f23();
        let a = Ubig::from_u64(20);
        let b = Ubig::from_u64(7);
        assert_eq!(f.add(&a, &b), Ubig::from_u64(4));
        assert_eq!(f.sub(&b, &a), Ubig::from_u64(10));
        assert_eq!(f.neg(&b), Ubig::from_u64(16));
        assert_eq!(f.neg(&Ubig::zero()), Ubig::zero());
    }

    #[test]
    fn inv_times_self() {
        let f = f23();
        for a in 1..23u64 {
            let a = Ubig::from_u64(a);
            let inv = f.inv(&a).unwrap();
            assert_eq!(f.mul(&a, &inv), Ubig::one());
        }
        assert!(f.inv(&Ubig::zero()).is_none());
    }

    #[test]
    fn sqrt_of_squares() {
        let f = f23();
        for a in 0..23u64 {
            let a = Ubig::from_u64(a);
            let sq = f.sqr(&a);
            let r = f.sqrt(&sq).expect("square must have a root");
            assert_eq!(f.sqr(&r), sq);
        }
    }

    #[test]
    fn sqrt_rejects_non_residue() {
        let f = f23();
        // 5 is a non-residue mod 23.
        assert!(!f.is_qr(&Ubig::from_u64(5)));
        assert!(f.sqrt(&Ubig::from_u64(5)).is_none());
    }

    #[test]
    fn pow_matches_modpow() {
        let f = f23();
        let a = Ubig::from_u64(7);
        let e = Ubig::from_u64(13);
        assert_eq!(f.pow(&a, &e), mod_pow(&a, &e, f.modulus()));
    }

    #[test]
    fn fp2_mul_known() {
        // In F_23[i]: (2 + 3i)(4 + 5i) = 8 + 10i + 12i + 15i² = -7 + 22i = 16 + 22i
        let f2 = Fp2::new(f23());
        let a = Fp2El {
            c0: Ubig::from_u64(2),
            c1: Ubig::from_u64(3),
        };
        let b = Fp2El {
            c0: Ubig::from_u64(4),
            c1: Ubig::from_u64(5),
        };
        let c = f2.mul(&a, &b);
        assert_eq!(c.c0, Ubig::from_u64(16));
        assert_eq!(c.c1, Ubig::from_u64(22));
    }

    #[test]
    fn fp2_sqr_matches_mul() {
        let f2 = Fp2::new(f23());
        for c0 in 0..23u64 {
            let a = Fp2El {
                c0: Ubig::from_u64(c0),
                c1: Ubig::from_u64((c0 * 7 + 3) % 23),
            };
            assert_eq!(f2.sqr(&a), f2.mul(&a, &a));
        }
    }

    #[test]
    fn fp2_inv_times_self() {
        let f2 = Fp2::new(f23());
        let mut rng = ChaChaRng::seed_from_u64(9);
        for _ in 0..50 {
            let a = Fp2El {
                c0: f2.base().random(&mut rng),
                c1: f2.base().random(&mut rng),
            };
            if a.is_zero() {
                continue;
            }
            let inv = f2.inv(&a).unwrap();
            assert!(f2.mul(&a, &inv).is_one());
        }
    }

    #[test]
    fn fp2_conj_is_frobenius() {
        // a^p == conj(a) for p ≡ 3 (mod 4).
        let f2 = Fp2::new(f23());
        let a = Fp2El {
            c0: Ubig::from_u64(11),
            c1: Ubig::from_u64(17),
        };
        let frob = f2.pow(&a, &Ubig::from_u64(23));
        assert_eq!(frob, f2.conj(&a));
    }

    #[test]
    fn fp2_pow_group_order() {
        // The multiplicative group of F_p² has order p² - 1.
        let f2 = Fp2::new(f23());
        let a = Fp2El {
            c0: Ubig::from_u64(3),
            c1: Ubig::from_u64(1),
        };
        let order = Ubig::from_u64(23 * 23 - 1);
        assert!(f2.pow(&a, &order).is_one());
    }

    #[test]
    fn mont_field_matches_fp() {
        // One to four limbs, including moduli whose top limb is all ones
        // (where a + b carries out of the last limb).
        let moduli = [
            "13",
            "ffffffffffffffc5",
            "7fffffffffffffffffffffffffffffff",
            "ffffffffffffffffffffffffffffffff7fffffff",
            "24056cb57801921f30c2993adcde17bb3d0b97964065e4a37",
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f",
        ];
        let mut rng = ChaChaRng::seed_from_u64(0x11b5);
        for hex in moduli {
            let f = Fp::new(Ubig::from_hex(hex).unwrap());
            let m = MontField::new(f.modulus());
            let p_minus_1 = f.modulus().checked_sub(&Ubig::one()).unwrap();
            let mut values = vec![Ubig::zero(), Ubig::one(), p_minus_1];
            values.extend((0..12).map(|_| f.random(&mut rng)));
            for a in &values {
                let am = m.to_mont(a);
                assert_eq!(&m.to_ubig(&am), a, "{hex}: round trip");
                assert_eq!(m.to_ubig(&m.neg(&am)), f.neg(a), "{hex}: neg");
                if !a.is_zero() {
                    assert_eq!(m.to_ubig(&m.inv(&am)), f.inv(a).unwrap(), "{hex}: inv");
                }
                for b in &values {
                    let bm = m.to_mont(b);
                    assert_eq!(m.to_ubig(&m.add(&am, &bm)), f.add(a, b), "{hex}: add");
                    assert_eq!(m.to_ubig(&m.sub(&am, &bm)), f.sub(a, b), "{hex}: sub");
                    assert_eq!(m.to_ubig(&m.mul(&am, &bm)), f.mul(a, b), "{hex}: mul");
                }
            }
            // Unreduced inputs are reduced on the way in.
            let wide = f
                .modulus()
                .mul_ref(&Ubig::from_u64(3))
                .add_ref(&Ubig::from_u64(5));
            assert_eq!(
                m.to_ubig(&m.to_mont(&wide)),
                f.reduce(&wide),
                "{hex}: reduce"
            );
        }
    }

    #[test]
    #[should_panic(expected = "p < 2^256")]
    fn mont_field_rejects_wide_moduli() {
        MontField::new(&Ubig::one().shl_bits(256).add_ref(&Ubig::from_u64(297)));
    }

    #[test]
    fn large_field_sqrt() {
        // 1024-bit-ish prime ≡ 3 mod 4: use a known 127-bit Mersenne 2^127-1 ≡ 3 mod 4?
        // 2^127 - 1 ≡ 3 (mod 4) since 2^127 ≡ 0 (mod 4).
        let p = Ubig::one().shl_bits(127).checked_sub(&Ubig::one()).unwrap();
        let f = Fp::new(p);
        let mut rng = ChaChaRng::seed_from_u64(1);
        for _ in 0..10 {
            let a = f.random(&mut rng);
            let sq = f.sqr(&a);
            let r = f.sqrt(&sq).unwrap();
            assert_eq!(f.sqr(&r), sq);
        }
    }
}
