//! Montgomery-form modular arithmetic for odd moduli.
//!
//! All 1024-bit exponentiations in the GKA protocols go through
//! [`Montgomery::pow`], so this module is the single hottest code path in the
//! workspace. The REDC inner loop is written over flat limb buffers that are
//! reused across iterations (perf-book: avoid allocation in hot loops).

use crate::limbs;
use crate::ubig::Ubig;

/// Precomputed Montgomery context for an odd modulus `n`.
#[derive(Clone, Debug)]
pub struct Montgomery {
    n: Ubig,
    /// limb count of `n`
    k: usize,
    /// `-n^{-1} mod 2^64`
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64k)`
    r2: Ubig,
    /// `R mod n` (the Montgomery form of 1)
    r1: Ubig,
}

/// A value held in Montgomery form (`a * R mod n`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontForm {
    pub(crate) limbs: Vec<u64>,
}

impl Montgomery {
    /// Builds a context for odd modulus `n > 1`.
    ///
    /// # Panics
    /// Panics if `n` is even or `n <= 1`.
    pub fn new(n: Ubig) -> Self {
        assert!(n.is_odd(), "Montgomery requires an odd modulus");
        assert!(!n.is_one(), "modulus must be > 1");
        let k = n.limbs().len();
        let n0inv = inv64(n.limbs()[0]).wrapping_neg();
        // R mod n and R^2 mod n via shifting.
        let r1 = Ubig::one().shl_bits(64 * k as u32).rem_ref(&n);
        let r2 = Ubig::one().shl_bits(128 * k as u32).rem_ref(&n);
        Montgomery {
            n,
            k,
            n0inv,
            r2,
            r1,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Converts `a` (must satisfy `a < n`) into Montgomery form.
    pub fn to_mont(&self, a: &Ubig) -> MontForm {
        debug_assert!(a < &self.n);
        self.mul(&self.form_from_ubig(a), &self.form_from_ubig(&self.r2))
    }

    /// Converts back from Montgomery form.
    pub fn from_mont(&self, a: &MontForm) -> Ubig {
        let mut t = vec![0u64; 2 * self.k + 1];
        t[..self.k].copy_from_slice(&a.limbs);
        self.redc(&mut t)
    }

    /// Montgomery form of 1.
    pub fn one(&self) -> MontForm {
        self.form_from_ubig(&self.r1)
    }

    fn form_from_ubig(&self, a: &Ubig) -> MontForm {
        let mut l = vec![0u64; self.k];
        l[..a.limbs().len()].copy_from_slice(a.limbs());
        MontForm { limbs: l }
    }

    /// Montgomery product: `redc(a * b)`.
    pub fn mul(&self, a: &MontForm, b: &MontForm) -> MontForm {
        let mut t = vec![0u64; 2 * self.k + 1];
        limbs::mul_schoolbook(&mut t[..2 * self.k], &a.limbs, &b.limbs);
        let r = self.redc(&mut t);
        self.form_from_ubig(&r)
    }

    /// Montgomery square.
    pub fn sqr(&self, a: &MontForm) -> MontForm {
        self.mul(a, a)
    }

    /// REDC: given `t < n * R` (as `2k+1` limbs), returns `t * R^{-1} mod n`.
    fn redc(&self, t: &mut [u64]) -> Ubig {
        let k = self.k;
        let n = self.n.limbs();
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0inv);
            // t += m * n << (64*i)
            let carry = limbs::mul_add_assign(&mut t[i..], n, m);
            debug_assert_eq!(carry, 0, "t buffer sized to absorb all carries");
        }
        let mut r = Ubig::from_limbs(t[k..].to_vec());
        if r >= self.n {
            r = r.checked_sub(&self.n).unwrap();
        }
        r
    }

    /// `base^e mod n` using a fixed 4-bit window.
    ///
    /// `base` must already be reduced (`base < n`).
    pub fn pow(&self, base: &Ubig, e: &Ubig) -> Ubig {
        if e.is_zero() {
            return Ubig::one().rem_ref(&self.n);
        }
        let bm = self.to_mont(base);
        // Precompute base^0..base^15 in Montgomery form.
        let mut table = Vec::with_capacity(16);
        table.push(self.one());
        for i in 1..16 {
            let prev: &MontForm = &table[i - 1];
            table.push(self.mul(prev, &bm));
        }
        let bits = e.bit_length();
        let mut acc = self.one();
        let mut started = false;
        // Process 4-bit windows from the most significant end. Squarings are
        // skipped until the first non-zero window (acc is still 1 there).
        let top_window = bits.div_ceil(4);
        for w in (0..top_window).rev() {
            if started {
                for _ in 0..4 {
                    acc = self.sqr(&acc);
                }
            }
            let mut nibble = 0usize;
            for b in 0..4 {
                let bit_idx = w * 4 + b;
                if bit_idx < bits && e.bit(bit_idx) {
                    nibble |= 1 << b;
                }
            }
            if nibble != 0 {
                acc = self.mul(&acc, &table[nibble]);
                started = true;
            }
        }
        debug_assert!(started, "non-zero exponent must set a window");
        self.from_mont(&acc)
    }

    /// `a^x · b^y mod n` in one interleaved (Straus/Shamir) pass: both
    /// exponents are recoded into odd sliding windows and share a single
    /// squaring chain, so the cost is `max(|x|, |y|)` squarings plus about
    /// `|x|/(w+1) + |y|/(w+1)` multiplies — close to one exponentiation
    /// instead of two plus a product.
    ///
    /// `a` and `b` must already be reduced (`< n`).
    pub(crate) fn pow2(&self, a: &Ubig, x: &Ubig, b: &Ubig, y: &Ubig) -> Ubig {
        let (da, ta) = self.odd_windows(a, x);
        let (db, tb) = self.odd_windows(b, y);
        let mut acc: Option<MontForm> = None;
        for i in (0..da.len().max(db.len())).rev() {
            if let Some(v) = acc.as_mut() {
                *v = self.sqr(v);
            }
            for (digits, table) in [(&da, &ta), (&db, &tb)] {
                let d = digits.get(i).copied().unwrap_or(0);
                if d != 0 {
                    let t = &table[usize::from(d >> 1)];
                    acc = Some(match acc {
                        Some(v) => self.mul(&v, t),
                        None => t.clone(),
                    });
                }
            }
        }
        match acc {
            Some(v) => self.from_mont(&v),
            None => Ubig::one().rem_ref(&self.n),
        }
    }

    /// Sliding-window recoding of `e` plus the odd-power table it indexes:
    /// `digits[i]` is the odd window value whose lowest bit is bit `i` (or
    /// 0), so `e = Σ digits[i]·2^i`, and `table[k] = base^(2k+1)`.
    fn odd_windows(&self, base: &Ubig, e: &Ubig) -> (Vec<u8>, Vec<MontForm>) {
        let bits = e.bit_length();
        if bits == 0 {
            return (Vec::new(), Vec::new());
        }
        let w = match bits {
            0..=24 => 2,
            25..=80 => 3,
            81..=240 => 4,
            _ => 5,
        };
        let mut digits = vec![0u8; bits as usize];
        let mut top = bits;
        while top > 0 {
            if !e.bit(top - 1) {
                top -= 1;
                continue;
            }
            // The window spans bits low..top, ending on a set bit.
            let mut low = top.saturating_sub(w);
            while !e.bit(low) {
                low += 1;
            }
            digits[low as usize] = (low..top)
                .rev()
                .fold(0u8, |v, b| (v << 1) | u8::from(e.bit(b)));
            top = low;
        }
        let bm = self.to_mont(base);
        let b2 = self.sqr(&bm);
        let mut table = Vec::with_capacity(1 << (w - 1));
        table.push(bm);
        for k in 1..1usize << (w - 1) {
            table.push(self.mul(&table[k - 1], &b2));
        }
        (digits, table)
    }
}

/// Inverse of an odd `x` modulo 2^64 by Newton–Hensel lifting.
fn inv64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    // Each iteration doubles the number of correct low bits.
    let mut inv = x; // correct mod 2^3 already after first iterations below
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::mod_pow;

    #[test]
    fn inv64_is_inverse() {
        for x in [1u64, 3, 5, 0xdead_beef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv64(x)), 1, "x = {x}");
        }
    }

    #[test]
    fn roundtrip_mont_form() {
        let n = Ubig::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let m = Montgomery::new(n.clone());
        let a = Ubig::from_hex("123456789abcdef0123456789abcdef").unwrap();
        assert_eq!(m.from_mont(&m.to_mont(&a)), a);
    }

    #[test]
    fn mont_mul_matches_plain() {
        let n = Ubig::from_hex("f0000000000000000000000000000001").unwrap();
        let m = Montgomery::new(n.clone());
        let a = Ubig::from_hex("deadbeefcafebabe").unwrap();
        let b = Ubig::from_hex("0123456789abcdef0011223344556677").unwrap();
        let am = m.to_mont(&a);
        let bm = m.to_mont(&b.rem_ref(&n));
        let prod = m.from_mont(&m.mul(&am, &bm));
        assert_eq!(prod, crate::modular::mod_mul(&a, &b, &n));
    }

    #[test]
    fn pow_matches_small_modulus() {
        let n = Ubig::from_u64(1000003); // odd prime
        let m = Montgomery::new(n.clone());
        let base = Ubig::from_u64(123456);
        let e = Ubig::from_u64(789);
        let expect = {
            // plain repeated multiplication
            let mut acc = Ubig::one();
            for _ in 0..789 {
                acc = crate::modular::mod_mul(&acc, &base, &n);
            }
            acc
        };
        assert_eq!(m.pow(&base, &e), expect);
    }

    #[test]
    fn pow2_matches_two_pows() {
        let n = Ubig::from_u64(1_000_003);
        let m = Montgomery::new(n.clone());
        let (a, b) = (Ubig::from_u64(123_456), Ubig::from_u64(999_999));
        // Exponents for every window width (2 to 5 bits); only windows of
        // 4 bits or more have digits whose bit order matters.
        let exps: Vec<Ubig> = [
            "0",
            "1",
            "6",
            "b",
            "13b",
            "deadbeefcafe",
            "1a636a0be83d924dc0e43f27f",
            "ffeeddccbbaa99887766554433221100aabbccdd",
            "b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3b3",
        ]
        .iter()
        .map(|h| Ubig::from_hex(h).unwrap())
        .collect();
        for x in &exps {
            for y in &exps {
                let expect = crate::modular::mod_mul(&m.pow(&a, x), &m.pow(&b, y), &n);
                assert_eq!(m.pow2(&a, x, &b, y), expect, "x {x:?} y {y:?}");
            }
        }
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let n = Ubig::from_u64(9973);
        let m = Montgomery::new(n);
        assert_eq!(m.pow(&Ubig::from_u64(5), &Ubig::zero()), Ubig::one());
    }

    #[test]
    fn pow_large_modulus_consistency() {
        // mod_pow dispatches to Montgomery; cross-check against the even-path
        // implementation by lifting to an even modulus identity:
        // a^e mod n computed two ways.
        let n = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            .unwrap();
        let n = if n.is_even() {
            n.add_ref(&Ubig::one())
        } else {
            n
        };
        let a = Ubig::from_hex("aabbccddeeff00112233445566778899").unwrap();
        let e = Ubig::from_u64(65537);
        let fast = mod_pow(&a, &e, &n);
        // square-and-multiply reference
        let mut acc = Ubig::one();
        for i in (0..e.bit_length()).rev() {
            acc = crate::modular::mod_mul(&acc, &acc, &n);
            if e.bit(i) {
                acc = crate::modular::mod_mul(&acc, &a, &n);
            }
        }
        assert_eq!(fast, acc);
    }
}
