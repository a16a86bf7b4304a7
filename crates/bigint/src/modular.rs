//! Modular arithmetic on [`Ubig`]: add/sub/mul/pow mod m, gcd, inverse,
//! Jacobi symbol.

use crate::ubig::Ubig;

/// `(a + b) mod m`. Operands need not be reduced.
pub fn mod_add(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    (a.add_ref(b)).rem_ref(m)
}

/// `(a - b) mod m`. Operands need not be reduced.
pub fn mod_sub(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    let a = a.rem_ref(m);
    let b = b.rem_ref(m);
    if a >= b {
        a.checked_sub(&b).unwrap()
    } else {
        m.checked_sub(&b).unwrap().add_ref(&a)
    }
}

/// `(a * b) mod m`.
pub fn mod_mul(a: &Ubig, b: &Ubig, m: &Ubig) -> Ubig {
    a.mul_ref(b).rem_ref(m)
}

/// `a^e mod m`.
///
/// Dispatches to Montgomery exponentiation for odd moduli (the common case
/// throughout this workspace), reusing interned contexts from
/// [`crate::fixed::mont_ctx`], and falls back to binary square-and-multiply
/// with explicit reductions for even moduli.
///
/// # Panics
/// Panics if `m` is zero or one.
pub fn mod_pow(a: &Ubig, e: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero() && !m.is_one(), "modulus must be > 1");
    if e.is_zero() {
        return Ubig::one();
    }
    if m.is_odd() {
        return crate::fixed::mont_ctx(m).pow(&a.rem_ref(m), e);
    }
    // Even modulus: plain left-to-right square-and-multiply.
    let mut base = a.rem_ref(m);
    let mut acc = Ubig::one();
    for i in (0..e.bit_length()).rev() {
        acc = mod_mul(&acc, &acc, m);
        if e.bit(i) {
            acc = mod_mul(&acc, &base, m);
        }
    }
    let _ = &mut base;
    acc
}

/// `a^x · b^y mod m` by one joint exponentiation.
///
/// Odd moduli take one Straus/Shamir pass on the interned Montgomery
/// context: both exponents in odd sliding windows over one shared squaring
/// chain. Even moduli fall back to two [`mod_pow`] calls and a product.
/// Bases need not be reduced.
///
/// # Panics
/// Panics if `m` is zero or one.
pub fn mod_pow2(a: &Ubig, x: &Ubig, b: &Ubig, y: &Ubig, m: &Ubig) -> Ubig {
    assert!(!m.is_zero() && !m.is_one(), "modulus must be > 1");
    if m.is_even() {
        return mod_mul(&mod_pow(a, x, m), &mod_pow(b, y, m), m);
    }
    crate::fixed::mont_ctx(m).pow2(&a.rem_ref(m), x, &b.rem_ref(m), y)
}

/// Greatest common divisor (binary GCD).
pub fn gcd(a: &Ubig, b: &Ubig) -> Ubig {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let mut a = a.clone();
    let mut b = b.clone();
    let az = a.trailing_zeros().unwrap();
    let bz = b.trailing_zeros().unwrap();
    let common = az.min(bz);
    a = a.shr_bits(az);
    b = b.shr_bits(bz);
    // Both odd from here on.
    loop {
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b = b.checked_sub(&a).unwrap();
        if b.is_zero() {
            return a.shl_bits(common);
        }
        b = b.shr_bits(b.trailing_zeros().unwrap());
    }
}

/// A signed magnitude pair used internally by the extended Euclid loop.
#[derive(Clone)]
struct Signed {
    negative: bool,
    mag: Ubig,
}

impl Signed {
    fn from_ubig(mag: Ubig) -> Self {
        Signed {
            negative: false,
            mag,
        }
    }

    /// `self - q * other`.
    fn sub_mul(&self, q: &Ubig, other: &Signed) -> Signed {
        let prod = q.mul_ref(&other.mag);
        if self.negative == other.negative {
            // same sign: magnitudes subtract
            if self.mag >= prod {
                Signed {
                    negative: self.negative && (self.mag != prod),
                    mag: self.mag.checked_sub(&prod).unwrap(),
                }
            } else {
                Signed {
                    negative: !self.negative,
                    mag: prod.checked_sub(&self.mag).unwrap(),
                }
            }
        } else {
            // opposite sign: magnitudes add, sign follows self
            Signed {
                negative: self.negative,
                mag: self.mag.add_ref(&prod),
            }
        }
    }
}

/// Extended Euclid: returns `(g, x)` with `a*x ≡ g (mod m)` where
/// `g = gcd(a, m)` and `0 <= x < m`.
pub fn ext_gcd_mod(a: &Ubig, m: &Ubig) -> (Ubig, Ubig) {
    assert!(!m.is_zero(), "modulus must be non-zero");
    let mut old_r = a.rem_ref(m);
    let mut r = m.clone();
    let mut old_s = Signed::from_ubig(Ubig::one());
    let mut s = Signed::from_ubig(Ubig::zero());
    while !r.is_zero() {
        let (q, rem) = old_r.div_rem(&r);
        let new_s = old_s.sub_mul(&q, &s);
        old_r = core::mem::replace(&mut r, rem);
        old_s = core::mem::replace(&mut s, new_s);
    }
    // old_s may be negative or >= m; normalize into [0, m).
    let coeff = if old_s.negative {
        let red = old_s.mag.rem_ref(m);
        if red.is_zero() {
            red
        } else {
            m.checked_sub(&red).unwrap()
        }
    } else {
        old_s.mag.rem_ref(m)
    };
    (old_r, coeff)
}

/// Modular inverse: `a^-1 mod m`, or `None` when `gcd(a, m) != 1`.
pub fn mod_inverse(a: &Ubig, m: &Ubig) -> Option<Ubig> {
    let (g, x) = ext_gcd_mod(a, m);
    if g.is_one() {
        Some(x)
    } else {
        None
    }
}

/// Jacobi symbol `(a/n)` for odd `n > 0`. Returns -1, 0 or 1.
///
/// # Panics
/// Panics if `n` is even or zero.
pub fn jacobi(a: &Ubig, n: &Ubig) -> i32 {
    assert!(n.is_odd(), "Jacobi symbol requires odd n");
    let mut a = a.rem_ref(n);
    let mut n = n.clone();
    let mut result = 1i32;
    while !a.is_zero() {
        let tz = a.trailing_zeros().unwrap();
        if tz % 2 == 1 {
            let n_mod8 = n.low_u64() & 7;
            if n_mod8 == 3 || n_mod8 == 5 {
                result = -result;
            }
        }
        a = a.shr_bits(tz);
        // quadratic reciprocity flip
        if (a.low_u64() & 3 == 3) && (n.low_u64() & 3 == 3) {
            result = -result;
        }
        core::mem::swap(&mut a, &mut n);
        a = a.rem_ref(&n);
    }
    if n.is_one() {
        result
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Ubig {
        Ubig::from_u64(v)
    }

    #[test]
    fn mod_add_wraps() {
        assert_eq!(mod_add(&u(7), &u(8), &u(10)), u(5));
    }

    #[test]
    fn mod_sub_handles_underflow() {
        assert_eq!(mod_sub(&u(3), &u(8), &u(10)), u(5));
        assert_eq!(mod_sub(&u(8), &u(3), &u(10)), u(5));
    }

    #[test]
    fn mod_pow_small_cases() {
        assert_eq!(mod_pow(&u(2), &u(10), &u(1000)), u(24));
        assert_eq!(mod_pow(&u(3), &u(0), &u(7)), u(1));
        assert_eq!(mod_pow(&u(0), &u(5), &u(7)), u(0));
    }

    #[test]
    fn mod_pow_even_modulus() {
        // 3^5 = 243 = 243 mod 1024
        assert_eq!(mod_pow(&u(3), &u(5), &u(1024)), u(243));
    }

    #[test]
    fn mod_pow_fermat() {
        // Fermat's little theorem with a 61-bit prime.
        let p = u(2305843009213693951); // 2^61 - 1, prime
        let a = u(1234567890123456789);
        let e = p.checked_sub(&u(1)).unwrap();
        assert_eq!(mod_pow(&a, &e, &p), u(1));
    }

    #[test]
    fn mod_pow2_small_cases() {
        // 2^10 · 3^5 = 1024 · 243 = 248832
        assert_eq!(
            mod_pow2(&u(2), &u(10), &u(3), &u(5), &u(1_000_003)),
            u(248_832)
        );
        assert_eq!(mod_pow2(&u(2), &u(0), &u(3), &u(0), &u(7)), u(1));
        assert_eq!(mod_pow2(&u(0), &u(5), &u(3), &u(2), &u(7)), u(0));
        // Even modulus and unreduced bases.
        assert_eq!(mod_pow2(&u(1027), &u(5), &u(1), &u(9), &u(1024)), u(243));
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(&u(48), &u(36)), u(12));
        assert_eq!(gcd(&u(17), &u(5)), u(1));
        assert_eq!(gcd(&u(0), &u(9)), u(9));
        assert_eq!(gcd(&u(9), &u(0)), u(9));
    }

    #[test]
    fn inverse_times_self_is_one() {
        let m = u(2305843009213693951);
        let a = u(987654321987654321);
        let inv = mod_inverse(&a, &m).unwrap();
        assert_eq!(mod_mul(&a, &inv, &m), u(1));
    }

    #[test]
    fn inverse_of_non_coprime_is_none() {
        assert!(mod_inverse(&u(6), &u(9)).is_none());
    }

    #[test]
    fn inverse_large() {
        let m = Ubig::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        let a = Ubig::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        if let Some(inv) = mod_inverse(&a, &m) {
            assert_eq!(mod_mul(&a, &inv, &m), Ubig::one());
        }
    }

    #[test]
    fn jacobi_matches_legendre_for_prime() {
        // p = 23; quadratic residues mod 23: {1,2,3,4,6,8,9,12,13,16,18}
        let p = u(23);
        let qr = [1u64, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18];
        for a in 1..23u64 {
            let expected = if qr.contains(&a) { 1 } else { -1 };
            assert_eq!(jacobi(&u(a), &p), expected, "a = {a}");
        }
        assert_eq!(jacobi(&u(0), &p), 0);
        assert_eq!(jacobi(&u(23), &p), 0);
    }
}
