//! Property tests on the elliptic-curve substrate: field axioms, curve
//! group laws (on both the exhaustive toy curve and secp160r1), point
//! compression, pairing bilinearity, and every scalar-multiplication entry
//! point against a double-and-add reference on every curve in the tree.

use std::sync::OnceLock;

use egka_bigint::{mod_add, mod_mul, Ubig};
use egka_ec::{secp160r1, secp192r1, secp256k1, tiny19, Curve, Fp, PairingGroup, Point};
use egka_hash::ChaChaRng;
use proptest::prelude::*;
use rand::SeedableRng;

fn fp160() -> Fp {
    secp160r1().field().clone()
}

/// Deterministic pseudo-element of a field from a u64 seed.
fn elem(f: &Fp, seed: u64) -> Ubig {
    f.reduce(
        &Ubig::from_u64(seed).mul_ref(&Ubig::from_hex("9e3779b97f4a7c15f39cc0605cedc835").unwrap()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn field_ring_axioms(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let f = fp160();
        let (a, b, c) = (elem(&f, a), elem(&f, b), elem(&f, c));
        // commutativity + associativity + distributivity
        prop_assert_eq!(f.add(&a, &b), f.add(&b, &a));
        prop_assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
        prop_assert_eq!(f.add(&f.add(&a, &b), &c), f.add(&a, &f.add(&b, &c)));
        prop_assert_eq!(f.mul(&f.mul(&a, &b), &c), f.mul(&a, &f.mul(&b, &c)));
        prop_assert_eq!(
            f.mul(&a, &f.add(&b, &c)),
            f.add(&f.mul(&a, &b), &f.mul(&a, &c))
        );
        // additive/multiplicative inverses
        prop_assert!(f.add(&a, &f.neg(&a)).is_zero());
        if !a.is_zero() {
            prop_assert!(f.mul(&a, &f.inv(&a).unwrap()).is_one());
        }
        // squares have roots (p ≡ 3 mod 4)
        let sq = f.sqr(&a);
        let r = f.sqrt(&sq).unwrap();
        prop_assert_eq!(f.sqr(&r), sq);
    }

    #[test]
    fn scalar_mul_is_homomorphic(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
        let c = secp160r1();
        let (ka, kb) = (Ubig::from_u64(a), Ubig::from_u64(b));
        // (a+b)G = aG + bG
        let sum = mod_add(&ka, &kb, c.order());
        prop_assert_eq!(
            c.mul_gen(&sum),
            c.add(&c.mul_gen(&ka), &c.mul_gen(&kb))
        );
        // a(bG) = (ab)G
        let prod = mod_mul(&ka, &kb, c.order());
        let bg = c.mul_gen(&kb);
        prop_assert_eq!(c.mul(&ka, &bg), c.mul_gen(&prod));
    }

    #[test]
    fn points_stay_on_curve_and_compress(k in 1u64..u64::MAX) {
        let c = secp160r1();
        let p = c.mul_gen(&Ubig::from_u64(k));
        prop_assert!(c.is_on_curve(&p));
        prop_assert_eq!(c.decompress(&c.compress(&p)), Some(p));
    }

    #[test]
    fn tiny_curve_full_group_law(i in 0u64..21, j in 0u64..21) {
        let c: Curve = tiny19();
        let g = c.generator().clone();
        let p = c.mul_raw(&Ubig::from_u64(i), &g);
        let q = c.mul_raw(&Ubig::from_u64(j), &g);
        let direct = c.add(&p, &q);
        let via_scalar = c.mul_raw(&Ubig::from_u64(i + j), &g);
        prop_assert_eq!(direct, via_scalar);
        // negation: P + (−P) = ∞
        prop_assert!(c.add(&p, &c.neg(&p)).is_infinity());
    }
}

proptest! {
    // Pairings are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pairing_bilinearity(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let mut rng = ChaChaRng::seed_from_u64(0x70726f70);
        let g = egka_ec::gen_pairing_group(&mut rng, 80, 48);
        let gen: Point = g.curve().generator().clone();
        let (ka, kb) = (Ubig::from_u64(a), Ubig::from_u64(b));
        let lhs = g.pairing(&g.curve().mul(&ka, &gen), &g.curve().mul(&kb, &gen));
        let ab = mod_mul(&ka, &kb, g.order());
        let rhs = g.fp2().pow(&g.pairing(&gen, &gen), &ab);
        prop_assert_eq!(lhs, rhs);
    }
}

// -------------------------------------------------------------------------
// Reference equivalence: every scalar-multiplication entry point (the wNAF
// walk behind `mul`/`mul_raw`, the fixed-base comb behind `mul_gen`, the
// Straus interleaving behind `mul_multi`/`mul_mul_add`) must agree with
// textbook MSB-first double-and-add on the public affine group law — on
// random scalars and on the order-boundary edge cases where window and comb
// bookkeeping is most likely to slip. Curves: secp160r1, secp192r1,
// secp256k1, the 194-bit pairing fixture, a small generated pairing curve,
// and tiny19 exhaustively.

/// Textbook double-and-add. Deliberately the dumbest correct algorithm: no
/// windows, no NAF, no comb — one double per bit, one add per set bit.
fn naive_mul(c: &Curve, k: &Ubig, p: &Point) -> Point {
    let mut acc = Point::Infinity;
    for bit in (0..k.bit_length()).rev() {
        acc = c.double(&acc);
        if k.bit(bit) {
            acc = c.add(&acc, p);
        }
    }
    acc
}

/// `Σ (kᵢ mod n)·Pᵢ` by the naive reference, the semantics of `mul_multi`.
fn naive_multi(c: &Curve, terms: &[(Ubig, Point)]) -> Point {
    terms.iter().fold(Point::Infinity, |acc, (k, p)| {
        c.add(&acc, &naive_mul(c, &k.rem_ref(c.order()), p))
    })
}

/// `0, 1, n−1, n, n+1` — the scalars that straddle the subgroup order.
fn edge_scalars(c: &Curve) -> Vec<Ubig> {
    let n = c.order();
    vec![
        Ubig::zero(),
        Ubig::one(),
        n.checked_sub(&Ubig::one()).unwrap(),
        n.clone(),
        n.add_ref(&Ubig::one()),
    ]
}

/// A `bits`-bit pseudo-random scalar from a seed.
fn wide_scalar(seed: u64, bits: u32) -> Ubig {
    let mut rng = ChaChaRng::seed_from_u64(seed);
    egka_bigint::random_bits(&mut rng, bits)
}

fn pairing_fixture_curve() -> &'static Curve {
    static C: OnceLock<Curve> = OnceLock::new();
    C.get_or_init(|| PairingGroup::paper_fixture().curve().clone())
}

fn small_pairing_curve() -> &'static Curve {
    static C: OnceLock<Curve> = OnceLock::new();
    C.get_or_init(|| {
        let mut rng = ChaChaRng::seed_from_u64(0x6567_6b61);
        egka_ec::gen_pairing_group(&mut rng, 96, 64).curve().clone()
    })
}

/// Every curve in the tree except tiny19 (which has its own exhaustive
/// test).
fn real_curves() -> Vec<Curve> {
    vec![
        secp160r1(),
        secp192r1(),
        secp256k1(),
        pairing_fixture_curve().clone(),
        small_pairing_curve().clone(),
    ]
}

/// Asserts every accelerated path matches the naive reference for `k·p`:
/// `mul`, `mul_gen` (when `p` is the generator), one-term `mul_multi` and
/// a split `mul_mul_add` reduce `k` mod the order; `mul_raw` does not.
fn assert_ladders_match(c: &Curve, k: &Ubig, p: &Point) {
    let reduced = k.rem_ref(c.order());
    let want = naive_mul(c, &reduced, p);
    let name = c.name;
    assert_eq!(
        c.mul(k, p),
        want,
        "{name}: mul disagrees with double-and-add"
    );
    let raw = if &reduced == k {
        want.clone()
    } else {
        naive_mul(c, k, p)
    };
    assert_eq!(
        c.mul_raw(k, p),
        raw,
        "{name}: mul_raw disagrees with double-and-add"
    );
    if p == c.generator() {
        assert_eq!(
            c.mul_gen(k),
            want,
            "{name}: mul_gen disagrees with double-and-add"
        );
    }
    assert_eq!(c.mul_multi(&[(k, p)]), want, "{name}: mul_multi disagrees");
    // ⌊k/2⌋·P + ⌈k/2⌉·P equals k·P (the doubling case of the interleave).
    let half = reduced.shr_bits(1);
    let rest = reduced.checked_sub(&half).unwrap();
    assert_eq!(
        c.mul_mul_add(&half, p, &rest, p),
        want,
        "{name}: mul_mul_add disagrees with double-and-add"
    );
}

#[test]
fn ladders_match_naive_on_edge_scalars() {
    for c in real_curves().into_iter().chain([tiny19()]) {
        let g = c.generator().clone();
        let q = c.mul_gen(&Ubig::from_u64(0x9e37_79b9));
        for k in edge_scalars(&c) {
            assert_ladders_match(&c, &k, &g);
            assert_ladders_match(&c, &k, &q);
        }
    }
}

#[test]
fn multi_scalar_sums_that_cancel_are_infinity() {
    for c in real_curves() {
        let g = c.generator().clone();
        let q = c.mul_gen(&Ubig::from_u64(0x9e37_79b9));
        let neg_q = c.neg(&q);
        let n = c.order();
        let k = wide_scalar(0xca9ce1, n.bit_length() - 1);
        let n_minus_k = n.checked_sub(&k).unwrap();
        // k·P + (n−k)·P = ∞ and k·P + k·(−P) = ∞, on G and on a key.
        assert!(c.mul_multi(&[(&k, &q), (&n_minus_k, &q)]).is_infinity());
        assert!(c.mul_multi(&[(&k, &q), (&k, &neg_q)]).is_infinity());
        assert!(c.mul_mul_add(&k, &g, &n_minus_k, &g).is_infinity());
        // A cancelling pair leaves exactly the third term.
        let three = [(&k, &q), (&k, &neg_q), (&n_minus_k, &g)];
        assert_eq!(c.mul_multi(&three), naive_mul(&c, &n_minus_k, &g));
        assert!(c.mul_multi(&[]).is_infinity());
        assert!(c.mul_multi(&[(&k, &Point::Infinity)]).is_infinity());
    }
}

#[test]
fn pairing_curves_walk_two_torsion_and_off_subgroup_points() {
    // y² = x³ + x has the 2-torsion point (0, 0) and points of order
    // dividing p + 1 outside the q-subgroup; mul_raw walks them unreduced.
    for c in [pairing_fixture_curve(), small_pairing_curve()] {
        let t = Point::affine(Ubig::zero(), Ubig::zero());
        assert!(c.is_on_curve(&t));
        for k in [0u64, 1, 2, 3, 4, 5, 17, 18] {
            let k = Ubig::from_u64(k);
            assert_eq!(c.mul_raw(&k, &t), naive_mul(c, &k, &t), "{}", c.name);
        }
        let f = c.field();
        let mut x = Ubig::from_u64(2);
        let off = loop {
            let rhs = f.add(&f.mul(&f.sqr(&x), &x), &x);
            if let Some(y) = f.sqrt(&rhs) {
                break Point::affine(x, y);
            }
            x = x.add_ref(&Ubig::one());
        };
        let p_plus_1 = f.modulus().add_ref(&Ubig::one());
        assert!(c.mul_raw(&p_plus_1, &off).is_infinity());
        let p = p_plus_1.checked_sub(&Ubig::one()).unwrap();
        assert_eq!(c.mul_raw(&p, &off), c.neg(&off));
        for k in [
            c.cofactor().clone(),
            wide_scalar(1, p_plus_1.bit_length()),
            wide_scalar(2, p_plus_1.bit_length() + 40),
        ] {
            assert_eq!(c.mul_raw(&k, &off), naive_mul(c, &k, &off), "{}", c.name);
        }
    }
}

#[test]
fn tiny19_every_point_and_scalar() {
    let c = tiny19();
    let p = c.field().modulus().to_u64().unwrap();
    let mut points = vec![Point::Infinity];
    for x in 0..p {
        for y in 0..p {
            let pt = Point::affine(Ubig::from_u64(x), Ubig::from_u64(y));
            if c.is_on_curve(&pt) {
                points.push(pt);
            }
        }
    }
    assert_eq!(points.len(), 21);
    for pt in &points {
        for k in 0..=64u64 {
            assert_ladders_match(&c, &Ubig::from_u64(k), pt);
        }
    }
    // Every two-term combination, including sums that land on ∞ and the
    // doubling case P = Q.
    for (i, p1) in points.iter().enumerate() {
        for p2 in &points[i..] {
            for k1 in 0..22u64 {
                for k2 in 0..22u64 {
                    let (k1, k2) = (Ubig::from_u64(k1), Ubig::from_u64(k2));
                    let want =
                        naive_multi(&c, &[(k1.clone(), p1.clone()), (k2.clone(), p2.clone())]);
                    assert_eq!(c.mul_mul_add(&k1, p1, &k2, p2), want);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ladders_match_naive_on_random_scalars(seed in any::<u64>()) {
        for c in [tiny19(), secp160r1()] {
            let g = c.generator().clone();
            // Stretch the u64 across the full scalar width so high comb
            // columns are exercised, not just the low 64 bits.
            let wide = elem(c.field(), seed);
            assert_ladders_match(&c, &wide, &g);
            assert_ladders_match(&c, &Ubig::from_u64(seed), &g);
        }
    }

    #[test]
    fn mul_mul_add_matches_naive_on_distinct_points(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
        let c = secp160r1();
        let g = c.generator().clone();
        let (ka, kb) = (Ubig::from_u64(a), Ubig::from_u64(b));
        let q = c.mul_gen(&Ubig::from_u64(0x9e37_79b9));
        let want = c.add(&naive_mul(&c, &ka, &g), &naive_mul(&c, &kb, &q));
        prop_assert_eq!(c.mul_mul_add(&ka, &g, &kb, &q), want);
    }
}

proptest! {
    // The reference costs an inversion per step on 256-bit curves; fewer
    // cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_curve_matches_naive_on_random_scalars(seed in any::<u64>(), extra in 1u32..70) {
        for c in real_curves() {
            let bits = c.order().bit_length();
            let g = c.generator().clone();
            let q = c.mul_gen(&wide_scalar(seed ^ 0x51, bits));
            // Below the order, and wider than it (reduced by mul/mul_gen,
            // walked whole by mul_raw).
            for k in [wide_scalar(seed, bits - 1), wide_scalar(seed ^ 0xa5, bits + extra)] {
                assert_ladders_match(&c, &k, &g);
                assert_ladders_match(&c, &k, &q);
            }
        }
    }

    #[test]
    fn multi_scalar_sums_match_naive(seed in any::<u64>(), m in 1u64..5) {
        for c in real_curves() {
            let bits = c.order().bit_length();
            let mut terms: Vec<(Ubig, Point)> = (0..m)
                .map(|i| {
                    let p = c.mul_gen(&wide_scalar(seed ^ (i << 8), bits));
                    (wide_scalar(seed ^ (i << 16) ^ 0x77, bits + 8), p)
                })
                .collect();
            terms.push((wide_scalar(seed ^ 0xfeed, bits), c.generator().clone()));
            let refs: Vec<(&Ubig, &Point)> = terms.iter().map(|(k, p)| (k, p)).collect();
            prop_assert_eq!(c.mul_multi(&refs), naive_multi(&c, &terms), "{}", c.name);
        }
    }
}

#[test]
fn fixture_pairing_group_is_reusable() {
    // Not a proptest (expensive); pins that the 194-bit fixture behaves.
    let g = PairingGroup::paper_fixture();
    let p = g.map_to_point(b"prop-fixture");
    assert!(g.curve().is_on_curve(&p));
    assert!(g.curve().mul_raw(g.order(), &p).is_infinity());
}
