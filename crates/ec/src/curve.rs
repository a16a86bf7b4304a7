//! Short-Weierstrass elliptic curves `y² = x³ + a·x + b` over a prime field.
//!
//! Points are exposed in affine `Ubig` coordinates ([`Point`]); the affine
//! group law ([`Curve::add`], [`Curve::double`]), membership and SEC1
//! compression run on the public [`Fp`]. Scalar multiplication, where
//! essentially all curve time is spent (ECDSA and SOK signing/verifying,
//! subgroup checks), runs on the crate-private fixed-width Montgomery field
//! instead, converting to and from `Ubig` only at the `Point` boundary:
//!
//! * Jacobian coordinates with mixed (Jacobian + affine) additions;
//! * width-`w` wNAF digits recoded straight from the scalar's limbs;
//! * odd-multiples tables built in Jacobian form and normalised with one
//!   batched inversion (Montgomery's trick) per call;
//! * for the generator, a Lim–Lee comb ([`Curve::mul_gen`]) and a wide wNAF
//!   table ([`Curve::mul_multi`]'s generator term), built once and shared
//!   by every clone of the curve.

use std::sync::{Arc, OnceLock};

use egka_bigint::Ubig;
use rand::Rng;

use crate::field::{is_zero, Fp, Limbs, MontField, MAX_LIMBS};

/// An affine curve point, or the point at infinity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Point {
    /// The identity element.
    Infinity,
    /// An affine point `(x, y)`.
    Affine {
        /// x-coordinate, reduced mod `p`.
        x: Ubig,
        /// y-coordinate, reduced mod `p`.
        y: Ubig,
    },
}

impl Point {
    /// Convenience constructor.
    pub fn affine(x: Ubig, y: Ubig) -> Self {
        Point::Affine { x, y }
    }

    /// True iff this is the identity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Point::Infinity)
    }

    /// The affine coordinates, or `None` for infinity.
    pub fn xy(&self) -> Option<(&Ubig, &Ubig)> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, y } => Some((x, y)),
        }
    }
}

/// A finite affine point in Montgomery form.
#[derive(Clone, Copy, Debug)]
struct Aff {
    x: Limbs,
    y: Limbs,
}

/// Jacobian coordinates `(X : Y : Z)` representing `(X/Z², Y/Z³)`, in
/// Montgomery form; `Z = 0` is the point at infinity.
#[derive(Clone, Copy)]
struct Jac {
    x: Limbs,
    y: Limbs,
    z: Limbs,
}

const INFINITY: Jac = Jac {
    x: [0; MAX_LIMBS],
    y: [0; MAX_LIMBS],
    z: [0; MAX_LIMBS],
};

/// wNAF width for a variable point: digits odd in `(−8, 8)`, so the table
/// is `P, 3P, 5P, 7P`.
const VAR_W: u32 = 4;

/// wNAF width for the generator's cached table `G, 3G, …, 63G`: built once
/// per curve, so a wider window only saves additions.
const GEN_W: u32 = 7;

/// A short-Weierstrass curve with a distinguished prime-order subgroup.
#[derive(Clone, Debug)]
pub struct Curve {
    /// Curve name (for display/debug).
    pub name: &'static str,
    field: Fp,
    a: Ubig,
    b: Ubig,
    /// Order of the distinguished subgroup generated by `gen`.
    order: Ubig,
    /// Cofactor `#E / order`.
    cofactor: Ubig,
    gen: Point,
    /// True when `a ≡ -3 (mod p)`, enabling the faster doubling formula.
    a_is_minus_3: bool,
    /// The scalar-multiplication state; clones share it (`Arc`).
    mont: Arc<MontCurve>,
}

/// What scalar multiplication needs beyond the public parameters: the
/// field in fixed-width Montgomery form, `a` in that form, and the lazily
/// built generator tables.
#[derive(Debug)]
struct MontCurve {
    field: MontField,
    a: Limbs,
    gen_tables: OnceLock<GenTables>,
}

/// Precomputed affine multiples of the generator, in Montgomery form.
///
/// * A Lim–Lee comb for [`Curve::mul_gen`]: the scalar (up to `order`
///   bits) is viewed as [`GenTables::TEETH`] rows of `cols` bits, and
///   `comb[t − 1] = (Σ_{j ∈ t} 2^{j·cols}) · G` for every non-empty tooth
///   subset `t`. Evaluation is `cols` doublings + at most `cols` mixed
///   additions — roughly `TEETH`× fewer doublings than a wNAF walk.
/// * The odd multiples `G, 3G, …` of a width-[`GEN_W`] wNAF, used for the
///   generator term of [`Curve::mul_multi`] (ECDSA's `u1·G`), so a
///   verification builds only the public key's table.
///
/// Entries are `None` where a multiple is `∞` (tiny curves).
#[derive(Debug)]
struct GenTables {
    cols: u32,
    comb: Vec<Option<Aff>>,
    odd: Vec<Option<Aff>>,
}

impl GenTables {
    const TEETH: u32 = 8;

    /// Builds both tables in Jacobian form and normalises them with one
    /// inversion.
    fn new(curve: &Curve) -> Self {
        let g = curve.to_jac(&curve.gen);
        let bits = curve.order.bit_length().max(1);
        let cols = bits.div_ceil(Self::TEETH);
        // powers[j] = 2^(j·cols) · G
        let mut powers = Vec::with_capacity(Self::TEETH as usize);
        powers.push(g);
        for j in 1..Self::TEETH as usize {
            let mut p = powers[j - 1];
            for _ in 0..cols {
                p = curve.jac_double(&p);
            }
            powers.push(p);
        }
        // Subset sums, each built from a smaller subset with one addition,
        // followed by the odd multiples.
        let comb_len = (1usize << Self::TEETH) - 1;
        let mut jac = Vec::with_capacity(comb_len + (1 << (GEN_W - 2)));
        for t in 1..=comb_len {
            let low = t.trailing_zeros() as usize;
            let rest = t & (t - 1);
            let entry = if rest == 0 {
                powers[low]
            } else {
                curve.jac_add(&jac[rest - 1], &powers[low])
            };
            jac.push(entry);
        }
        curve.push_odd_multiples(&g, GEN_W, &mut jac);
        let mut comb = curve.batch_to_affine(&jac);
        let odd = comb.split_off(comb_len);
        GenTables { cols, comb, odd }
    }

    /// `k · G` for `k` (little-endian limbs) below `2^(TEETH·cols)`.
    fn eval(&self, curve: &Curve, k: &[u64]) -> Jac {
        let mut acc = INFINITY;
        for col in (0..self.cols).rev() {
            acc = curve.jac_double(&acc);
            let mut t = 0usize;
            for j in 0..Self::TEETH {
                if bit(k, j * self.cols + col) {
                    t |= 1 << j;
                }
            }
            if t != 0 {
                if let Some(q) = &self.comb[t - 1] {
                    acc = curve.jac_add_affine(&acc, q, false);
                }
            }
        }
        acc
    }
}

impl Curve {
    /// Builds a curve. The generator is checked to lie on the curve and to
    /// have the claimed order.
    ///
    /// # Panics
    /// Panics if `p ≥ 2^256`, the generator is off-curve or
    /// `order · gen ≠ ∞`.
    pub fn new(
        name: &'static str,
        field: Fp,
        a: Ubig,
        b: Ubig,
        order: Ubig,
        cofactor: Ubig,
        gen: Point,
    ) -> Self {
        assert!(
            field.bits() <= 64 * MAX_LIMBS as u32,
            "{name}: scalar multiplication needs p < 2^256"
        );
        let a = field.reduce(&a);
        let b = field.reduce(&b);
        let a_is_minus_3 = field.add(&a, &Ubig::from_u64(3)).is_zero();
        let mont_field = MontField::new(field.modulus());
        let mont = Arc::new(MontCurve {
            a: mont_field.to_mont(&a),
            field: mont_field,
            gen_tables: OnceLock::new(),
        });
        let c = Curve {
            name,
            field,
            a,
            b,
            order,
            cofactor,
            gen: Point::Infinity,
            a_is_minus_3,
            mont,
        };
        assert!(c.is_on_curve(&gen), "{name}: generator not on curve");
        let mut c = c;
        c.gen = gen;
        assert!(
            c.mul_raw(&c.order, &c.gen).is_infinity(),
            "{name}: generator order mismatch"
        );
        c
    }

    /// The base field.
    pub fn field(&self) -> &Fp {
        &self.field
    }

    /// Curve coefficient `a`.
    pub fn a(&self) -> &Ubig {
        &self.a
    }

    /// Curve coefficient `b`.
    pub fn b(&self) -> &Ubig {
        &self.b
    }

    /// Subgroup order (prime).
    pub fn order(&self) -> &Ubig {
        &self.order
    }

    /// Cofactor.
    pub fn cofactor(&self) -> &Ubig {
        &self.cofactor
    }

    /// The subgroup generator.
    pub fn generator(&self) -> &Point {
        &self.gen
    }

    /// Membership test (infinity counts as on-curve).
    pub fn is_on_curve(&self, pt: &Point) -> bool {
        match pt {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let f = &self.field;
                let lhs = f.sqr(y);
                let rhs = f.add(&f.add(&f.mul(&f.sqr(x), x), &f.mul(&self.a, x)), &self.b);
                lhs == rhs
            }
        }
    }

    /// Point negation.
    pub fn neg(&self, pt: &Point) -> Point {
        match pt {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Point::Affine {
                x: x.clone(),
                y: self.field.neg(y),
            },
        }
    }

    /// Affine point addition (handles all special cases).
    pub fn add(&self, p: &Point, q: &Point) -> Point {
        let f = &self.field;
        let ((x1, y1), (x2, y2)) = match (p.xy(), q.xy()) {
            (None, _) => return q.clone(),
            (_, None) => return p.clone(),
            (Some(p), Some(q)) => (p, q),
        };
        if x1 == x2 {
            return if y1 == y2 && !y1.is_zero() {
                self.double(p)
            } else {
                // P + (-P) = ∞ (covers y1 = -y2, and the 2-torsion y = 0 case)
                Point::Infinity
            };
        }
        let lambda = f.mul(
            &f.sub(y2, y1),
            &f.inv(&f.sub(x2, x1))
                .expect("x2 != x1 so the difference is invertible"),
        );
        let x3 = f.sub(&f.sub(&f.sqr(&lambda), x1), x2);
        let y3 = f.sub(&f.mul(&lambda, &f.sub(x1, &x3)), y1);
        Point::Affine { x: x3, y: y3 }
    }

    /// Affine point doubling.
    pub fn double(&self, p: &Point) -> Point {
        let f = &self.field;
        let (x, y) = match p.xy() {
            None => return Point::Infinity,
            Some(xy) => xy,
        };
        if y.is_zero() {
            return Point::Infinity; // 2-torsion
        }
        // λ = (3x² + a) / 2y
        let num = f.add(&f.mul_u64(&f.sqr(x), 3), &self.a);
        let den = f.inv(&f.mul_u64(y, 2)).expect("y != 0");
        let lambda = f.mul(&num, &den);
        let x3 = f.sub(&f.sub(&f.sqr(&lambda), x), x);
        let y3 = f.sub(&f.mul(&lambda, &f.sub(x, &x3)), y);
        Point::Affine { x: x3, y: y3 }
    }

    // ----- Montgomery-form internals -----

    /// `Point` → Jacobian (`Z = 1`).
    fn to_jac(&self, p: &Point) -> Jac {
        match p {
            Point::Infinity => INFINITY,
            Point::Affine { x, y } => Jac {
                x: self.mont.field.to_mont(x),
                y: self.mont.field.to_mont(y),
                z: self.mont.field.one(),
            },
        }
    }

    /// Jacobian → `Point` (one inversion).
    fn to_point(&self, p: &Jac) -> Point {
        if is_zero(&p.z) {
            return Point::Infinity;
        }
        let f = &self.mont.field;
        let zinv = f.inv(&p.z);
        let zinv2 = f.sqr(&zinv);
        let zinv3 = f.mul(&zinv2, &zinv);
        Point::Affine {
            x: f.to_ubig(&f.mul(&p.x, &zinv2)),
            y: f.to_ubig(&f.mul(&p.y, &zinv3)),
        }
    }

    /// Normalises Jacobian points to affine with a single inversion
    /// (Montgomery's trick); `∞` entries map to `None`.
    fn batch_to_affine(&self, pts: &[Jac]) -> Vec<Option<Aff>> {
        if pts.is_empty() {
            return Vec::new();
        }
        let f = &self.mont.field;
        // prefix[i] = product of the finite z's before entry i.
        let mut prefix = Vec::with_capacity(pts.len());
        let mut acc = f.one();
        for p in pts {
            prefix.push(acc);
            if !is_zero(&p.z) {
                acc = f.mul(&acc, &p.z);
            }
        }
        let mut out = vec![None; pts.len()];
        let mut inv = f.inv(&acc);
        for (i, p) in pts.iter().enumerate().rev() {
            if is_zero(&p.z) {
                continue;
            }
            let zinv = f.mul(&inv, &prefix[i]);
            inv = f.mul(&inv, &p.z);
            let zinv2 = f.sqr(&zinv);
            out[i] = Some(Aff {
                x: f.mul(&p.x, &zinv2),
                y: f.mul(&p.y, &f.mul(&zinv2, &zinv)),
            });
        }
        out
    }

    /// Jacobian doubling ("dbl-2007-bl" shape; the `a = -3` fast path folds
    /// the `a·Z⁴` term into a product of sums).
    fn jac_double(&self, p: &Jac) -> Jac {
        let f = &self.mont.field;
        if is_zero(&p.z) || is_zero(&p.y) {
            return INFINITY;
        }
        let xx = f.sqr(&p.x);
        let yy = f.sqr(&p.y);
        let yyyy = f.sqr(&yy);
        let zz = f.sqr(&p.z);
        // S = 2·((X+YY)² − XX − YYYY)
        let s = {
            let t = f.sub(&f.sub(&f.sqr(&f.add(&p.x, &yy)), &xx), &yyyy);
            f.add(&t, &t)
        };
        // M = 3·XX + a·ZZ²
        let m = if self.a_is_minus_3 {
            // 3·(X−ZZ)(X+ZZ)
            let t = f.mul(&f.sub(&p.x, &zz), &f.add(&p.x, &zz));
            f.add(&f.add(&t, &t), &t)
        } else {
            f.add(
                &f.add(&f.add(&xx, &xx), &xx),
                &f.mul(&self.mont.a, &f.sqr(&zz)),
            )
        };
        let x3 = f.sub(&f.sqr(&m), &f.add(&s, &s));
        let yyyy2 = f.add(&yyyy, &yyyy);
        let yyyy4 = f.add(&yyyy2, &yyyy2);
        let y3 = f.sub(&f.mul(&m, &f.sub(&s, &x3)), &f.add(&yyyy4, &yyyy4));
        let z3 = f.sub(&f.sub(&f.sqr(&f.add(&p.y, &p.z)), &yy), &zz);
        Jac {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition: `p` Jacobian + `q` affine (`Z = 1`), or `p − q`
    /// when `negate`.
    fn jac_add_affine(&self, p: &Jac, q: &Aff, negate: bool) -> Jac {
        let f = &self.mont.field;
        let qy = if negate { f.neg(&q.y) } else { q.y };
        if is_zero(&p.z) {
            return Jac {
                x: q.x,
                y: qy,
                z: f.one(),
            };
        }
        let zz = f.sqr(&p.z);
        let u2 = f.mul(&q.x, &zz);
        let s2 = f.mul(&qy, &f.mul(&zz, &p.z));
        let h = f.sub(&u2, &p.x);
        let r = f.sub(&s2, &p.y);
        if is_zero(&h) {
            return if is_zero(&r) {
                self.jac_double(p)
            } else {
                INFINITY
            };
        }
        let hh = f.sqr(&h);
        let hhh = f.mul(&hh, &h);
        let v = f.mul(&p.x, &hh);
        let x3 = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.add(&v, &v));
        let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.mul(&p.y, &hhh));
        let z3 = f.mul(&p.z, &h);
        Jac {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition (used only to build tables).
    fn jac_add(&self, p: &Jac, q: &Jac) -> Jac {
        let f = &self.mont.field;
        if is_zero(&p.z) {
            return *q;
        }
        if is_zero(&q.z) {
            return *p;
        }
        let z1z1 = f.sqr(&p.z);
        let z2z2 = f.sqr(&q.z);
        let u1 = f.mul(&p.x, &z2z2);
        let u2 = f.mul(&q.x, &z1z1);
        let s1 = f.mul(&p.y, &f.mul(&q.z, &z2z2));
        let s2 = f.mul(&q.y, &f.mul(&p.z, &z1z1));
        let h = f.sub(&u2, &u1);
        let r = f.sub(&s2, &s1);
        if is_zero(&h) {
            return if is_zero(&r) {
                self.jac_double(p)
            } else {
                INFINITY
            };
        }
        let hh = f.sqr(&h);
        let hhh = f.mul(&hh, &h);
        let v = f.mul(&u1, &hh);
        let x3 = f.sub(&f.sub(&f.sqr(&r), &hhh), &f.add(&v, &v));
        let y3 = f.sub(&f.mul(&r, &f.sub(&v, &x3)), &f.mul(&s1, &hhh));
        let z3 = f.mul(&f.mul(&p.z, &q.z), &h);
        Jac {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Appends the width-`w` wNAF table `P, 3P, …, (2^(w−1) − 1)·P` of `p`
    /// in Jacobian form.
    fn push_odd_multiples(&self, p: &Jac, w: u32, out: &mut Vec<Jac>) {
        let two_p = self.jac_double(p);
        let mut cur = *p;
        out.push(cur);
        for _ in 1..1usize << (w - 2) {
            cur = self.jac_add(&cur, &two_p);
            out.push(cur);
        }
    }

    /// The shared generator tables, built on first use.
    fn gen_tables(&self) -> &GenTables {
        self.mont.gen_tables.get_or_init(|| GenTables::new(self))
    }

    /// Straus' interleaved `Σ kᵢ·Pᵢ` over the scalars as given (no
    /// reduction): one shared doubling chain, one wNAF digit stream per
    /// term. Terms on the generator use its cached table when `gen` is
    /// given; every other term's table is built here, all of them
    /// normalised together with one inversion.
    fn straus(&self, terms: &[(&Ubig, &Point)], gen: Option<&GenTables>) -> Point {
        let mut jac = Vec::new();
        // (digits, Some(offset into jac) | None for the generator table)
        let mut streams = Vec::with_capacity(terms.len());
        for &(k, p) in terms {
            if k.is_zero() || p.is_infinity() {
                continue;
            }
            if gen.is_some() && p == &self.gen {
                streams.push((wnaf(k.limbs(), GEN_W), None));
            } else {
                streams.push((wnaf(k.limbs(), VAR_W), Some(jac.len())));
                self.push_odd_multiples(&self.to_jac(p), VAR_W, &mut jac);
            }
        }
        if streams.is_empty() {
            return Point::Infinity;
        }
        let var = self.batch_to_affine(&jac);
        let streams: Vec<(Vec<i8>, &[Option<Aff>])> = streams
            .into_iter()
            .map(|(digits, offset)| {
                let table = match offset {
                    Some(at) => &var[at..],
                    None => &gen.expect("generator streams come with its tables").odd[..],
                };
                (digits, table)
            })
            .collect();
        let longest = streams.iter().map(|(d, _)| d.len()).max().unwrap_or(0);
        let mut acc = INFINITY;
        for i in (0..longest).rev() {
            acc = self.jac_double(&acc);
            for (digits, table) in &streams {
                let d = digits.get(i).copied().unwrap_or(0);
                if d == 0 {
                    continue;
                }
                if let Some(q) = &table[(d.unsigned_abs() as usize - 1) / 2] {
                    acc = self.jac_add_affine(&acc, q, d < 0);
                }
            }
        }
        self.to_point(&acc)
    }

    /// Scalar multiplication `k · p` with a width-4 wNAF window. The scalar
    /// is reduced modulo the subgroup order first (every honest input lies
    /// in the subgroup); use [`Curve::mul_raw`] for membership checks where
    /// that reduction would be circular.
    pub fn mul(&self, k: &Ubig, p: &Point) -> Point {
        self.straus(&[(&k.rem_ref(&self.order), p)], None)
    }

    /// Scalar multiplication without reducing `k` modulo the subgroup order.
    ///
    /// Needed to *verify* subgroup membership (`order · P = ∞`): reducing
    /// first would turn that check into `0 · P = ∞`, which holds for any
    /// point. Used by the constructor's generator check and by signature
    /// verifiers validating attacker-supplied points.
    pub fn mul_raw(&self, k: &Ubig, p: &Point) -> Point {
        self.straus(&[(k, p)], None)
    }

    /// `k1·P + k2·Q` (used by ECDSA verification): interleaved wNAF
    /// (Straus), both scalars sharing one doubling chain. A generator term
    /// uses the curve's cached table, so ECDSA verification builds only the
    /// public key's.
    pub fn mul_mul_add(&self, k1: &Ubig, p: &Point, k2: &Ubig, q: &Point) -> Point {
        self.mul_multi(&[(k1, p), (k2, q)])
    }

    /// `Σ kᵢ·Pᵢ` — Straus' interleaved multi-scalar multiplication: one
    /// shared doubling chain, per-term wNAF digit streams and odd-multiples
    /// tables (the generator's cached, the rest built and normalised with
    /// one inversion). Scalars are reduced modulo the subgroup order.
    pub fn mul_multi(&self, terms: &[(&Ubig, &Point)]) -> Point {
        let reduced: Vec<Ubig> = terms.iter().map(|(k, _)| k.rem_ref(&self.order)).collect();
        let terms: Vec<(&Ubig, &Point)> =
            reduced.iter().zip(terms).map(|(k, t)| (k, t.1)).collect();
        let gen = terms
            .iter()
            .any(|(_, p)| *p == &self.gen)
            .then(|| self.gen_tables());
        self.straus(&terms, gen)
    }

    /// `k · G` for the distinguished generator, via a lazily built (and
    /// clone-shared) Lim–Lee comb: `⌈bits/8⌉` doublings + as many mixed
    /// additions instead of a full wNAF walk.
    pub fn mul_gen(&self, k: &Ubig) -> Point {
        let k = k.rem_ref(&self.order);
        if k.is_zero() || self.gen.is_infinity() {
            return Point::Infinity;
        }
        self.to_point(&self.gen_tables().eval(self, k.limbs()))
    }

    /// Uniformly random scalar in `[1, order)`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> Ubig {
        loop {
            let k = egka_bigint::random_below(rng, &self.order);
            if !k.is_zero() {
                return k;
            }
        }
    }

    /// Compressed encoding: `02/03 || x` (SEC1), `00` for infinity.
    pub fn compress(&self, p: &Point) -> Vec<u8> {
        match p {
            Point::Infinity => vec![0u8],
            Point::Affine { x, y } => {
                let mut out = Vec::with_capacity(1 + self.field.byte_len());
                out.push(if y.is_odd() { 3 } else { 2 });
                out.extend_from_slice(&x.to_bytes_be_padded(self.field.byte_len()));
                out
            }
        }
    }

    /// Inverse of [`Curve::compress`]. Requires `p ≡ 3 (mod 4)` for the
    /// square root; returns `None` on malformed input or off-curve x.
    pub fn decompress(&self, bytes: &[u8]) -> Option<Point> {
        if bytes == [0u8] {
            return Some(Point::Infinity);
        }
        if bytes.len() != 1 + self.field.byte_len() || (bytes[0] != 2 && bytes[0] != 3) {
            return None;
        }
        let f = &self.field;
        let x = Ubig::from_bytes_be(&bytes[1..]);
        if &x >= f.modulus() {
            return None;
        }
        let rhs = f.add(&f.add(&f.mul(&f.sqr(&x), &x), &f.mul(&self.a, &x)), &self.b);
        let mut y = f.sqrt(&rhs)?;
        if y.is_odd() != (bytes[0] == 3) {
            y = f.neg(&y);
        }
        Some(Point::Affine { x, y })
    }
}

/// Bit `i` of little-endian limbs (`false` past the end).
fn bit(k: &[u64], i: u32) -> bool {
    k.get(i as usize / 64)
        .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
}

/// Computes the width-`w` non-adjacent form of the integer held in `k`
/// (little-endian limbs), least-significant digit first. Digits are odd in
/// `(-2^(w-1), 2^(w-1))` or zero. The scalar is read in `w`-bit windows with
/// a carry, never modified or copied.
fn wnaf(k: &[u64], w: u32) -> Vec<i8> {
    let bits = k
        .iter()
        .rposition(|&l| l != 0)
        .map_or(0, |top| 64 * top + 64 - k[top].leading_zeros() as usize);
    let width = 1u64 << w;
    let window_at = |pos: usize| {
        let (limb, shift) = (pos / 64, pos % 64);
        let lo = k.get(limb).map_or(0, |l| l >> shift);
        let hi = if shift + w as usize > 64 {
            k.get(limb + 1).map_or(0, |l| l << (64 - shift))
        } else {
            0
        };
        (lo | hi) & (width - 1)
    };
    // A final carry can land up to w positions past the top bit.
    let mut out = vec![0i8; bits + w as usize];
    let mut carry = 0u64;
    let mut pos = 0usize;
    while pos < out.len() {
        let window = carry + window_at(pos);
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            out[pos] = window as i8;
        } else {
            carry = 1;
            out[pos] = (window as i64 - width as i64) as i8;
        }
        pos += w as usize;
    }
    let len = out.iter().rposition(|&d| d != 0).map_or(0, |i| i + 1);
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Fp;

    /// Tiny curve for exhaustive checks: y² = x³ + 2x + 3 over F_97.
    /// Brute-force group order = 100 = 4 · 25; (3, 6) generates a subgroup
    /// of order 5 — small enough to enumerate by hand below.
    fn tiny() -> Curve {
        // Build by brute force: find the subgroup structure in the test.
        // y² = x³ + x + 1 over F_19: order 21 (known small example), gen (0,1), order 21.
        // Verify in-test by exhaustion instead of trusting the comment.
        let f = Fp::new(Ubig::from_u64(19)); // 19 ≡ 3 mod 4
        Curve::new(
            "tiny19",
            f,
            Ubig::from_u64(1),
            Ubig::from_u64(1),
            Ubig::from_u64(21),
            Ubig::from_u64(1),
            Point::affine(Ubig::from_u64(0), Ubig::from_u64(1)),
        )
    }

    fn enumerate_points(c: &Curve) -> Vec<Point> {
        let p = c.field().modulus().to_u64().unwrap();
        let mut pts = vec![Point::Infinity];
        for x in 0..p {
            for y in 0..p {
                let pt = Point::affine(Ubig::from_u64(x), Ubig::from_u64(y));
                if c.is_on_curve(&pt) {
                    pts.push(pt);
                }
            }
        }
        pts
    }

    #[test]
    fn tiny_curve_group_order_is_21() {
        let c = tiny();
        assert_eq!(enumerate_points(&c).len(), 21);
    }

    #[test]
    fn addition_is_closed_and_commutative() {
        let c = tiny();
        let pts = enumerate_points(&c);
        for p in &pts {
            for q in &pts {
                let s1 = c.add(p, q);
                let s2 = c.add(q, p);
                assert!(c.is_on_curve(&s1));
                assert_eq!(s1, s2);
            }
        }
    }

    #[test]
    fn addition_is_associative_on_sample() {
        let c = tiny();
        let pts = enumerate_points(&c);
        for (i, p) in pts.iter().enumerate() {
            for (j, q) in pts.iter().enumerate() {
                if (i + j) % 3 != 0 {
                    continue; // sample to keep the O(n³) check fast
                }
                for r in &pts {
                    assert_eq!(c.add(&c.add(p, q), r), c.add(p, &c.add(q, r)));
                }
            }
        }
    }

    #[test]
    fn neg_is_inverse() {
        let c = tiny();
        for p in enumerate_points(&c) {
            assert!(c.add(&p, &c.neg(&p)).is_infinity());
        }
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let c = tiny();
        let g = c.generator().clone();
        let mut acc = Point::Infinity;
        for k in 0..=42u64 {
            assert_eq!(c.mul(&Ubig::from_u64(k), &g), acc, "k = {k}");
            acc = c.add(&acc, &g);
        }
    }

    #[test]
    fn generator_has_order_21() {
        let c = tiny();
        assert!(c.mul_raw(&Ubig::from_u64(21), c.generator()).is_infinity());
        for k in 1..21u64 {
            assert!(
                !c.mul_raw(&Ubig::from_u64(k), c.generator()).is_infinity(),
                "order divides {k}?"
            );
        }
    }

    #[test]
    fn mul_reduces_but_mul_raw_does_not_hide_order() {
        let c = tiny();
        let g = c.generator().clone();
        // 22 ≡ 1 (mod 21): reducing multiply gives G back.
        assert_eq!(c.mul(&Ubig::from_u64(22), &g), g);
        // mul_raw walks the full scalar and agrees (22·G = G in the group).
        assert_eq!(c.mul_raw(&Ubig::from_u64(22), &g), g);
    }

    #[test]
    fn mul_mul_add_matches_separate() {
        let c = tiny();
        let g = c.generator().clone();
        let q = c.mul(&Ubig::from_u64(5), &g);
        for k1 in 0..10u64 {
            for k2 in 0..10u64 {
                let fused = c.mul_mul_add(&Ubig::from_u64(k1), &g, &Ubig::from_u64(k2), &q);
                let split = c.add(
                    &c.mul(&Ubig::from_u64(k1), &g),
                    &c.mul(&Ubig::from_u64(k2), &q),
                );
                assert_eq!(fused, split, "k1={k1} k2={k2}");
            }
        }
    }

    #[test]
    fn named_curve_clones_share_one_comb() {
        let a = crate::curves::secp160r1();
        let b = crate::curves::secp160r1();
        assert!(Arc::ptr_eq(&a.mont, &b.mont));
        let k = Ubig::from_u64(0x5eed);
        assert_eq!(a.mul_gen(&k), b.mul_gen(&k));
        // Built once, by whichever clone asked first.
        assert!(b.mont.gen_tables.get().is_some());
        let other = crate::curves::secp192r1();
        assert!(!Arc::ptr_eq(&a.mont, &other.mont));
    }

    #[test]
    fn wnaf_reconstructs_value() {
        for v in [1u64, 2, 3, 7, 15, 16, 255, 1000, 0xdead_beef] {
            let naf = wnaf(Ubig::from_u64(v).limbs(), 4);
            let mut acc: i128 = 0;
            for (i, &d) in naf.iter().enumerate() {
                acc += (d as i128) << i;
            }
            assert_eq!(acc, v as i128, "v = {v}");
            // Non-adjacency: no two consecutive non-zero digits.
            for w in naf.windows(2) {
                assert!(w[0] == 0 || w[1] == 0, "adjacent digits in {naf:?}");
            }
        }
    }

    #[test]
    fn wnaf_reconstructs_multi_limb_values_at_every_width() {
        let values = [
            Ubig::from_hex("ffffffffffffffffffffffffffffffffffffffff").unwrap(),
            Ubig::from_hex("8000000000000000ffffffffffffffff7fffffff").unwrap(),
            Ubig::from_hex("0100000000000000000001f4c8f927aed3ca752257").unwrap(),
            Ubig::one().shl_bits(255),
            Ubig::one().shl_bits(256).checked_sub(&Ubig::one()).unwrap(),
        ];
        for v in &values {
            for w in [2u32, 4, 5, 7] {
                let naf = wnaf(v.limbs(), w);
                let (mut pos, mut neg) = (Ubig::zero(), Ubig::zero());
                for (i, &d) in naf.iter().enumerate() {
                    assert!(d == 0 || (d % 2 != 0 && (d.unsigned_abs() as u32) < 1 << (w - 1)));
                    let term = Ubig::from_u64(d.unsigned_abs() as u64).shl_bits(i as u32);
                    if d > 0 {
                        pos = pos.add_ref(&term);
                    } else if d < 0 {
                        neg = neg.add_ref(&term);
                    }
                }
                assert_eq!(pos.checked_sub(&neg).as_ref(), Some(v), "w = {w}");
                assert!(naf.len() as u32 <= v.bit_length() + 1, "w = {w}");
                // Any w consecutive digits hold at most one non-zero.
                for win in naf.windows(w as usize) {
                    assert!(win.iter().filter(|&&d| d != 0).count() <= 1);
                }
            }
        }
        assert!(wnaf(&[], 4).is_empty());
    }

    #[test]
    fn compress_roundtrip() {
        let c = tiny();
        for p in enumerate_points(&c) {
            let bytes = c.compress(&p);
            assert_eq!(c.decompress(&bytes), Some(p));
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        let c = tiny();
        assert_eq!(c.decompress(&[9, 9, 9]), None);
        // x = 4: rhs = 64 + 4 + 1 = 69 ≡ 12 (mod 19); 12 is a QR mod 19? 12 = 5²=25≡6,
        // squares mod 19: {1,4,9,16,6,17,11,7,5,0}; 12 is not → decompress fails.
        assert_eq!(c.decompress(&[2, 4]), None);
    }
}
