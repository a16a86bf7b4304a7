//! Primitive micro-bench: old-vs-new timings for the fixed-base, batch and
//! caching accelerations, measured **in one binary** so the ratios cannot
//! drift with toolchains or machines.
//!
//! ```text
//! cargo run --release -p egka-bench --bin bench_primitives
//! cargo run --release -p egka-bench --bin bench_primitives -- \
//!     [--seed N] [--p-bits N] [--q-bits N] [--check-determinism] \
//!     [--json PATH]
//! ```
//!
//! Each pair times the *pre-acceleration* shape against the shipped one on
//! the identical deterministic workload, asserting bit-equal results first:
//!
//! * **Fixed-base EC scalar mult** — generic wNAF `curve.mul(k, G)` vs the
//!   comb-backed [`Curve::mul_gen`].
//! * **Fixed-base modexp** — per-call `Montgomery::new(p)` + windowed `pow`
//!   vs [`mod_pow_fixed`] (interned context + exponent-sized comb), on
//!   q-sized exponents under a Schnorr modulus — the BD/DSA shape.
//! * **Fixed-argument pairing** — full Miller loop vs
//!   [`PairingGroup::pairing_fixed`] over a cached [`egka_ec::MillerPrecomp`].
//! * **Named-curve cache** — a fresh [`Curve::new`] from secp160r1's own
//!   parameters plus its first [`Curve::mul_gen`] (generator validation,
//!   comb build, one comb evaluation) vs [`secp160r1`] plus a `mul_gen`
//!   (a clone of the process-wide curve whose comb is already built).
//! * **Epoch batch verification** — per-item `verify` loops vs the
//!   `egka-sig` batch entry points (DSA amortized loop, GQ split-form
//!   RLC).
//! * **GQ ring verification** — one rekey's eq. (2) checks on a 35-member
//!   ring at the paper fixture: every member running the composed
//!   [`GqParams::aggregate_verify`] vs one shared
//!   [`GqParams::ring_key`] plus a [`GqParams::aggregate_verify_ring`] per
//!   member.
//!
//! The artifact (`BENCH_primitives.json`, schema `egka-primitives/1`)
//! carries each pair as `*_ns` plus a `*_speedup` ratio; `bench_diff`
//! holds `fixed_base_mul_speedup`, `fixed_base_modexp_speedup`,
//! `named_curve_speedup` and `gq_ring_verify_speedup` above an absolute
//! floor (2×) in CI. `--check-determinism` regenerates every workload from
//! the seed and asserts the result fingerprint reproduces.

use std::time::Instant;

use egka_bench::{arg_value, has_flag};
use egka_bigint::{
    gen_schnorr_group, mod_mul, mod_pow, mod_pow_fixed, random_below, Montgomery, SchnorrGroup,
    Ubig,
};
use egka_core::paper_fixture;
use egka_ec::{secp160r1, Curve, PairingGroup, Point};
use egka_hash::ChaChaRng;
use egka_sig::{
    dsa_batch_verify, gq_batch_verify_split, Dsa, DsaBatchItem, DsaSignature, GqParams, GqPkg,
    GqSplitItem,
};
use rand::SeedableRng;

/// FNV-1a over every workload result — the determinism witness.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Nanoseconds per call of `f` over `iters` calls.
fn per_op_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

struct Pair {
    old_ns: f64,
    new_ns: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.old_ns / self.new_ns
    }
    fn print(&self, name: &str) {
        println!(
            "{name:24} old {:>12.0} ns   new {:>12.0} ns   {:>5.2}x",
            self.old_ns,
            self.new_ns,
            self.speedup()
        );
    }
}

// ------------------------------------------------------- fixed-base EC mul

fn ec_workload(seed: u64, curve: &Curve, fp: &mut Fnv) -> Vec<Ubig> {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xec);
    let scalars: Vec<Ubig> = (0..64).map(|_| curve.random_scalar(&mut rng)).collect();
    for k in &scalars {
        let new = curve.mul_gen(k);
        assert_eq!(new, curve.mul(k, curve.generator()), "mul_gen disagrees");
        fp.push(&curve.compress(&new));
    }
    scalars
}

fn bench_ec(seed: u64, fp: &mut Fnv) -> Pair {
    let curve = secp160r1();
    let scalars = ec_workload(seed, &curve, fp); // also warms the comb
    let g = curve.generator().clone();
    let mut i = 0usize;
    let old_ns = per_op_ns(256, || {
        std::hint::black_box(curve.mul(&scalars[i % scalars.len()], &g));
        i += 1;
    });
    let new_ns = per_op_ns(256, || {
        std::hint::black_box(curve.mul_gen(&scalars[i % scalars.len()]));
        i += 1;
    });
    Pair { old_ns, new_ns }
}

// -------------------------------------------------------- named-curve cache

/// A secp160r1 built from scratch: generator validation plus an empty comb.
fn fresh_secp160r1(named: &Curve) -> Curve {
    Curve::new(
        named.name,
        named.field().clone(),
        named.a().clone(),
        named.b().clone(),
        named.order().clone(),
        named.cofactor().clone(),
        named.generator().clone(),
    )
}

fn named_curve_workload(seed: u64, fp: &mut Fnv) -> Vec<Ubig> {
    let named = secp160r1();
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xc0e);
    let scalars: Vec<Ubig> = (0..8).map(|_| named.random_scalar(&mut rng)).collect();
    for k in &scalars {
        let p = named.mul_gen(k);
        assert_eq!(
            fresh_secp160r1(&named).mul_gen(k),
            p,
            "fresh curve disagrees"
        );
        fp.push(&named.compress(&p));
    }
    scalars
}

fn bench_named_curve(seed: u64, fp: &mut Fnv) -> Pair {
    let scalars = named_curve_workload(seed, fp);
    let named = secp160r1();
    let mut i = 0usize;
    // The per-caller shape: every provisioning built and validated its own
    // curve, then paid the comb on its first generator multiple.
    let old_ns = per_op_ns(16, || {
        let curve = fresh_secp160r1(&named);
        std::hint::black_box(curve.mul_gen(&scalars[i % scalars.len()]));
        i += 1;
    });
    let new_ns = per_op_ns(16, || {
        let curve = secp160r1();
        std::hint::black_box(curve.mul_gen(&scalars[i % scalars.len()]));
        i += 1;
    });
    Pair { old_ns, new_ns }
}

// --------------------------------------------------------- fixed-base modexp

fn modexp_workload(seed: u64, group: &SchnorrGroup, fp: &mut Fnv) -> Vec<Ubig> {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x90d);
    let exps: Vec<Ubig> = (0..64).map(|_| random_below(&mut rng, &group.q)).collect();
    for e in &exps {
        let new = mod_pow_fixed(&group.g, e, &group.p);
        let ctx = Montgomery::new(group.p.clone());
        assert_eq!(new, ctx.pow(&group.g, e), "mod_pow_fixed disagrees");
        fp.push(&new.to_bytes_be());
    }
    exps
}

fn bench_modexp(seed: u64, group: &SchnorrGroup, fp: &mut Fnv) -> Pair {
    let exps = modexp_workload(seed, group, fp); // also warms ctx + comb
    let mut i = 0usize;
    // The pre-acceleration shape: every call pays Montgomery setup and a
    // generic modulus-length window walk.
    let old_ns = per_op_ns(128, || {
        let ctx = Montgomery::new(group.p.clone());
        std::hint::black_box(ctx.pow(&group.g, &exps[i % exps.len()]));
        i += 1;
    });
    let new_ns = per_op_ns(128, || {
        std::hint::black_box(mod_pow_fixed(&group.g, &exps[i % exps.len()], &group.p));
        i += 1;
    });
    Pair { old_ns, new_ns }
}

// ---------------------------------------------------------- fixed pairing

fn bench_pairing(seed: u64, fp: &mut Fnv) -> Pair {
    let group = PairingGroup::paper_fixture();
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x9a1);
    let points: Vec<Point> = (0..8).map(|_| group.random_point(&mut rng)).collect();
    let gen = group.curve().generator().clone();
    let pre = group.precompute(&gen);
    for q in &points {
        let new = group.pairing_fixed(&pre, q);
        assert_eq!(new, group.pairing(&gen, q), "pairing_fixed disagrees");
        fp.push(&new.c0.to_bytes_be());
        fp.push(&new.c1.to_bytes_be());
    }
    let mut i = 0usize;
    let old_ns = per_op_ns(32, || {
        std::hint::black_box(group.pairing(&gen, &points[i % points.len()]));
        i += 1;
    });
    let new_ns = per_op_ns(32, || {
        std::hint::black_box(group.pairing_fixed(&pre, &points[i % points.len()]));
        i += 1;
    });
    Pair { old_ns, new_ns }
}

// ------------------------------------------------------------ batch verify

fn bench_dsa_batch(seed: u64, group: &SchnorrGroup, fp: &mut Fnv) -> Pair {
    let scheme = Dsa::new(group.clone());
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xd5a);
    let triples: Vec<(Ubig, Vec<u8>, DsaSignature)> = (0..8)
        .map(|i| {
            let kp = scheme.keygen(&mut rng);
            let msg = format!("epoch share {i}").into_bytes();
            let sig = scheme.sign(&mut rng, &kp, &msg);
            (kp.y, msg, sig)
        })
        .collect();
    let items: Vec<DsaBatchItem<'_>> = triples
        .iter()
        .map(|(y, msg, sig)| DsaBatchItem { y, msg, sig })
        .collect();
    assert_eq!(dsa_batch_verify(&scheme, &items), Ok(()));
    for (_, _, sig) in &triples {
        fp.push(&sig.s.to_bytes_be());
    }
    let n = items.len() as f64;
    let old_ns = per_op_ns(8, || {
        for it in &items {
            assert!(scheme.verify(it.y, it.msg, it.sig));
        }
    }) / n;
    let new_ns = per_op_ns(8, || {
        dsa_batch_verify(&scheme, &items).unwrap();
    }) / n;
    Pair { old_ns, new_ns }
}

fn bench_gq_batch(seed: u64, fp: &mut Fnv) -> Pair {
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x60);
    let pkg = GqPkg::setup_with_e_bits(&mut rng, 128, 41);
    let p = &pkg.params;
    let n = 16usize;
    let ids: Vec<Vec<u8>> = (0..n).map(|i| format!("member-{i}").into_bytes()).collect();
    let keys: Vec<_> = ids.iter().map(|id| pkg.extract(id)).collect();
    let commits: Vec<(Ubig, Ubig)> = (0..n).map(|_| p.commit(&mut rng)).collect();
    let t_agg =
        p.aggregate_commitments(&commits.iter().map(|(_, t)| t.clone()).collect::<Vec<_>>());
    let c = p.shared_challenge(&t_agg, b"bench epoch");
    let values: Vec<(Vec<u8>, Ubig, Ubig)> = (0..n)
        .map(|i| {
            let s = p.respond(&keys[i], &commits[i].0, &c);
            (ids[i].clone(), commits[i].1.clone(), s)
        })
        .collect();
    let items: Vec<GqSplitItem<'_>> = values
        .iter()
        .map(|(id, t, s)| GqSplitItem { id, t, s })
        .collect();
    assert_eq!(gq_batch_verify_split(p, &c, &items), Ok(()));
    for (_, _, s) in &values {
        fp.push(&s.to_bytes_be());
    }
    let hs: Vec<Ubig> = items.iter().map(|it| p.hash_id(it.id)).collect();
    let nf = items.len() as f64;
    // The pre-batch shape: one full-size exponentiation pair per member.
    let old_ns = per_op_ns(8, || {
        for (it, h) in items.iter().zip(&hs) {
            let lhs = mod_pow(it.s, &p.e, &p.n);
            let rhs = mod_mul(it.t, &mod_pow(h, &c, &p.n), &p.n);
            assert_eq!(lhs, rhs);
        }
    }) / nf;
    let new_ns = per_op_ns(8, || {
        gq_batch_verify_split(p, &c, &items).unwrap();
    }) / nf;
    Pair { old_ns, new_ns }
}

// ------------------------------------------------------ GQ ring verify

/// Ring size of the row: the top of `paper_big_groups`' 32–40 range.
const RING: u32 = 35;

/// The rekey binding (the protocol's `Z`) the row signs under.
const RING_BIND: &[u8] = b"bench rekey";

/// One honest rekey's eq. (2) inputs on a `RING`-member paper-fixture
/// ring: `(params, ids, responses, c)`.
fn gq_ring_workload(seed: u64, fp: &mut Fnv) -> (GqParams, Vec<Vec<u8>>, Vec<Ubig>, Ubig) {
    let pkg = paper_fixture();
    let gq = pkg.params().gq.clone();
    let keys = pkg.extract_group(RING);
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x61f);
    let commits: Vec<(Ubig, Ubig)> = keys.iter().map(|_| gq.commit(&mut rng)).collect();
    let ts: Vec<Ubig> = commits.iter().map(|(_, t)| t.clone()).collect();
    let c = gq.shared_challenge(&gq.aggregate_commitments(&ts), RING_BIND);
    let responses: Vec<Ubig> = keys
        .iter()
        .zip(&commits)
        .map(|(k, (tau, _))| gq.respond(k, tau, &c))
        .collect();
    fp.push(&c.to_bytes_be());
    for s in &responses {
        fp.push(&s.to_bytes_be());
    }
    let ids = keys.into_iter().map(|k| k.id).collect();
    (gq, ids, responses, c)
}

fn bench_gq_ring(seed: u64, fp: &mut Fnv) -> Pair {
    let (gq, ids, responses, c) = gq_ring_workload(seed, fp);
    let ids: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
    let ring = gq.ring_key(&ids).expect("honest ring is invertible");
    assert!(gq.aggregate_verify(&ids, &responses, &c, RING_BIND));
    assert!(gq.aggregate_verify_ring(&ring, &responses, &c, RING_BIND));
    // Old: every member hashes the whole ring and inverts the product.
    let old_ns = per_op_ns(4, || {
        for _ in 0..RING {
            assert!(gq.aggregate_verify(&ids, &responses, &c, RING_BIND));
        }
    });
    // New: the ring key once per rekey, then one joint exponentiation per
    // member.
    let new_ns = per_op_ns(4, || {
        let ring = gq.ring_key(&ids).expect("honest ring is invertible");
        for _ in 0..RING {
            assert!(gq.aggregate_verify_ring(&ring, &responses, &c, RING_BIND));
        }
    });
    Pair { old_ns, new_ns }
}

fn main() {
    let start = Instant::now();
    let seed: u64 = arg_value("--seed").map_or(0x9121, |v| v.parse().expect("--seed N"));
    let p_bits: u32 = arg_value("--p-bits").map_or(512, |v| v.parse().expect("--p-bits N"));
    let q_bits: u32 = arg_value("--q-bits").map_or(160, |v| v.parse().expect("--q-bits N"));
    println!("bench_primitives: seed {seed:#x}, Schnorr {p_bits}/{q_bits} bits\n");

    let mut group_rng = ChaChaRng::seed_from_u64(seed ^ 0x5c0);
    let group = gen_schnorr_group(&mut group_rng, p_bits, q_bits);

    let mut fp = Fnv::new();
    let ec = bench_ec(seed, &mut fp);
    ec.print("fixed_base_mul");
    let named = bench_named_curve(seed, &mut fp);
    named.print("named_curve");
    let modexp = bench_modexp(seed, &group, &mut fp);
    modexp.print("fixed_base_modexp");
    let pairing = bench_pairing(seed, &mut fp);
    pairing.print("pairing_fixed");
    let dsa = bench_dsa_batch(seed, &group, &mut fp);
    dsa.print("dsa_batch (per item)");
    let gq = bench_gq_batch(seed, &mut fp);
    gq.print("gq_batch (per item)");
    let gq_ring = bench_gq_ring(seed, &mut fp);
    gq_ring.print("gq_ring_verify (rekey)");
    let fingerprint = fp.0;
    println!("\nworkload fingerprint {fingerprint:016x}");

    if has_flag("--check-determinism") {
        println!("re-deriving every workload for the determinism check…");
        let mut again = Fnv::new();
        let curve = secp160r1();
        ec_workload(seed, &curve, &mut again);
        named_curve_workload(seed, &mut again);
        modexp_workload(seed, &group, &mut again);
        bench_pairing(seed, &mut again);
        bench_dsa_batch(seed, &group, &mut again);
        bench_gq_batch(seed, &mut again);
        gq_ring_workload(seed, &mut again);
        assert_eq!(
            fingerprint, again.0,
            "same seed must reproduce every workload result bit for bit"
        );
        println!("deterministic ✓");
    }

    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let json = format!(
        "{{\n  \
         \"schema\": \"egka-primitives/1\",\n  \
         \"seed\": {seed},\n  \
         \"p_bits\": {p_bits},\n  \
         \"q_bits\": {q_bits},\n  \
         \"workload_fingerprint\": \"{fingerprint:016x}\",\n  \
         \"variable_base_mul_ns\": {:.0},\n  \
         \"fixed_base_mul_ns\": {:.0},\n  \
         \"fixed_base_mul_speedup\": {:.3},\n  \
         \"fresh_curve_mul_gen_ns\": {:.0},\n  \
         \"named_curve_mul_gen_ns\": {:.0},\n  \
         \"named_curve_speedup\": {:.3},\n  \
         \"plain_modexp_ns\": {:.0},\n  \
         \"fixed_base_modexp_ns\": {:.0},\n  \
         \"fixed_base_modexp_speedup\": {:.3},\n  \
         \"pairing_ns\": {:.0},\n  \
         \"pairing_fixed_ns\": {:.0},\n  \
         \"pairing_fixed_speedup\": {:.3},\n  \
         \"dsa_verify_ns\": {:.0},\n  \
         \"dsa_batch_item_ns\": {:.0},\n  \
         \"gq_verify_ns\": {:.0},\n  \
         \"gq_batch_item_ns\": {:.0},\n  \
         \"gq_batch_speedup\": {:.3},\n  \
         \"gq_composed_verify_ns\": {:.0},\n  \
         \"gq_ring_verify_ns\": {:.0},\n  \
         \"gq_ring_verify_speedup\": {:.3},\n  \
         \"wall_ms\": {wall_ms:.1}\n}}\n",
        ec.old_ns,
        ec.new_ns,
        ec.speedup(),
        named.old_ns,
        named.new_ns,
        named.speedup(),
        modexp.old_ns,
        modexp.new_ns,
        modexp.speedup(),
        pairing.old_ns,
        pairing.new_ns,
        pairing.speedup(),
        dsa.old_ns,
        dsa.new_ns,
        gq.old_ns,
        gq.new_ns,
        gq.speedup(),
        gq_ring.old_ns,
        gq_ring.new_ns,
        gq_ring.speedup(),
    );
    let json_path = arg_value("--json").unwrap_or_else(|| "BENCH_primitives.json".into());
    if json_path != "-" {
        std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        println!("wrote {json_path}");
    } else {
        print!("{json}");
    }
}
