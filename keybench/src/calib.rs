//! Calibration: times each primitive's public function at the workload's
//! own parameters, so per-layer op counts can be priced in nanoseconds the
//! way the paper prices them in millijoules (count × per-op cost).

use std::hint::black_box;
use std::time::{Duration, Instant};

use egka_bigint::{mod_inverse, mod_pow, mod_pow_fixed, random_below, random_unit};
use egka_core::{Pkg, UserId};
use egka_energy::{CompOp, Scheme};
use egka_hash::{challenge_hash, ChaChaRng};
use egka_sig::{ecdsa_batch_verify, CertificateAuthority, Ecdsa, EcdsaBatchItem, SubjectKey};
use egka_symmetric::Envelope;
use rand::SeedableRng;

/// One priced operation: the metric stem, the meter's op it prices, and
/// its calibrated cost.
pub struct OpCost {
    pub stem: &'static str,
    pub op: CompOp,
    pub ns: f64,
}

/// Median per-call nanoseconds of `f` over batches filling about `budget`.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily built tables
    let probe = Instant::now();
    f();
    let one = probe.elapsed().max(Duration::from_nanos(50));
    let per_batch = ((budget.as_nanos() / 9) / one.as_nanos()).clamp(1, 100_000) as u32;
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Calibrates every op the model prices. `group_n` is the workload's
/// typical group size (the GQ batch verification and the ECDSA epoch batch
/// are timed at that size).
pub fn calibrate(pkg: &Pkg, group_n: usize, seed: u64) -> Result<Vec<OpCost>, String> {
    let budget = Duration::from_millis(60);
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xca1b);
    let params = pkg.params();
    let (bd, gq) = (&params.bd, &params.gq);

    // The meter counts fixed-base (g^r, comb tables) and variable-base
    // exponentiations alike; price them in the initial GKA's mix of one
    // fixed-base to two variable-base per member.
    let base = random_unit(&mut rng, &bd.p);
    let exp = random_below(&mut rng, &bd.q);
    let variable = time_ns(budget, || {
        black_box(mod_pow(black_box(&base), &exp, &bd.p));
    });
    let fixed = time_ns(budget, || {
        black_box(mod_pow_fixed(&bd.g, black_box(&exp), &bd.p));
    });
    let modexp = (fixed + 2.0 * variable) / 3.0;
    let modinv = time_ns(budget, || {
        black_box(mod_inverse(black_box(&base), &bd.p));
    });

    // GQ as the proposed protocol uses it: commit + respond is one
    // signature, and the batch equation over the group is one verification.
    let n = group_n.max(2);
    let keys: Vec<_> = (0..n as u32).map(|i| pkg.extract(UserId(i))).collect();
    let ids: Vec<Vec<u8>> = (0..n as u32)
        .map(|i| UserId(i).to_bytes().to_vec())
        .collect();
    let bind = random_unit(&mut rng, &bd.p).to_bytes_be();
    let commits: Vec<_> = (0..n).map(|_| gq.commit(&mut rng)).collect();
    let t_agg = gq.aggregate_commitments(&commits.iter().map(|c| c.1.clone()).collect::<Vec<_>>());
    let c = gq.shared_challenge(&t_agg, &bind);
    let responses: Vec<_> = keys
        .iter()
        .zip(&commits)
        .map(|(k, (tau, _))| gq.respond(k, tau, &c))
        .collect();
    let id_refs: Vec<&[u8]> = ids.iter().map(|v| v.as_slice()).collect();
    if !gq.aggregate_verify(&id_refs, &responses, &c, &bind) {
        return Err("calibration: GQ batch verification rejected honest signatures".into());
    }
    let gq_sign = time_ns(budget, || {
        let (tau, _) = gq.commit(&mut rng);
        black_box(gq.respond(&keys[0], &tau, &c));
    });
    let gq_verify = time_ns(budget, || {
        black_box(gq.aggregate_verify(&id_refs, &responses, &c, &bind));
    });
    let hash = time_ns(budget, || {
        black_box(challenge_hash(&[&t_agg.to_bytes_be(), &bind]));
    });

    // ECDSA on secp160r1, verified as the suite does: one epoch batch over
    // the other members' signatures, priced per signature.
    let ecdsa = Ecdsa::new(egka_ec::secp160r1());
    let peers = (n - 1).max(1);
    let pairs: Vec<_> = (0..peers).map(|_| ecdsa.keygen(&mut rng)).collect();
    let sigs: Vec<_> = pairs
        .iter()
        .map(|k| ecdsa.sign(&mut rng, k, &bind))
        .collect();
    let items: Vec<EcdsaBatchItem<'_>> = pairs
        .iter()
        .zip(&sigs)
        .map(|(k, sig)| EcdsaBatchItem {
            q: &k.q,
            msg: &bind,
            sig,
        })
        .collect();
    if ecdsa_batch_verify(&ecdsa, &items).is_err() {
        return Err("calibration: ECDSA batch rejected honest signatures".into());
    }
    let ecdsa_sign = time_ns(budget, || {
        black_box(ecdsa.sign(&mut rng, &pairs[0], &bind));
    });
    let ecdsa_verify = time_ns(budget, || {
        black_box(ecdsa_batch_verify(&ecdsa, &items).is_ok());
    }) / peers as f64;
    let mut ca = CertificateAuthority::new_ecdsa(&mut rng, b"keybench-ca", ecdsa.clone());
    let cert = ca.issue(&mut rng, &ids[0], SubjectKey::Ecdsa(pairs[0].q.clone()));
    let ca_public = ca.public();
    if !ca_public.verify(&cert) {
        return Err("calibration: certificate failed to verify".into());
    }
    let cert_verify = time_ns(budget, || {
        black_box(ca_public.verify(&cert));
    });

    // The symmetric envelope as the join handoff uses it: keyed from the
    // DH material, sealing a group-element-sized payload.
    let key_material = random_unit(&mut rng, &bd.p).to_bytes_be();
    let plaintext = vec![0x5a; bd.p.to_bytes_be().len() + 8];
    let sealed = Envelope::from_key_material(&key_material).seal(&mut rng, &plaintext);
    let sym_enc = time_ns(budget, || {
        black_box(Envelope::from_key_material(&key_material).seal(&mut rng, &plaintext));
    });
    let sym_dec = time_ns(budget, || {
        black_box(
            Envelope::from_key_material(&key_material)
                .open(&sealed)
                .is_ok(),
        );
    });

    Ok(vec![
        OpCost {
            stem: "bigint.modexp",
            op: CompOp::ModExp,
            ns: modexp,
        },
        OpCost {
            stem: "bigint.modinv",
            op: CompOp::ModInv,
            ns: modinv,
        },
        OpCost {
            stem: "sig.gq_sign",
            op: CompOp::SignGen(Scheme::Gq),
            ns: gq_sign,
        },
        OpCost {
            stem: "sig.gq_verify",
            op: CompOp::SignVerify(Scheme::Gq),
            ns: gq_verify,
        },
        OpCost {
            stem: "sig.ecdsa_sign",
            op: CompOp::SignGen(Scheme::Ecdsa),
            ns: ecdsa_sign,
        },
        OpCost {
            stem: "sig.ecdsa_verify",
            op: CompOp::SignVerify(Scheme::Ecdsa),
            ns: ecdsa_verify,
        },
        OpCost {
            stem: "sig.ecdsa_cert_verify",
            op: CompOp::CertVerify(Scheme::Ecdsa),
            ns: cert_verify,
        },
        OpCost {
            stem: "hash.calls",
            op: CompOp::Hash,
            ns: hash,
        },
        OpCost {
            stem: "symmetric.enc",
            op: CompOp::SymEnc,
            ns: sym_enc,
        },
        OpCost {
            stem: "symmetric.dec",
            op: CompOp::SymDec,
            ns: sym_dec,
        },
    ])
}
