//! ECDSA known-answer test on secp160r1: fixed-seed key generation,
//! signing and certificate issuance, pinned to exact values.
//!
//! The values were captured from the `Ubig`-backed scalar multiplication
//! before the curve internals moved to fixed-width Montgomery limbs, so
//! any drift in `mul_gen`, `mul_mul_add` or the RNG draw order shows up
//! here as a changed hex string rather than as a protocol golden miss.

use egka_ec::Point;
use egka_hash::ChaChaRng;
use egka_sig::{CaPublic, CaSignature, CertificateAuthority, Ecdsa, SubjectKey};
use rand::SeedableRng;

fn hex_xy(p: &Point) -> (String, String) {
    let (x, y) = p.xy().expect("finite point");
    (x.to_hex(), y.to_hex())
}

#[test]
fn secp160r1_keygen_sign_and_cert_known_answers() {
    let ecdsa = Ecdsa::new(egka_ec::secp160r1());
    let mut rng = ChaChaRng::seed_from_u64(0x6b61_7431);

    let kp = ecdsa.keygen(&mut rng);
    assert_eq!(kp.d.to_hex(), "3d8b1456a02d18c24270b855d5c115dff18c3e70");
    assert_eq!(
        hex_xy(&kp.q),
        (
            "6920da6191a9a9239ae2809618a84df0bd0bb5c".to_string(),
            "d87bc119e719e31b6aba8b0d0e62d94aa5e525b9".to_string()
        )
    );

    let msg = b"egka known-answer message";
    let sig = ecdsa.sign(&mut rng, &kp, msg);
    assert_eq!(sig.r.to_hex(), "855aaa295a7ddf5168cc7aa972afc60f67dcb52c");
    assert_eq!(sig.s.to_hex(), "ba494d3a91f8866eca6166ef5e2f0c15271bf3b2");
    assert!(ecdsa.verify(&kp.q, msg, &sig));
    assert!(!ecdsa.verify(&kp.q, b"another message", &sig));

    let mut ca = CertificateAuthority::new_ecdsa(&mut rng, b"kat-ca", ecdsa.clone());
    let CaPublic::Ecdsa(_, ca_q) = ca.public() else {
        panic!("ECDSA CA has a non-ECDSA public key");
    };
    assert_eq!(
        hex_xy(&ca_q),
        (
            "75a12773eef2bf4b173410de920b9ef501ada7d0".to_string(),
            "5a98150c7edde0c746149aaf9b3f15254797dd80".to_string()
        )
    );
    let cert = ca.issue(&mut rng, b"kat-user", SubjectKey::Ecdsa(kp.q.clone()));
    let CaSignature::Ecdsa(cert_sig) = &cert.signature else {
        panic!("ECDSA CA issued a non-ECDSA signature");
    };
    assert_eq!(
        cert_sig.r.to_hex(),
        "4e539fa476b5af05403331ec15a1b9bb392866a8"
    );
    assert_eq!(
        cert_sig.s.to_hex(),
        "7247b1a812874248f64d97714462970bf7b97dfd"
    );
    assert!(ca.public().verify(&cert));
}
