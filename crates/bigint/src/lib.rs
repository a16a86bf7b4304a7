//! # egka-bigint
//!
//! From-scratch arbitrary-precision unsigned integer arithmetic for the
//! `egka` reproduction of Tan & Teo, *"Energy-Efficient ID-based Group Key
//! Agreement Protocols for Wireless Networks"* (IPPS 2006).
//!
//! The paper's protocols live in two algebraic settings, both built on this
//! crate:
//!
//! * the Burmester–Desmedt group: the order-`q` subgroup of `Z_p^*`
//!   (1024-bit `p`, 160-bit `q`) — see [`prime::SchnorrGroup`];
//! * the GQ signature ring `Z_n` for an RSA modulus `n = p'q'`
//!   (512-bit prime factors) — see [`mont::Montgomery`].
//!
//! ## Layout
//!
//! * [`ubig`] — the [`Ubig`] integer type (limb vector, schoolbook +
//!   Karatsuba multiplication, conversions).
//! * [`div`] — Knuth Algorithm D division.
//! * [`modular`] — modular add/sub/mul/pow (and the joint `a^x·b^y` of
//!   [`mod_pow2`]), gcd, inverse, Jacobi symbol.
//! * [`mont`] — Montgomery contexts (the hot path for all exponentiation).
//! * [`fixed`] — interned Montgomery contexts and Lim–Lee fixed-base combs
//!   for generators exponentiated under a long-lived modulus.
//! * [`prime`] — Miller–Rabin, sequential & crossbeam-parallel prime search,
//!   Schnorr-group generation.
//! * [`rng`] — uniform sampling helpers over any [`rand::Rng`].
//!
//! ```
//! use egka_bigint::{mod_pow, Ubig};
//!
//! // Fermat's little theorem: a^(p-1) ≡ 1 (mod p) for prime p.
//! let (a, p) = (Ubig::from(7u64), Ubig::from(101u64));
//! let e = Ubig::from(100u64);
//! assert_eq!(mod_pow(&a, &e, &p), Ubig::from(1u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod div;
pub mod fixed;
pub mod limbs;
pub mod modular;
pub mod mont;
pub mod prime;
pub mod rng;
pub mod ubig;

pub use fixed::{fixed_base, mod_pow_fixed, mont_ctx, FixedBase};
pub use modular::{
    ext_gcd_mod, gcd, jacobi, mod_add, mod_inverse, mod_mul, mod_pow, mod_pow2, mod_sub,
};
pub use mont::{MontForm, Montgomery};
pub use prime::{gen_prime, gen_prime_parallel, gen_schnorr_group, is_prime, SchnorrGroup};
pub use rng::{random_below, random_bits, random_range, random_unit};
pub use ubig::{ParseUbigError, Ubig};
