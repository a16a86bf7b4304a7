//! The benchmark's reference pass and the CPU clocks.
//!
//! On a shared host a virtual machine's speed moves in stretches of
//! seconds to minutes: other guests take the vCPUs away (steal) or share
//! their cores and caches. Wall time carries both. CPU time drops the steal but not
//! the slower cores: on a 2-vCPU VM the same seed's CPU time per event
//! moved by 15-35% between runs minutes apart. So before every epoch the
//! client times a fixed pass of work of its own, independent of the
//! program under test, on as many threads at once as the service fans out
//! to, and the end-to-end costs divide the program's CPU time by the
//! pass's CPU time measured around the same epoch.

use std::hint::black_box;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time of this process (every thread, exited ones included), in s.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

const LIMBS: usize = 16;

/// Schoolbook product of two 16-limb numbers, the shape of a 1024-bit
/// multiplication.
fn limb_mul(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; 2 * LIMBS] {
    let mut out = [0u64; 2 * LIMBS];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = (x as u128) * (y as u128) + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + LIMBS] = carry as u64;
    }
    out
}

/// Add-rotate-xor rounds over a 64-byte block, the shape of a hash
/// compression function.
fn arx(state: &mut [u32; 16], rounds: usize) {
    for r in 0..rounds {
        let i = r & 15;
        let s0 = state[(i + 1) & 15].rotate_right(7) ^ state[(i + 1) & 15].rotate_right(18);
        let s1 = state[(i + 14) & 15].rotate_right(17) ^ (state[(i + 14) & 15] >> 10);
        state[i] = state[i]
            .wrapping_add(s0)
            .wrapping_add(s1)
            .wrapping_add(state[(i + 9) & 15]);
    }
}

/// One pass of fixed work on one thread: big-number products, hash-like
/// rounds and short-lived allocations, in about equal shares.
fn pass(seed: u64) -> u64 {
    let mut a = [0u64; LIMBS];
    let mut b = [0u64; LIMBS];
    let mut x = seed | 1;
    for (u, v) in a.iter_mut().zip(b.iter_mut()) {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23);
        *u = x;
        *v = x ^ 0x5851_f42d_4c95_7f2d;
    }
    for _ in 0..600 {
        let p = limb_mul(black_box(&a), &b);
        a.copy_from_slice(&p[LIMBS / 2..LIMBS / 2 + LIMBS]);
    }
    let mut state = [0u32; 16];
    for (i, s) in state.iter_mut().enumerate() {
        *s = (a[i] >> 7) as u32;
    }
    arx(black_box(&mut state), 60_000);
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(64);
    for i in 0..6_000u32 {
        let len = 16 + (state[(i & 15) as usize].wrapping_mul(i) % 240) as usize;
        let mut v = vec![0u8; len];
        v[len / 2] = i as u8;
        if live.len() == 64 {
            live.swap_remove((i as usize * 7) % 64);
        }
        live.push(black_box(v));
    }
    a[0] ^ state[3] as u64 ^ live.iter().map(|v| v.len() as u64).sum::<u64>()
}

/// CPU seconds of one pass on the calling thread.
fn timed_pass(seed: u64) -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let before = clock_s(CLOCK_THREAD_CPUTIME_ID);
    black_box(pass(seed));
    clock_s(CLOCK_THREAD_CPUTIME_ID) - before
}

/// Runs one pass on each of `threads` threads at once and returns the
/// mean CPU seconds of a pass. Each thread times only its own pass, so
/// starting the threads is not counted.
pub fn sample(threads: usize) -> f64 {
    if threads <= 1 {
        return timed_pass(7);
    }
    let total: f64 = std::thread::scope(|s| {
        let passes: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || timed_pass(7 + t as u64)))
            .collect();
        passes
            .into_iter()
            .map(|p| p.join().expect("reference pass panicked"))
            .sum()
    });
    total / threads as f64
}

/// Median of the samples within `half` places of `k`: the pass's cost
/// around epoch `k`.
pub fn local(samples: &[f64], k: usize, half: usize) -> f64 {
    let lo = k.saturating_sub(half);
    let hi = (k + half + 1).min(samples.len());
    let mut window = samples[lo..hi].to_vec();
    window.sort_by(f64::total_cmp);
    window[window.len() / 2]
}
