//! A fixed probe of the host's current speed, independent of the program.
//!
//! On a shared host the CPU time of the same pass moves by 30% and more
//! within a minute, as neighbours load the caches and memory the vCPU
//! shares. The probe runs the same small event loop every time (a binary
//! heap of pending events over a 512 KiB state table, like the
//! simulator's calendar and machine state), and its CPU time moves with
//! the host's speed. The benchmark probes before and after each untraced
//! pass and scales the pass's host times by [`REFERENCE`] over the mean of
//! the two probes, so its end-to-end times read as if the pass had run at
//! the reference speed. The probe shares no code with the program: a
//! change to the program moves the pass and leaves the probe alone.
//!
//! Measured over 120 consecutive `fig14-bare` passes on a 2-vCPU Intel
//! Xeon (2.1 GHz) VM under heavy neighbour load: the pass's CPU time and
//! the mean of its two probes correlate at 0.78 (log scale); the
//! interquartile range over the median of the pass times fell from 0.17
//! to 0.10 with the scaling, and that of medians over 20 consecutive
//! passes from 0.14 to 0.04.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use crate::cputime;

/// Events the probe processes.
const EVENTS: u64 = 200_000;

/// The probe's CPU time at the reference speed: a round figure near its
/// median on a 2-vCPU Intel Xeon (2.1 GHz) VM, 19 to 25 ms depending on
/// the neighbours' load. It sets only the scale of the reported times,
/// not their spread or how two runs compare.
pub const REFERENCE: Duration = Duration::from_millis(20);

fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The probe's work: pop the earliest of 4,096 pending events, update
/// two hashed slots of the state table, push the event back later.
fn event_loop(events: u64) -> u64 {
    let mut state = vec![0u64; 1 << 16];
    let mut pending = BinaryHeap::with_capacity(4096);
    let mut x = 0;
    for id in 0..4096u64 {
        pending.push(Reverse((mix(&mut x) & 0xffff, id)));
    }
    let mut acc = 0u64;
    for _ in 0..events {
        let Reverse((at, id)) = pending.pop().expect("the heap is never empty");
        let h = mix(&mut x);
        let (a, b) = ((h & 0xffff) as usize, ((h >> 16) & 0xffff) as usize);
        state[a] = state[a].wrapping_add(state[b] ^ id);
        if state[a] & 7 == 0 {
            acc = acc.wrapping_add(state[b]);
        }
        pending.push(Reverse((at + 1 + (h >> 48) % 64, id)));
    }
    acc
}

/// Runs the probe once and returns its CPU time.
pub fn probe() -> Duration {
    let start = cputime::thread();
    std::hint::black_box(event_loop(std::hint::black_box(EVENTS)));
    cputime::thread() - start
}

/// The factor that turns host times measured between probes `before` and
/// `after` into reference-host times.
pub fn scale(before: Duration, after: Duration) -> f64 {
    let mean = (before + after).as_secs_f64() / 2.0;
    if mean > 0.0 {
        REFERENCE.as_secs_f64() / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_deterministic_and_takes_time() {
        assert_eq!(event_loop(10_000), event_loop(10_000));
        assert!(probe() > Duration::ZERO);
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        let r = REFERENCE;
        assert!((scale(r, r) - 1.0).abs() < 1e-12);
        assert!((scale(r * 2, r * 2) - 0.5).abs() < 1e-12);
        assert!((scale(r, r * 3) - 0.5).abs() < 1e-12);
    }
}
