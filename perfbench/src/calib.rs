//! Host-speed calibration.
//!
//! The VM this benchmark was sized on runs identical simulator work up to
//! 60 % slower in some phases than in others, because other tenants of the
//! host share its cores' execution resources (see "Measurement noise" in
//! `README.md`). A phase lasts from about a second to minutes, so it can
//! move a whole run. The benchmark therefore times a fixed kernel in the
//! same process right after every slice of the run and right around
//! set-up, and scales each repetition's times by how slow the kernel ran
//! beside them. What the simulator's own code costs stays in the figure;
//! the host's phase largely cancels.
//!
//! The kernel is the kind of probe that tracked the simulator's slow phases
//! best among those tried (dependent and independent random reads over 1,
//! 4 and 32 MiB, integer hashing, a binary-heap event loop, unpredictable
//! branches): eight independent streams of hash-then-load — memory-level
//! parallelism and integer throughput, the resources a busy neighbour
//! takes away. Its table is 256 KiB and is read through once, untimed,
//! before each sample, so the sample runs from the core's L2 whatever the
//! simulator left in the caches and wherever the table's pages landed
//! (a 1 MiB table made the kernel's speed differ from process to process,
//! an 8 MiB one made it depend on the workload). Its work is fixed: no
//! seed, no input, the same instructions on every call.

use std::hint::black_box;
use std::time::Instant;

/// Words in the kernel's table: 256 KiB.
const TABLE_WORDS: usize = 1 << 15;
/// Bytes the calibrator keeps resident for the whole repetition.
pub const TABLE_BYTES: usize = TABLE_WORDS * 8;
/// Hash-then-load steps per stream and call (about 0.5 ms).
const STEPS: u32 = 40_000;
const STREAMS: usize = 8;

/// Kernel time the normalised times are scaled to: about its median on the
/// 2-vCPU VM of "Measurement noise", so normalised times read as seconds
/// on that VM. A constant, so runs on any commit are comparable.
pub const NOMINAL_S: f64 = 0.46e-3;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// The kernel and its table, allocated once per repetition.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: (0..TABLE_WORDS as u64).map(mix).collect(),
        }
    }

    /// Wall seconds the kernel takes now, its table warmed first.
    pub fn sample(&self) -> f64 {
        let table = &self.table[..];
        black_box(table.iter().fold(0u64, |a, &b| a ^ b));
        let t = Instant::now();
        let mut xs: [u64; STREAMS] = std::array::from_fn(|i| i as u64 + 1);
        for _ in 0..STEPS {
            for x in xs.iter_mut() {
                *x = mix(*x);
                *x ^= table[*x as usize & (TABLE_WORDS - 1)];
            }
        }
        black_box(xs);
        t.elapsed().as_secs_f64()
    }
}

/// The factor that scales times measured beside a mean calibration
/// sample of `sample_s` seconds to the nominal host speed.
pub fn factor(sample_s: f64) -> f64 {
    NOMINAL_S / sample_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_nominal_speed() {
        assert_eq!(factor(NOMINAL_S), 1.0);
        assert_eq!(
            factor(2.0 * NOMINAL_S),
            0.5,
            "a slow phase halves the times"
        );
    }
}
