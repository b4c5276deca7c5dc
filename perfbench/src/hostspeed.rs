//! Host seconds scaled to a reference host speed.
//!
//! The benchmark runs on a few cores of a shared host. While other tenants
//! of that host compete for its caches and memory, the simulator, whose
//! working set is tens of MB, runs up to 1.6× slower, in phases that often
//! last longer than a whole run. Ten runs made a few minutes apart then
//! disagree by more than any change worth measuring.
//!
//! A fixed kernel of this file's own slows in the same phases: dependent
//! random read-modify-writes over 32 MiB, a working set that, like the
//! simulator's, does not fit the per-core caches. The kernel is timed
//! before and after every timed repetition, and the repetition's host
//! seconds are multiplied by `NOMINAL_S` over the mean of the two: the
//! result is the repetition's time on a host where the kernel takes
//! `NOMINAL_S`. The slowdown a busy neighbour causes largely cancels; a
//! change to the simulator moves only the repetition's own time, because
//! the kernel is benchmark code and the same for every version of the
//! simulator measured with this benchmark.
//!
//! Measured on the 2-vCPU host the bounds were set on, over 30-second
//! windows of back-to-back repetitions: scaling cut the spread of window
//! medians (distance between quartiles over the median) from 0.27 to 0.07
//! for 100k-arrival replays and from 0.24 to 0.09 for suite passes while
//! the host was busy, and raised it from 0.06 to 0.09 for suite passes
//! while the host was quiet.

use std::time::Instant;

/// Words in the kernel's buffer: 32 MiB of `u64`.
const WORDS: usize = 1 << 22;

/// Dependent read-modify-write steps per kernel run (~15 ms).
const STEPS: usize = 500_000;

/// Kernel runs per probe.
const RUNS: usize = 2;

/// Host seconds of one probe that scaled times are expressed in: about
/// its median on the host the bounds were set on.
pub const NOMINAL_S: f64 = 0.026;

/// The reference kernel's buffer and its latest probe.
pub struct HostSpeed {
    buf: Vec<u64>,
    last: f64,
    probes: Vec<f64>,
}

impl HostSpeed {
    /// Allocate and touch the buffer, then probe once. Call it after peak
    /// memory has been read, so that the buffer is not counted in it.
    pub fn new() -> HostSpeed {
        let mut h = HostSpeed {
            buf: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            last: 0.0,
            probes: Vec::new(),
        };
        h.last = h.probe();
        h
    }

    /// Host seconds of `RUNS` kernel runs.
    fn probe(&mut self) -> f64 {
        let t = Instant::now();
        let b = &mut self.buf;
        let mask = WORDS - 1;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..RUNS * STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = ((x ^ b[x as usize & mask]) as usize) & mask;
            b[i] = b[i].wrapping_add(x);
        }
        std::hint::black_box(&*b);
        let secs = t.elapsed().as_secs_f64();
        self.probes.push(secs);
        secs
    }

    /// Probe now, and return the factor that turns host seconds of the
    /// work done since the previous probe into reference seconds:
    /// `NOMINAL_S` over the mean of the two probes.
    pub fn scale_since_last(&mut self) -> f64 {
        let now = self.probe();
        let scale = 2.0 * NOMINAL_S / (self.last + now);
        self.last = now;
        scale
    }

    /// The factor for work done right after the latest probe.
    pub fn scale_now(&self) -> f64 {
        NOMINAL_S / self.last
    }

    /// Every probe's host seconds so far.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}
