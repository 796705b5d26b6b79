//! The machine-speed reference: a fixed piece of the benchmark's own work,
//! run between requests, whose duration says how fast the machine is *at
//! that moment*.
//!
//! The sizing machine is two virtual CPUs of a shared host. Its speed on
//! this kind of code moves between levels 1.0x and 1.5x apart that last
//! from seconds to minutes (a neighbour on the sibling hardware thread or
//! in the shared cache), so the same fixed request list took 0.82-1.31 s
//! within four minutes, and no estimator over the rounds of one 20-second
//! run can remove a level that outlasts the run. A reference measured in
//! the same seconds on the same CPU can: dividing a segment's times by the
//! reference's slow-down cut the spread between 16-round medians from
//! 11-13 % to 3-4 % in sizing runs.
//!
//! The unit is built to slow down the way query code does. A dependent
//! multiply chain does not notice a busy sibling thread at all (it leaves
//! most of the core idle); code with high instruction-level parallelism,
//! loads that miss the first cache levels, and unpredictable branches
//! does. So one unit runs four parts of about equal weight: eight
//! independent multiply chains, a read-modify-write sweep over 256 KiB,
//! a sort of 2 048 fresh pseudo-random keys, and 20 000 random probes
//! into a 4 MiB table. It allocates nothing, so the allocation counters
//! stay the program's.

use std::time::Instant;

use crate::stats::median;

/// Duration of one unit on the undisturbed sizing machine: about the
/// smallest per-segment median seen in sizing runs. Only a scale: every
/// reported time is multiplied by `NOMINAL_UNIT_NS / observed`, so on
/// another machine all times shift by one common factor and comparisons
/// hold.
pub const NOMINAL_UNIT_NS: f64 = 280_000.0;

/// Units of the pre-set-up loop (about 20 ms).
const SPIN_UNITS: usize = 64;

/// Share of the request time the reference runs for.
const REFERENCE_SHARE: u64 = 10;

struct Reference {
    sweep: Vec<u64>,
    table: Vec<u64>,
    keys: Vec<u32>,
    x: u64,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            sweep: (0..32 * 1024).collect(),
            table: (0..512 * 1024u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            keys: vec![0; 2048],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Runs one unit and returns its duration in nanoseconds.
    fn unit(&mut self) -> u64 {
        let started = Instant::now();
        // Eight independent chains: as many multiplies in flight as the
        // core can hold.
        let mut chains = [self.x, 1, 2, 3, 4, 5, 6, 7];
        for i in 0..40_000u64 {
            for (j, c) in chains.iter_mut().enumerate() {
                *c = (*c ^ i)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                    .rotate_left(17)
                    .wrapping_add(j as u64);
            }
        }
        let mut x = chains.iter().fold(0, |a, c| a ^ c) | 1;
        // Loads and stores through the first two cache levels.
        let mut acc = 0u64;
        for _ in 0..3 {
            for v in self.sweep.iter_mut() {
                acc = acc.wrapping_add(*v);
                *v ^= acc >> 7;
            }
        }
        // Branches no predictor can learn: sort fresh xorshift keys.
        for _ in 0..2 {
            for k in self.keys.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *k = x as u32;
            }
            self.keys.sort_unstable();
        }
        // Random probes that miss the second cache level.
        let mask = self.table.len() as u64 - 1;
        for _ in 0..20_000 {
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
            acc = acc.wrapping_add(self.table[((x >> 20) & mask) as usize]);
        }
        self.x = std::hint::black_box(x ^ acc ^ u64::from(self.keys[7]));
        started.elapsed().as_nanos() as u64
    }
}

/// Runs the reference for a tenth of the time the requests of a pass take
/// and reduces its readings to the pass's slow-down.
pub struct Meter {
    reference: Reference,
    units: Vec<f64>,
    request_ns: u64,
    reference_ns: u64,
}

impl Meter {
    /// Allocates and touches the reference's buffers; call before anything
    /// is timed or counted.
    pub fn new() -> Meter {
        Meter {
            reference: Reference::new(),
            units: Vec::new(),
            request_ns: 0,
            reference_ns: 0,
        }
    }

    /// What the reference's buffers add to the process's resident memory,
    /// in KiB: all of them are touched on allocation and kept to the end,
    /// so taking this out of the peak leaves the program's own.
    pub fn resident_kib(&self) -> u64 {
        let r = &self.reference;
        ((r.sweep.len() + r.table.len()) * 8 + r.keys.len() * 4) as u64 / 1024
    }

    /// A fixed loop run before anything is timed, so process start and
    /// clock ramp-up are not billed to the system. Its readings count
    /// towards the slow-down of the pass that follows (set-up); its
    /// duration in milliseconds is reported as `process.spin_ms`.
    pub fn spin(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..SPIN_UNITS {
            let ns = self.reference.unit();
            self.units.push(ns as f64);
        }
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Call after every request of a pass with the request's latency.
    pub fn after_request(&mut self, latency_ns: u64) {
        self.request_ns += latency_ns;
        while self.reference_ns * REFERENCE_SHARE < self.request_ns {
            let ns = self.reference.unit();
            self.reference_ns += ns;
            self.units.push(ns as f64);
        }
    }

    /// Ends a pass: `(slow-down, seconds the reference ran inside the
    /// pass)`, and starts the next. The slow-down is the median unit over
    /// the nominal unit — the median, because a unit that was preempted
    /// says nothing about speed. Every time of the pass is divided by it.
    pub fn finish(&mut self) -> (f64, f64) {
        let slowdown = median(&self.units) / NOMINAL_UNIT_NS;
        let reference_s = self.reference_ns as f64 * 1e-9;
        self.units.clear();
        (self.request_ns, self.reference_ns) = (0, 0);
        (slowdown, reference_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_keeps_its_share_and_starts_each_pass_afresh() {
        let mut meter = Meter::new();
        assert!(meter.spin() > 0.0);
        // 5 ms of requests: the reference runs until it has had a tenth.
        for _ in 0..5 {
            meter.after_request(1_000_000);
        }
        let (slowdown, reference_s) = meter.finish();
        assert!(reference_s >= 0.5e-3, "{reference_s}");
        assert!(slowdown > 0.2 && slowdown < 20.0, "{slowdown}");
        // The next pass counts from zero: one short request, one unit.
        meter.after_request(1);
        assert_eq!(meter.units.len(), 1);
        let (_, second_s) = meter.finish();
        assert!(second_s > 0.0 && second_s < reference_s);
    }
}
