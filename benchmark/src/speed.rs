//! The machine-speed reference.
//!
//! The sandbox this benchmark runs in shares its cores: the same work takes
//! 0.6 s or 1.0 s depending on what the neighbours do, and the slow spells
//! last from milliseconds to minutes, so no amount of repetition inside one
//! invocation averages them out. The benchmark therefore interleaves short
//! *reference slices* — a fixed amount of work of its own, made of the same
//! things the simulator does (ordered-map lookups, small allocations, byte
//! shuffling) — with the measured program, and reports each timed phase in
//! *reference seconds*:
//!
//! ```text
//! phase_s = (wall time of the phase − time spent in slices)
//!           × NOMINAL_SLICE_S ÷ mean slice time observed during the phase
//! ```
//!
//! On a machine where a slice takes [`NOMINAL_SLICE_S`] a reference second is
//! a wall second. The slices use nothing from the repository, so a change to
//! the program moves the numerator only. Raw wall times and the observed
//! speed are reported next to the normalised ones as per-layer metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::alloc;

/// What one slice takes on the builder's machine when nothing else runs.
pub const NOMINAL_SLICE_S: f64 = 0.0035;

/// Least wall time between two slices taken from inside a run.
const SLICE_GAP: Duration = Duration::from_millis(40);

/// Sized so the table (about 25 MB) lives where the simulator's heap does:
/// beyond the private caches. A cache-resident reference slows down more
/// than the simulator when a neighbour floods the caches, and less when the
/// memory bus is busy.
const KEYS: u64 = 262_144;
const OPS_PER_SLICE: u32 = 5_000;

/// The timed phases of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Input generation, the pilot, node construction and the simulated boot.
    Setup = 0,
    /// First workload send → report aggregated.
    Window = 1,
}

/// Wall time and slice samples gathered for one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTime {
    /// Wall time inside the phase, slices excluded.
    pub raw: Duration,
    slice_sum: Duration,
    slices: u32,
}

impl PhaseTime {
    /// Mean slice time over nominal: above 1 the machine was slow.
    pub fn slowdown(&self) -> f64 {
        if self.slices == 0 {
            return 1.0;
        }
        self.slice_sum.as_secs_f64() / f64::from(self.slices) / NOMINAL_SLICE_S
    }

    /// The phase in reference seconds.
    pub fn normalised_s(&self) -> f64 {
        self.raw.as_secs_f64() / self.slowdown()
    }
}

/// Runs the reference slices and keeps the phase clocks.
pub struct SpeedMeter {
    table: BTreeMap<u64, Vec<u8>>,
    origin: Instant,
    in_slices: Duration,
    last_slice_end: Instant,
    /// The running phase and the work-clock reading it started at.
    phase: Option<(Phase, Duration)>,
    phases: [PhaseTime; 2],
}

impl SpeedMeter {
    /// Builds the reference table (uncounted: it lives as long as the process).
    pub fn new() -> Self {
        let table = alloc::uncounted(|| {
            (0..KEYS)
                .map(|key| (key, vec![key as u8; 24 + (key % 40) as usize]))
                .collect()
        });
        let now = Instant::now();
        Self {
            table,
            origin: now,
            in_slices: Duration::ZERO,
            last_slice_end: now,
            phase: None,
            phases: [PhaseTime::default(); 2],
        }
    }

    /// One slice: the same operation sequence every time, leaving the key
    /// set as it found it.
    fn slice(&mut self) -> Duration {
        let started = Instant::now();
        alloc::uncounted(|| {
            let mut x: u64 = 0x2545_F491_4F6C_DD1D;
            let mut sum: u64 = 0;
            for op in 0..OPS_PER_SLICE {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = x % KEYS;
                if op % 4 == 0 {
                    if let Some(old) = self.table.remove(&key) {
                        let mut fresh = Vec::with_capacity(old.len());
                        fresh.extend_from_slice(&old);
                        self.table.insert(key, fresh);
                    }
                } else if let Some(bytes) = self.table.get_mut(&key) {
                    let at = (x >> 20) as usize % bytes.len();
                    bytes[at] ^= x as u8;
                    sum += u64::from(bytes[0]);
                }
            }
            black_box(sum);
        });
        let ended = Instant::now();
        let took = ended - started;
        self.in_slices += took;
        self.last_slice_end = ended;
        took
    }

    fn charge(&mut self, phase: Phase, took: Duration) {
        let time = &mut self.phases[phase as usize];
        time.slice_sum += took;
        time.slices += 1;
    }

    /// Time since the meter was built, slices excluded: the clock every raw
    /// duration of the benchmark is read from.
    pub fn work_clock(&self) -> Duration {
        self.origin.elapsed() - self.in_slices
    }

    /// Ends the current phase and starts `next` (`None` stops the clocks).
    /// The slice taken at the boundary counts for both sides.
    pub fn switch(&mut self, next: Option<Phase>) {
        let closing = self.phase.take();
        if let Some((phase, started)) = closing {
            let raw = self.work_clock() - started;
            self.phases[phase as usize].raw += raw;
        }
        let took = self.slice();
        if let Some((phase, _)) = closing {
            self.charge(phase, took);
        }
        if let Some(phase) = next {
            self.charge(phase, took);
            self.phase = Some((phase, self.work_clock()));
        }
    }

    /// Called from the binding's hooks: takes a slice when the last one is
    /// [`SLICE_GAP`] old, so a phase is sampled all along, not only at its
    /// ends.
    pub fn poll(&mut self) {
        if self.last_slice_end.elapsed() < SLICE_GAP {
            return;
        }
        let took = self.slice();
        if let Some((phase, _)) = self.phase {
            self.charge(phase, took);
        }
    }

    /// Reads and clears the phase clocks (one repetition's worth).
    pub fn take_phases(&mut self) -> [PhaseTime; 2] {
        std::mem::take(&mut self.phases)
    }
}

impl Drop for SpeedMeter {
    /// The table was built and churned uncounted; it goes the same way, or
    /// the live-byte count would fall by bytes it never rose by.
    fn drop(&mut self) {
        alloc::uncounted(|| drop(std::mem::take(&mut self.table)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_leaves_the_key_set_as_it_found_it() {
        let mut meter = SpeedMeter::new();
        let before: Vec<(u64, usize)> = meter.table.iter().map(|(k, v)| (*k, v.len())).collect();
        meter.slice();
        let after: Vec<(u64, usize)> = meter.table.iter().map(|(k, v)| (*k, v.len())).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn boundary_slices_count_for_both_phases_and_not_as_work() {
        let mut meter = SpeedMeter::new();
        meter.switch(Some(Phase::Setup));
        meter.switch(Some(Phase::Window));
        meter.switch(None);
        let [setup, window] = meter.take_phases();
        assert_eq!(setup.slices, 2);
        assert_eq!(window.slices, 2);
        assert!(setup.raw * 2 < setup.slice_sum, "slices are not work");
        assert!(setup.slowdown() > 0.0 && window.normalised_s() >= 0.0);
        let [cleared, _] = meter.take_phases();
        assert_eq!(cleared.slices, 0);
    }

    #[test]
    fn a_phase_without_samples_reads_as_nominal_speed() {
        assert_eq!(PhaseTime::default().slowdown(), 1.0);
    }
}
