//! The machine's pace. The two cores are shared with other tenants: the
//! same binary runs a statement of `point_inproc` in 19 µs or in 27 µs,
//! changing from one second to the next and from one minute to the next,
//! while loops that stay in the first-level cache (arithmetic, copies,
//! sorts) hardly notice. What does change with it, in step, is the client's
//! own work between a reply and the next send: check the answer, free it,
//! make the next statement. That is half a microsecond of code that, like
//! the statement's, runs once and cold. So it serves as the clock: a run is
//! cut into windows, the pace of a window is the median of that work in it
//! against its median at the machine's usual speed, and the time of each
//! statement in the window is divided by the pace.
//!
//! Measured on the commit the benchmark was written on, eight runs of
//! `point_inproc`: the medians of the raw times spread 17 % (middle half)
//! and 45 % (all); at the usual pace 4 % and 9 %. `README.md` has the
//! probes that were tried as clocks and do not track, and what this one
//! costs.

use std::collections::HashMap;

use crate::drive::Sample;
use crate::stats::median;

/// Long enough for some hundred statements, short against the seconds over
/// which the machine's speed changes.
pub const WINDOW_NS: u64 = 20_000_000;

/// A window needs this many samples of the client's work for a pace of its
/// own; one with fewer takes the run's.
const MIN_SAMPLES: usize = 20;

pub struct Pace {
    /// Over the whole run.
    pub run: f64,
    windows: HashMap<u64, f64>,
}

impl Pace {
    /// From one client's samples in the order sent. `usual_ns` is the
    /// median of the client's work after a statement at the machine's usual
    /// speed. `None` when no statement was followed by another.
    pub fn of(samples: &[Sample], usual_ns: f64) -> Option<Pace> {
        let mut all = Vec::new();
        let mut by_window: HashMap<u64, Vec<f64>> = HashMap::new();
        for s in samples {
            if s.think_ns > 0 {
                let think = s.think_ns as f64;
                all.push(think);
                by_window
                    .entry(s.at_ns / WINDOW_NS)
                    .or_default()
                    .push(think);
            }
        }
        Some(Pace {
            run: median(&all)? / usual_ns,
            windows: by_window
                .into_iter()
                .filter(|(_, v)| v.len() >= MIN_SAMPLES)
                .filter_map(|(w, v)| Some((w, median(&v)? / usual_ns)))
                .collect(),
        })
    }

    /// The pace when a statement sent at `at_ns` ran.
    pub fn at(&self, at_ns: u64) -> f64 {
        *self.windows.get(&(at_ns / WINDOW_NS)).unwrap_or(&self.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Class;

    fn sample(at_ms: u64, ns: u64, think_ns: u64) -> Sample {
        Sample {
            class: Class::Point,
            at_ns: at_ms * 1_000_000,
            ns,
            think_ns,
        }
    }

    #[test]
    fn each_window_has_its_own_pace_and_thin_ones_take_the_runs() {
        // 30 statements at the usual speed, 30 in a window twice as slow,
        // and three stragglers in a third window.
        let usual = 400;
        let mut samples: Vec<Sample> = (0..30).map(|_| sample(1, 20_000, usual)).collect();
        samples.extend((0..30).map(|_| sample(21, 40_000, 2 * usual)));
        samples.extend((0..3).map(|_| sample(41, 20_000, 10 * usual)));
        let pace = Pace::of(&samples, usual as f64).unwrap();
        assert_eq!(pace.at(1_000_000), 1.0);
        assert_eq!(pace.at(39_999_999), 2.0);
        assert_eq!(pace.at(41_000_000), pace.run);
        assert!(pace.run >= 1.0 && pace.run <= 2.0);
    }

    #[test]
    fn the_last_statement_of_a_phase_has_no_work_after_it() {
        assert!(Pace::of(&[sample(1, 20_000, 0)], 400.0).is_none());
    }
}
