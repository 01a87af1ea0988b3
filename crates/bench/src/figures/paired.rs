//! The one estimator behind every gated ratio in the figures:
//! [`paired`] times the sides of a comparison, [`verdict`] judges a
//! claim on the per-round ratios.

use pm_systolic::superplane::{simd_level, SimdLevel};
use std::fmt;
use std::time::{Duration, Instant};

/// Rounds per measurement. A debug build, where the figures run as
/// smoke tests, runs just enough to rotate the first side.
const ROUNDS: usize = if cfg!(debug_assertions) { 2 } else { 15 };
/// Time each side runs per round (at least one run).
const SIDE: Duration = Duration::from_millis(if cfg!(debug_assertions) { 0 } else { 20 });

/// A [`paired`] measurement.
pub(crate) struct Paired {
    /// `secs[round][side]`: the median of that side's runs in the round.
    secs: Vec<Vec<f64>>,
    /// Runs of each side per round.
    turns: Vec<usize>,
}

impl Paired {
    /// Median over the rounds of side `i`'s seconds per run.
    pub(crate) fn secs(&self, i: usize) -> f64 {
        quartiles(&self.secs.iter().map(|round| round[i]).collect::<Vec<_>>())[1]
    }

    /// Side `i`'s rate over side 0's, one ratio per round.
    pub(crate) fn speedups(&self, i: usize) -> Vec<f64> {
        self.secs.iter().map(|round| round[0] / round[i]).collect()
    }

    /// How the sides were timed, for a figure's label.
    pub(crate) fn label(&self) -> String {
        let (rounds, turns) = (self.secs.len(), &self.turns);
        format!("paired medians over {rounds} rounds, {turns:?} runs a side per round")
    }
}

/// Times `sides` against each other; side 0 is the baseline. A ratio
/// of rates timed in separate blocks carries whatever the host did
/// between the blocks, so here the sides take turns within every
/// round, and a slow stretch of the host lands on all of them alike.
/// After a warm-up, counts the runs that fill [`SIDE`] for each side,
/// then runs [`ROUNDS`] rounds. In a round each side runs its count
/// back to back, so a cache-bound side runs warm rather than after
/// another side has evicted it, and the side that goes first rotates
/// from round to round. After each round, `check` gets every side's
/// last output, outside the timed region.
pub(crate) fn paired<T>(sides: &mut [&mut dyn FnMut() -> T], check: impl FnMut(&[T])) -> Paired {
    let turns = calibrate(sides, SIDE);
    time_rounds(sides, ROUNDS, turns, check)
}

/// Runs each side once to warm up, then counts the runs back to back
/// that fill `side`; at least one.
fn calibrate<T>(sides: &mut [&mut dyn FnMut() -> T], side: Duration) -> Vec<usize> {
    let count = |run: &mut &mut dyn FnMut() -> T| {
        drop(run());
        let (started, mut runs) = (Instant::now(), 0);
        while started.elapsed() < side {
            drop(run());
            runs += 1;
        }
        runs.max(1)
    };
    sides.iter_mut().map(count).collect()
}

/// [`paired`]'s rounds, with the round count and runs a side passed in.
fn time_rounds<T>(
    sides: &mut [&mut dyn FnMut() -> T],
    rounds: usize,
    turns: Vec<usize>,
    mut check: impl FnMut(&[T]),
) -> Paired {
    let k = sides.len();
    assert!(k >= 2, "a paired measurement needs two sides");
    let secs = (0..rounds)
        .map(|round| {
            let mut secs = vec![0.0; k];
            let mut last: Vec<Option<T>> = (0..k).map(|_| None).collect();
            for i in (0..k).map(|j| (round + j) % k) {
                let mut runs = Vec::with_capacity(turns[i]);
                for _ in 0..turns[i] {
                    let t = Instant::now();
                    let out = sides[i]();
                    runs.push(t.elapsed().as_secs_f64());
                    last[i] = Some(out);
                }
                secs[i] = quartiles(&runs)[1];
            }
            check(&last.into_iter().flatten().collect::<Vec<T>>());
            secs
        })
        .collect();
    Paired { secs, turns }
}

/// Lower quartile, median and upper quartile of `v` (nearest rank).
pub(crate) fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| v[(v.len() - 1) * q / 4];
    [at(1), at(2), at(3)]
}

/// A figure's claim about a ratio: at least, or at most, a bound.
#[derive(Clone, Copy)]
pub(crate) enum Claim {
    AtLeast(f64),
    AtMost(f64),
}

/// The verdict on a [`Claim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    True,
    False,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::True => "true",
            Verdict::False => "false",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges `claim` over per-round `ratios`. Every round on the claimed
/// side of the bound gives true, every round on the other side gives
/// false. Otherwise the median decides, but only when it lies farther
/// from the bound than the interquartile range: a difference smaller
/// than the spread of the rounds themselves is unresolved.
pub(crate) fn verdict(ratios: &[f64], claim: Claim) -> Verdict {
    let (bound, holds): (f64, fn(f64, f64) -> bool) = match claim {
        Claim::AtLeast(b) => (b, |r, b| r >= b),
        Claim::AtMost(b) => (b, |r, b| r <= b),
    };
    let [q1, median, q3] = quartiles(ratios);
    let held = ratios.iter().filter(|&&r| holds(r, bound)).count();
    if held == ratios.len() {
        Verdict::True
    } else if held == 0 {
        Verdict::False
    } else if (median - bound).abs() <= q3 - q1 {
        Verdict::Unresolved
    } else if holds(median, bound) {
        Verdict::True
    } else {
        Verdict::False
    }
}

/// Whether a figure's speed claim must read true, or abort the run.
/// The bars bind optimised builds on hardware whose kernel dispatch
/// reaches at least AVX2; a debug build is dominated by bounds checks,
/// and on portable/non-x86 hosts the ratios are load- and
/// ISA-dependent, so there they are reported, not enforced.
/// `PM_ENFORCE_SPEEDUP=1` forces the assertions anywhere,
/// `PM_ENFORCE_SPEEDUP=0` disables them anywhere.
pub(crate) fn enforce_speedup() -> bool {
    match std::env::var("PM_ENFORCE_SPEEDUP").ok().as_deref() {
        Some("0") => false,
        Some(_) => true,
        None => cfg!(not(debug_assertions)) && simd_level() >= SimdLevel::Avx2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn verdict_over_fixed_ratios() {
        let at_least = Claim::AtLeast(2.0);
        let at_most = Claim::AtMost(2.0);
        // Every round above the bound, then every round below it.
        let above = [2.1, 2.5, 3.0, 2.2, 2.05];
        let below = [1.9, 1.5, 1.0, 1.8, 1.95];
        assert_eq!(verdict(&above, at_least), Verdict::True);
        assert_eq!(verdict(&below, at_least), Verdict::False);
        assert_eq!(verdict(&above, at_most), Verdict::False);
        assert_eq!(verdict(&below, at_most), Verdict::True);
        // A wide IQR straddling the bound: 1.5 .. 2.6, median 2.1.
        let wide = [1.0, 1.5, 2.1, 2.6, 3.0];
        assert_eq!(verdict(&wide, at_least), Verdict::Unresolved);
        assert_eq!(verdict(&wide, at_most), Verdict::Unresolved);
        // A narrow IQR above the bound (2.20 .. 2.24, median 2.22) with
        // one stray round below it, and the mirror image.
        let narrow_above = [1.5, 2.2, 2.22, 2.24, 2.3];
        let narrow_below = [1.7, 1.76, 1.78, 1.8, 2.5];
        assert_eq!(verdict(&narrow_above, at_least), Verdict::True);
        assert_eq!(verdict(&narrow_above, at_most), Verdict::False);
        assert_eq!(verdict(&narrow_below, at_least), Verdict::False);
        assert_eq!(verdict(&narrow_below, at_most), Verdict::True);
        // A narrow IQR whose median sits on the bound stays unresolved.
        let on_bound = [1.9, 1.99, 2.0, 2.01, 2.1];
        assert_eq!(verdict(&on_bound, at_least), Verdict::Unresolved);
        assert_eq!(verdict(&on_bound, at_most), Verdict::Unresolved);
    }

    #[test]
    fn sides_run_equally_often_and_take_turns_going_first() {
        for (rounds, turns) in [(7, vec![1, 1]), (7, vec![3; 4]), (9, vec![2, 1, 3, 1])] {
            let k = turns.len();
            let log = RefCell::new(Vec::new());
            let mut sides: Vec<_> = (0..k)
                .map(|i| {
                    let log = &log;
                    move || {
                        log.borrow_mut().push(i);
                        i
                    }
                })
                .collect();
            let mut refs: Vec<&mut dyn FnMut() -> usize> = sides
                .iter_mut()
                .map(|s| s as &mut dyn FnMut() -> usize)
                .collect();
            // The warm-up runs every side once; no time to fill, one run.
            assert_eq!(calibrate(&mut refs, Duration::ZERO), vec![1; k]);
            assert_eq!(log.take(), (0..k).collect::<Vec<_>>());
            let mut checked = 0;
            let p = time_rounds(&mut refs, rounds, turns.clone(), |last| {
                assert_eq!(last, (0..k).collect::<Vec<_>>());
                checked += 1;
            });
            assert_eq!((checked, &p.turns, p.secs.len()), (rounds, &turns, rounds));
            // Each round runs every side's turns as one block, and the
            // side that goes first rotates, so over the rounds each side
            // goes first equally often.
            let per_round: usize = turns.iter().sum();
            let log = log.take();
            assert_eq!(log.len(), rounds * per_round);
            for (round, runs) in log.chunks(per_round).enumerate() {
                let blocks: Vec<usize> = (0..k)
                    .map(|j| (round + j) % k)
                    .flat_map(|i| [i].repeat(turns[i]))
                    .collect();
                assert_eq!(runs, blocks, "turns {turns:?}: round {round}");
            }
        }
    }
}
