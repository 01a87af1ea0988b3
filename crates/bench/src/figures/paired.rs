//! The one estimator behind every gated ratio in the figures:
//! [`paired`] times the sides of a comparison, [`verdict`] judges a
//! claim on the per-round ratios.

use pm_systolic::superplane::{simd_level, SimdLevel};
use std::fmt;
use std::time::{Duration, Instant};

/// Rounds per measurement. A debug build, where the figures run as
/// smoke tests, runs just enough to rotate the first side.
const ROUNDS: usize = if cfg!(debug_assertions) { 2 } else { 15 };
/// Time each side runs per round, on average (at least one run).
const SIDE: Duration = Duration::from_millis(if cfg!(debug_assertions) { 0 } else { 20 });

/// A [`paired`] measurement.
pub(crate) struct Paired {
    /// `secs[round][side]`: the median of that side's runs in the round.
    secs: Vec<Vec<f64>>,
    /// Runs of each side per round.
    turns: usize,
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
        let (rounds, turns) = (self.secs.len(), self.turns);
        format!("paired medians over {rounds} rounds, {turns} run(s) a side per round")
    }
}

/// Times `sides` against each other; side 0 is the baseline. A ratio
/// of rates timed in separate blocks carries whatever the host did
/// between the blocks, so here the sides take turns run by run, and a
/// slow stretch of the host lands on all of them alike. After a warm-up
/// turn (one run of every side), counts the turns that fill [`SIDE`]
/// per side, then runs [`ROUNDS`] rounds of that many turns, rotating
/// which side goes first. After each round, `check` gets every side's
/// last output, outside the timed region.
pub(crate) fn paired<T>(sides: &mut [&mut dyn FnMut() -> T], check: impl FnMut(&[T])) -> Paired {
    time_rounds(sides, ROUNDS, SIDE, check)
}

/// [`paired`] with the round count and side time passed in.
fn time_rounds<T>(
    sides: &mut [&mut dyn FnMut() -> T],
    rounds: usize,
    side: Duration,
    mut check: impl FnMut(&[T]),
) -> Paired {
    let k = sides.len();
    assert!(k >= 2, "a paired measurement needs two sides");
    sides.iter_mut().for_each(|run| drop(run()));
    let (started, mut turns) = (Instant::now(), 0);
    while started.elapsed() < side * k as u32 {
        sides.iter_mut().for_each(|run| drop(run()));
        turns += 1;
    }
    let turns = turns.max(1);
    let secs = (0..rounds)
        .map(|round| {
            let mut secs = vec![Vec::with_capacity(turns); k];
            let mut last: Vec<Option<T>> = (0..k).map(|_| None).collect();
            for _ in 0..turns {
                for i in (0..k).map(|j| (round + j) % k) {
                    let t = Instant::now();
                    let out = sides[i]();
                    secs[i].push(t.elapsed().as_secs_f64());
                    last[i] = Some(out);
                }
            }
            check(&last.into_iter().flatten().collect::<Vec<T>>());
            secs.iter().map(|s| quartiles(s)[1]).collect()
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
        for (k, rounds) in [(2, 7), (4, 7), (4, 9)] {
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
            let mut checked = 0;
            let p = time_rounds(&mut refs, rounds, Duration::ZERO, |last| {
                assert_eq!(last, (0..k).collect::<Vec<_>>());
                checked += 1;
            });
            assert_eq!((checked, p.turns, p.secs.len()), (rounds, 1, rounds));
            let log = log.take();
            for i in 0..k {
                let runs = log.iter().filter(|&&s| s == i).count();
                assert_eq!(runs, 1 + rounds, "k={k}: side {i} ran {runs} times");
                // Skip the warm-up turn; each round is one turn of k runs.
                let firsts = log[k..].chunks(k).filter(|turn| turn[0] == i).count();
                assert!(
                    firsts == rounds / k || firsts == rounds.div_ceil(k),
                    "k={k}: side {i} went first in {firsts} of {rounds} rounds"
                );
            }
        }
    }
}
