//! Property-based tests for the simulation kernel: scheduler ordering,
//! series-recorder conservation and the snapshot bulk primitives under
//! arbitrary inputs.

use crate::snapshot::{fnv1a, Loader, PerWord, Saver, StateIo, WordDigest};
use crate::{Rng, Scheduler, SeriesRecorder, SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    /// Events fire in non-decreasing time order with FIFO tie-breaking,
    /// regardless of scheduling order.
    #[test]
    fn scheduler_fires_in_order(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        for (seq, &ms) in delays.iter().enumerate() {
            let log = log.clone();
            s.schedule(SimTime::from_millis(ms), move |_| {
                log.borrow_mut().push((ms, seq));
            });
        }
        s.run_to_completion();
        let fired = log.borrow();
        prop_assert_eq!(fired.len(), delays.len());
        for pair in fired.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// The clock after run_until is exactly the deadline, and no event with
    /// a later firing time has run.
    #[test]
    fn run_until_respects_the_deadline(
        delays in proptest::collection::vec(1u64..1_000, 1..50),
        deadline in 0u64..1_000,
    ) {
        let fired: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        for &ms in &delays {
            let fired = fired.clone();
            s.schedule(SimTime::from_millis(ms), move |_| fired.borrow_mut().push(ms));
        }
        s.run_until(SimTime::from_millis(deadline));
        prop_assert_eq!(s.now(), SimTime::from_millis(deadline));
        for &ms in fired.borrow().iter() {
            prop_assert!(ms <= deadline);
        }
        let expected = delays.iter().filter(|&&ms| ms <= deadline).count();
        prop_assert_eq!(fired.borrow().len(), expected);
    }

    /// The series recorder conserves the cumulative total: the sum of all
    /// window deltas equals the final cumulative value.
    #[test]
    fn series_recorder_conserves_totals(
        increments in proptest::collection::vec((1u64..500, 0.0..100.0f64), 1..100),
        period_ms in 1u64..50,
    ) {
        let mut rec = SeriesRecorder::new(SimDuration::from_millis(period_ms));
        let mut t = SimTime::ZERO;
        let mut cumulative = 0.0;
        for (gap_ms, inc) in increments {
            t += SimDuration::from_millis(gap_ms);
            cumulative += inc;
            rec.observe(t, cumulative);
        }
        rec.finish(t);
        let total: f64 = rec.samples().iter().map(|s| s.value).sum();
        // The final window may be partial; conservation holds up to the last
        // observation's accumulation.
        prop_assert!(
            (total - cumulative).abs() <= cumulative.max(1.0) * 1e-9,
            "total {total} vs cumulative {cumulative}"
        );
    }

    /// Uniform draws stay in range for arbitrary bounds.
    #[test]
    fn rng_next_range_in_bounds(seed in any::<u64>(), lo in 0u64..1_000, span in 0u64..1_000) {
        let hi = lo + span;
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            let x = rng.next_range(lo, hi);
            prop_assert!((lo..=hi).contains(&x));
        }
    }

    /// Forked streams never coincide with their parent's subsequent output.
    #[test]
    fn rng_forks_diverge(seed in any::<u64>()) {
        let mut parent = Rng::new(seed);
        let mut fork = parent.fork("child");
        let matches = (0..64).filter(|_| parent.next_u64() == fork.next_u64()).count();
        prop_assert!(matches <= 1, "fork tracked parent ({matches} matches)");
    }

    /// A random run of words and of bounded bytes moves through the bulk
    /// primitives exactly as it does word by word: the same saved bytes and
    /// digest, and for a stream cut anywhere, the same loaded values and
    /// the same `finish()` verdict (short stream or rejected byte).
    #[test]
    fn bulk_runs_match_word_by_word(
        words in proptest::collection::vec(any::<u64>(), 0..40),
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
        max in any::<u8>(),
        cut_permille in 0usize..=1_000,
    ) {
        let visit = |io: &mut dyn StateIo, w: &mut [u64], b: &mut [u8]| {
            io.words(w);
            io.byte_words(b, max);
        };
        let (mut w, mut b) = (words.clone(), bytes.clone());
        let mut fast = Saver::new();
        visit(&mut fast, &mut w, &mut b);
        let mut slow = PerWord(Saver::new());
        visit(&mut slow, &mut w, &mut b);
        let image = fast.into_bytes();
        prop_assert_eq!(&image, &slow.0.into_bytes());
        let mut digest = WordDigest::new();
        visit(&mut digest, &mut w, &mut b);
        prop_assert_eq!(digest.value(), fnv1a(&image));

        let cut = image.len() * cut_permille / 1_000;
        let mut fast = Loader::new(&image[..cut]);
        let mut slow = PerWord(Loader::new(&image[..cut]));
        let (mut fw, mut fb) = (vec![7; words.len()], vec![7; bytes.len()]);
        let (mut sw, mut sb) = (fw.clone(), fb.clone());
        visit(&mut fast, &mut fw, &mut fb);
        visit(&mut slow, &mut sw, &mut sb);
        prop_assert_eq!((&fw, &fb), (&sw, &sb));
        prop_assert_eq!(fast.finish(), slow.0.finish());
    }
}
