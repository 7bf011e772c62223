//! Property-based tests for the simulation kernel: the RNG and the
//! snapshot bulk primitives under arbitrary inputs.

use crate::snapshot::{fnv1a, Loader, PerWord, Saver, StateIo, WordDigest};
use crate::Rng;
use proptest::prelude::*;

proptest! {
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
