//! Visitor-style state persistence for checkpoint/restore.
//!
//! Every piece of mutable simulation state implements [`Persist`]: a single
//! `persist` method that either writes the state into a [`Saver`] or
//! overwrites it from a [`Loader`], depending on which [`StateIo`] it is
//! handed. One function for both directions means the save and load paths
//! cannot drift apart — the classic source of "restores but diverges"
//! checkpoint bugs.
//!
//! The wire format is deliberately primitive: every value is one
//! little-endian `u64` word. Floats travel as IEEE-754 bit patterns
//! ([`f64::to_bits`]), so a round trip is bit-exact; enums travel as integer
//! tags chosen by their defining crate, and a loaded tag, narrow integer or
//! `bool` no saver could have written fails the load (`admit_word`).
//! Large config-sized arrays (cache tags, predictor tables) move through
//! the bulk primitives [`StateIo::words`] and [`StateIo::byte_words`],
//! which write exactly the words the per-word path writes.
//!
//! Config-derived state (sizing constants, precomputed tables) is *not*
//! persisted — a restore first reconstructs it from the same
//! configuration, then overlays the mutable state recorded here.
//!
//! Containers follow the lint-rule-D001 discipline: ordered maps and sets
//! serialize in key order, so a checkpoint's bytes are as deterministic as
//! the simulation that produced them.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The I/O direction a [`Persist::persist`] call runs in: a [`Saver`]
/// serializing state out, or a [`Loader`] overwriting state from a
/// checkpoint.
pub trait StateIo {
    /// `true` when this visitor is serializing (a [`Saver`]).
    fn saving(&self) -> bool;

    /// Saves or loads one 64-bit word — the only primitive of the format.
    fn word(&mut self, v: &mut u64);

    /// Saves or loads a run of words in one call. The stream, and a
    /// loader's behaviour on a short stream, are exactly those of calling
    /// [`StateIo::word`] on each element in order; visitors override it
    /// only to move the run in bulk.
    fn words(&mut self, vs: &mut [u64]) {
        for v in vs {
            self.word(v);
        }
    }

    /// Saves or loads a run of byte-sized values in place, each as one
    /// zero-extended word (the stream of [`StateIo::word`] per element). A
    /// loaded word above `max` is rejected through `admit_word` and reads
    /// as 0, exactly as the per-element decode would.
    fn byte_words(&mut self, vs: &mut [u8], max: u8) {
        for v in vs {
            let mut w = u64::from(*v);
            self.word(&mut w);
            *v = admit_byte(self, w, max);
        }
    }

    /// The number of elements a container may load for the length word
    /// `len` just visited. Every element persists at least one word, so a
    /// [`Loader`] with fewer than `len` words left rejects the length
    /// (poisoning itself) and answers 0; nothing is allocated for a
    /// corrupt length. Savers pass `len` through.
    fn admit_len(&mut self, len: u64) -> u64 {
        len
    }

    /// Reports a loaded value that contradicts the configured state (a
    /// fixed slice length, an enum tag). A [`Loader`] poisons itself with
    /// `why`, so [`Loader::finish`] returns it as an error; savers only
    /// ever visit their own values, so they cannot disagree and ignore it.
    fn reject(&mut self, _why: String) {}
}

/// Accepts a loaded word when `valid`; otherwise rejects it through
/// [`StateIo::reject`] and answers 0. The one check behind every enum tag,
/// narrow integer and `bool` a loader decodes, so a forged word fails the
/// load instead of decoding to some default. A saving visitor only sees
/// the state's own values and passes them through unchanged.
fn admit_word<I: StateIo + ?Sized>(io: &mut I, w: u64, valid: bool, what: &str) -> u64 {
    if valid || io.saving() {
        return w;
    }
    io.reject(format!(
        "checkpoint stream corrupt: {w:#x} is not a valid {what}"
    ));
    0
}

/// `admit_word` for a byte-sized value of at most `max`.
fn admit_byte<I: StateIo + ?Sized>(io: &mut I, w: u64, max: u8) -> u8 {
    let w = admit_word(io, w, w <= u64::from(max), "byte-sized value");
    u8::try_from(w).unwrap_or(0)
}

/// Saves or loads an enum's tag word. `tag` is the saver's encoding of the
/// current variant, one of `0..count`; a loaded tag of `count` or more is
/// rejected and reads as 0. Returns the tag to decode.
pub fn persist_tag(io: &mut dyn StateIo, tag: u64, count: u64, what: &str) -> u64 {
    let mut w = tag;
    io.word(&mut w);
    admit_word(io, w, w < count, what)
}

/// State that can round-trip through a checkpoint.
pub trait Persist {
    /// Visits every mutable field in a fixed order, writing it to or
    /// reading it from `io`.
    fn persist(&mut self, io: &mut dyn StateIo);
}

/// Serializes state into an in-memory byte buffer.
#[derive(Default)]
pub struct Saver {
    buf: Vec<u8>,
}

impl Saver {
    /// An empty saver.
    #[must_use]
    pub fn new() -> Self {
        Saver::default()
    }

    /// An empty saver whose buffer holds `bytes` before it reallocates;
    /// sized from a previous image of the same state, the image is built
    /// in one allocation.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Saver {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The serialized bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends `words` zeroed words and returns them for filling.
    fn grow(&mut self, words: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + words * 8, 0);
        &mut self.buf[start..]
    }
}

impl StateIo for Saver {
    fn saving(&self) -> bool {
        true
    }

    fn word(&mut self, v: &mut u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn words(&mut self, vs: &mut [u64]) {
        for (out, v) in self.grow(vs.len()).chunks_exact_mut(8).zip(vs.iter()) {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn byte_words(&mut self, vs: &mut [u8], _max: u8) {
        // Each word is the byte followed by seven zero bytes.
        for (out, v) in self.grow(vs.len()).chunks_exact_mut(8).zip(vs.iter()) {
            out[0] = *v;
        }
    }
}

/// Deserializes state from a byte buffer.
///
/// A short read or an impossible length word poisons the loader (every
/// later word reads as zero) instead of panicking; callers check
/// [`Loader::finish`] after the visit, which also rejects trailing bytes —
/// a stream that is too long or too short means the checkpoint was produced
/// by a different state layout.
pub struct Loader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Why the stream was rejected, once it has been.
    poisoned: Option<String>,
}

impl<'a> Loader<'a> {
    /// A loader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Loader {
            buf: bytes,
            pos: 0,
            poisoned: None,
        }
    }

    /// Whole words not yet consumed.
    #[must_use]
    pub fn remaining_words(&self) -> u64 {
        ((self.buf.len() - self.pos) / 8) as u64
    }

    /// Validates that the visit consumed the buffer exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch (short read, impossible
    /// length word, or trailing bytes).
    pub fn finish(self) -> Result<(), String> {
        if let Some(why) = self.poisoned {
            return Err(why);
        }
        if self.pos != self.buf.len() {
            return Err(format!(
                "checkpoint stream too long: {} of {} bytes consumed",
                self.pos,
                self.buf.len()
            ));
        }
        Ok(())
    }

    fn poison_short(&mut self) {
        self.poisoned = Some(format!(
            "checkpoint stream too short: needed more than {} bytes",
            self.buf.len()
        ));
    }
}

impl StateIo for Loader<'_> {
    fn saving(&self) -> bool {
        false
    }

    fn word(&mut self, v: &mut u64) {
        *v = 0;
        if self.poisoned.is_some() {
            return;
        }
        match self.buf.get(self.pos..self.pos + 8) {
            Some(chunk) => {
                *v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                self.pos += 8;
            }
            None => self.poison_short(),
        }
    }

    fn words(&mut self, vs: &mut [u64]) {
        // The whole words that are there, then zeros and the poison a
        // word-at-a-time read of the same run ends with.
        let have = if self.poisoned.is_some() {
            0
        } else {
            vs.len().min((self.buf.len() - self.pos) / 8)
        };
        let (read, missing) = vs.split_at_mut(have);
        let end = self.pos + have * 8;
        for (v, chunk) in read.iter_mut().zip(self.buf[self.pos..end].chunks_exact(8)) {
            *v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        self.pos = end;
        missing.fill(0);
        if !missing.is_empty() && self.poisoned.is_none() {
            self.poison_short();
        }
    }

    fn admit_len(&mut self, len: u64) -> u64 {
        // A poisoned loader reads every length as 0, which always fits.
        let left = self.remaining_words();
        if len <= left {
            return len;
        }
        self.reject(format!(
            "checkpoint stream corrupt: a length word of {len} exceeds the {left} words left"
        ));
        0
    }

    fn reject(&mut self, why: String) {
        // The first reason wins: later ones are read from a zeroed stream.
        self.poisoned.get_or_insert(why);
    }
}

macro_rules! persist_as_word {
    ($($t:ty),+) => {$(
        impl Persist for $t {
            // A loaded word must round-trip through the saver's own cast.
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_possible_wrap
            )]
            fn persist(&mut self, io: &mut dyn StateIo) {
                let mut w = *self as u64;
                io.word(&mut w);
                let w = admit_word(io, w, (w as $t) as u64 == w, stringify!($t));
                *self = w as $t;
            }
        }
    )+};
}

persist_as_word!(u64, u32, u16, u8, usize, i64, i32);

impl Persist for bool {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut w = u64::from(*self);
        io.word(&mut w);
        *self = admit_word(io, w, w <= 1, "bool") != 0;
    }
}

impl Persist for f64 {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut w = self.to_bits();
        io.word(&mut w);
        *self = f64::from_bits(w);
    }
}

impl Persist for SimTime {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut w = self.as_nanos();
        io.word(&mut w);
        *self = SimTime::from_nanos(w);
    }
}

impl Persist for SimDuration {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let mut w = self.as_nanos();
        io.word(&mut w);
        *self = SimDuration::from_nanos(w);
    }
}

impl Persist for Rng {
    // jas-lint: allow(D009, reason = "the full RNG state s is visited through the state_mut() accessor")
    fn persist(&mut self, io: &mut dyn StateIo) {
        for w in self.state_mut() {
            io.word(w);
        }
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
        self.1.persist(io);
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
        self.1.persist(io);
        self.2.persist(io);
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn persist(&mut self, io: &mut dyn StateIo) {
        for item in self.iter_mut() {
            item.persist(io);
        }
    }
}

impl<T: Persist + Default> Persist for Vec<T> {
    fn persist(&mut self, io: &mut dyn StateIo) {
        persist_vec(io, self);
    }
}

impl<T: Persist + Default> Persist for VecDeque<T> {
    fn persist(&mut self, io: &mut dyn StateIo) {
        persist_deque(io, self);
    }
}

impl<T: Persist + Default> Persist for Option<T> {
    fn persist(&mut self, io: &mut dyn StateIo) {
        persist_opt(io, self);
    }
}

/// Persists a growable vector whose elements need a constructor (state
/// that cannot be `Default`-built without configuration).
pub fn persist_vec_with<T: Persist>(
    io: &mut dyn StateIo,
    v: &mut Vec<T>,
    mut make: impl FnMut() -> T,
) {
    let mut len = v.len() as u64;
    io.word(&mut len);
    if !io.saving() {
        v.clear();
        for _ in 0..io.admit_len(len) {
            v.push(make());
        }
    }
    for item in v.iter_mut() {
        item.persist(io);
    }
}

/// Persists a growable vector of default-constructible elements.
pub fn persist_vec<T: Persist + Default>(io: &mut dyn StateIo, v: &mut Vec<T>) {
    persist_vec_with(io, v, T::default);
}

/// Persists a double-ended queue of default-constructible elements.
pub fn persist_deque<T: Persist + Default>(io: &mut dyn StateIo, v: &mut VecDeque<T>) {
    let mut len = v.len() as u64;
    io.word(&mut len);
    if !io.saving() {
        v.clear();
        for _ in 0..io.admit_len(len) {
            v.push_back(T::default());
        }
    }
    for item in v.iter_mut() {
        item.persist(io);
    }
}

/// Persists a fixed-size slice whose length is config-derived: the length
/// is recorded for validation but never resizes the slice. A loaded length
/// that disagrees (configuration drift, or a forged stream) is rejected
/// through [`StateIo::reject`].
pub fn persist_slice<T: Persist>(io: &mut dyn StateIo, v: &mut [T]) {
    persist_slice_len(io, v.len());
    for item in v.iter_mut() {
        item.persist(io);
    }
}

/// The length word of a config-sized slice of `len` elements.
fn persist_slice_len(io: &mut dyn StateIo, len: usize) {
    let mut w = len as u64;
    io.word(&mut w);
    if w != len as u64 {
        io.reject(format!(
            "checkpoint slice length mismatch: stream has {w}, configuration has {len}"
        ));
    }
}

/// [`persist_slice`] for a slice of words, moved through
/// [`StateIo::words`]: the same stream in one call.
pub fn persist_word_slice(io: &mut dyn StateIo, v: &mut [u64]) {
    persist_slice_len(io, v.len());
    io.words(v);
}

/// [`persist_slice`] for a slice of `N`-word rows (each row persisted as
/// its words in order, like a tuple of words), moved through
/// [`StateIo::words`] in one call.
pub fn persist_word_rows<const N: usize>(io: &mut dyn StateIo, v: &mut [[u64; N]]) {
    persist_slice_len(io, v.len());
    io.words(v.as_flattened_mut());
}

/// [`persist_slice`] for byte-sized elements — `u8` counters, fieldless
/// enums — each one word holding `to_byte(element)` of at most `max`. The
/// elements pass through [`StateIo::byte_words`] a small stack chunk at a
/// time, so no heap buffer is allocated; a loaded word above `max` is
/// rejected and its element decodes from 0.
pub fn persist_byte_slice<T: Copy>(
    io: &mut dyn StateIo,
    v: &mut [T],
    max: u8,
    to_byte: impl Fn(T) -> u8,
    from_byte: impl Fn(u8) -> T,
) {
    persist_slice_len(io, v.len());
    let mut chunk = [0u8; 512];
    for part in v.chunks_mut(chunk.len()) {
        let bytes = &mut chunk[..part.len()];
        for (b, item) in bytes.iter_mut().zip(part.iter()) {
            *b = to_byte(*item);
        }
        io.byte_words(bytes, max);
        for (item, b) in part.iter_mut().zip(bytes.iter()) {
            *item = from_byte(*b);
        }
    }
}

/// Persists an optional value needing a constructor.
pub fn persist_opt_with<T: Persist>(
    io: &mut dyn StateIo,
    v: &mut Option<T>,
    make: impl FnOnce() -> T,
) {
    let mut present = u64::from(v.is_some());
    io.word(&mut present);
    if !io.saving() {
        *v = if present != 0 { Some(make()) } else { None };
    }
    if let Some(inner) = v.as_mut() {
        inner.persist(io);
    }
}

/// Persists an optional default-constructible value.
pub fn persist_opt<T: Persist + Default>(io: &mut dyn StateIo, v: &mut Option<T>) {
    persist_opt_with(io, v, T::default);
}

/// Persists an ordered map in key order (lint rule D001 guarantees the
/// iteration order is deterministic, so the serialized bytes are too).
pub fn persist_map<K, V>(io: &mut dyn StateIo, m: &mut BTreeMap<K, V>)
where
    K: Persist + Default + Ord + Copy,
    V: Persist + Default,
{
    let mut len = m.len() as u64;
    io.word(&mut len);
    if io.saving() {
        for (k, v) in m.iter_mut() {
            let mut key = *k;
            key.persist(io);
            v.persist(io);
        }
    } else {
        m.clear();
        for _ in 0..io.admit_len(len) {
            let mut k = K::default();
            k.persist(io);
            let mut v = V::default();
            v.persist(io);
            m.insert(k, v);
        }
    }
}

/// Persists an ordered set in element order.
pub fn persist_set<K>(io: &mut dyn StateIo, s: &mut BTreeSet<K>)
where
    K: Persist + Default + Ord + Copy,
{
    let mut len = s.len() as u64;
    io.word(&mut len);
    if io.saving() {
        for k in s.iter() {
            let mut key = *k;
            key.persist(io);
        }
    } else {
        s.clear();
        for _ in 0..io.admit_len(len) {
            let mut k = K::default();
            k.persist(io);
            s.insert(k);
        }
    }
}

/// A visitor that forwards only the per-word primitive (and the length and
/// rejection hooks) of the visitor it wraps, so every run of words goes
/// through the trait's word-at-a-time default bodies. It is the reference
/// the bulk overrides of [`Saver`] and [`Loader`] are checked against:
/// both must produce the same bytes, the same loaded state and the same
/// [`Loader::finish`] result.
pub struct PerWord<S>(pub S);

impl<S: StateIo> StateIo for PerWord<S> {
    fn saving(&self) -> bool {
        self.0.saving()
    }

    fn word(&mut self, v: &mut u64) {
        self.0.word(v);
    }

    fn admit_len(&mut self, len: u64) -> u64 {
        self.0.admit_len(len)
    }

    fn reject(&mut self, why: String) {
        self.0.reject(why);
    }
}

/// The 64-bit FNV-1a offset basis: the starting value of every digest in
/// the stack.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the one digest primitive of the stack: the
/// `.jckpt` container, the engine's probe digest, the trace/fault/fleet
/// digests ([`WordDigest`]) and the scenario-spec digest all fold with it.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET_BASIS, |hash, &b| fnv1a_byte(hash, b))
}

#[inline]
fn fnv1a_byte(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Incremental FNV-1a over 64-bit words (each folded as its eight
/// little-endian bytes), for cheap structural digests.
#[derive(Clone, Copy, Debug)]
pub struct WordDigest {
    hash: u64,
}

impl Default for WordDigest {
    fn default() -> Self {
        WordDigest {
            hash: FNV_OFFSET_BASIS,
        }
    }
}

impl WordDigest {
    /// A fresh digest at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        WordDigest::default()
    }

    /// Mixes one word.
    #[inline]
    pub fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.hash = fnv1a_byte(self.hash, byte);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.hash
    }
}

impl StateIo for WordDigest {
    fn saving(&self) -> bool {
        true
    }

    fn word(&mut self, v: &mut u64) {
        self.mix(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, PartialEq, Debug, Clone)]
    struct Demo {
        a: u64,
        b: f64,
        c: Vec<u32>,
        d: Option<(u64, bool)>,
        e: BTreeMap<u32, u64>,
    }

    impl Persist for Demo {
        fn persist(&mut self, io: &mut dyn StateIo) {
            self.a.persist(io);
            self.b.persist(io);
            persist_vec(io, &mut self.c);
            persist_opt(io, &mut self.d);
            persist_map(io, &mut self.e);
        }
    }

    #[test]
    fn round_trip_restores_bitwise() {
        let mut d = Demo {
            a: 42,
            b: -0.125,
            c: vec![1, 2, 3],
            d: Some((7, true)),
            e: [(3, 30), (1, 10)].into_iter().collect(),
        };
        let mut saver = Saver::new();
        d.persist(&mut saver);
        let bytes = saver.into_bytes();
        let mut fresh = Demo::default();
        let mut loader = Loader::new(&bytes);
        fresh.persist(&mut loader);
        loader.finish().expect("exact stream");
        assert_eq!(fresh, d);
    }

    #[test]
    fn nan_and_negative_zero_round_trip_bit_exact() {
        for v in [f64::NAN, -0.0, f64::INFINITY, f64::MIN_POSITIVE] {
            let mut x = v;
            let mut saver = Saver::new();
            x.persist(&mut saver);
            let bytes = saver.into_bytes();
            let mut y = 0.0;
            let mut loader = Loader::new(&bytes);
            y.persist(&mut loader);
            loader.finish().expect("exact stream");
            assert_eq!(y.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn rng_round_trip_preserves_the_stream() {
        let mut src = Rng::new(99);
        src.next_u64();
        let mut saver = Saver::new();
        src.clone().persist(&mut saver);
        let bytes = saver.into_bytes();
        let mut restored = Rng::new(0);
        let mut loader = Loader::new(&bytes);
        restored.persist(&mut loader);
        loader.finish().expect("exact stream");
        for _ in 0..16 {
            assert_eq!(src.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn short_and_long_streams_are_rejected() {
        let mut d = Demo {
            c: vec![5],
            ..Demo::default()
        };
        let mut saver = Saver::new();
        d.persist(&mut saver);
        let bytes = saver.into_bytes();

        let mut short = Demo::default();
        let mut loader = Loader::new(&bytes[..bytes.len() - 8]);
        short.persist(&mut loader);
        assert!(loader.finish().is_err(), "short stream must be rejected");

        let mut long = bytes.clone();
        long.extend_from_slice(&0u64.to_le_bytes());
        let mut trailing = Demo::default();
        let mut loader = Loader::new(&long);
        trailing.persist(&mut loader);
        assert!(loader.finish().is_err(), "trailing bytes must be rejected");
    }

    /// A forged length word far beyond the stream is rejected before any
    /// element is built, for every length-prefixed container.
    #[test]
    fn huge_length_words_poison_without_allocating() {
        let bytes = (1u64 << 40).to_le_bytes();

        let mut v: Vec<u64> = Vec::new();
        let mut loader = Loader::new(&bytes);
        persist_vec(&mut loader, &mut v);
        assert!(v.is_empty());
        let err = loader
            .finish()
            .expect_err("forged vec length must be rejected");
        assert!(err.contains("length word of 1099511627776"), "{err}");

        let mut q: VecDeque<u64> = VecDeque::new();
        let mut loader = Loader::new(&bytes);
        persist_deque(&mut loader, &mut q);
        assert!(q.is_empty());
        assert!(loader.finish().is_err());

        let mut m: BTreeMap<u64, u64> = BTreeMap::new();
        let mut loader = Loader::new(&bytes);
        persist_map(&mut loader, &mut m);
        assert!(m.is_empty());
        assert!(loader.finish().is_err());

        let mut set: BTreeSet<u64> = BTreeSet::new();
        let mut loader = Loader::new(&bytes);
        persist_set(&mut loader, &mut set);
        assert!(set.is_empty());
        assert!(loader.finish().is_err());
    }

    /// A length one past the words left is rejected; the exact count
    /// loads, and the poisoned loader reads zeros for the rest of the visit.
    #[test]
    fn length_words_are_bounded_by_the_words_left() {
        let mut d = Demo {
            c: vec![7, 8, 9],
            d: Some((1, false)),
            ..Demo::default()
        };
        let mut saver = Saver::new();
        d.persist(&mut saver);
        let mut bytes = saver.into_bytes();
        let mut exact = Demo::default();
        let mut loader = Loader::new(&bytes);
        exact.persist(&mut loader);
        loader.finish().expect("exact stream");
        assert_eq!(exact, d);

        // Words: a, b, len(c), c[0..3], present(d), d.0, d.1, len(e).
        let left_after_len = (bytes.len() / 8 - 3) as u64;
        bytes[16..24].copy_from_slice(&(left_after_len + 1).to_le_bytes());
        let mut forged = Demo::default();
        let mut loader = Loader::new(&bytes);
        assert_eq!(loader.remaining_words(), (bytes.len() / 8) as u64);
        forged.persist(&mut loader);
        assert!(forged.c.is_empty() && forged.d.is_none());
        assert!(loader.finish().is_err());
    }

    /// A fixed slice whose loaded length disagrees with the configured one
    /// poisons the loader instead of panicking.
    #[test]
    fn slice_length_mismatch_is_an_error() {
        let mut three = [1u64, 2, 3];
        let mut saver = Saver::new();
        persist_slice(&mut saver, &mut three);
        let bytes = saver.into_bytes();
        let mut four = [0u64; 4];
        let mut loader = Loader::new(&bytes);
        persist_slice(&mut loader, &mut four);
        let err = loader.finish().expect_err("length mismatch is rejected");
        assert!(err.contains("slice length mismatch"), "{err}");
    }

    /// Loads `bytes` into a `T` and returns the loader's verdict.
    fn load<T: Persist + Default>(bytes: &[u8]) -> Result<T, String> {
        let mut v = T::default();
        let mut loader = Loader::new(bytes);
        v.persist(&mut loader);
        loader.finish().map(|()| v)
    }

    fn words_of(ws: &[u64]) -> Vec<u8> {
        ws.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// A narrow integer or `bool` loads only words its saver could have
    /// written; in-range values (sign-extended for `i32`) still load.
    #[test]
    fn narrow_words_must_round_trip() {
        assert!(load::<u8>(&words_of(&[256])).is_err());
        assert!(load::<u16>(&words_of(&[1 << 16])).is_err());
        assert!(load::<u32>(&words_of(&[1 << 32])).is_err());
        assert!(load::<i32>(&words_of(&[1 << 31])).is_err());
        assert!(load::<bool>(&words_of(&[2])).is_err());
        assert_eq!(load::<u8>(&words_of(&[255])), Ok(255));
        assert_eq!(load::<i32>(&words_of(&[u64::MAX])), Ok(-1));
        assert_eq!(load::<bool>(&words_of(&[1])), Ok(true));
        let err = load::<u32>(&words_of(&[1 << 32])).unwrap_err();
        assert!(err.contains("not a valid u32"), "{err}");
    }

    /// An enum tag at or past the variant count is rejected and reads 0.
    #[test]
    fn out_of_range_tags_are_rejected() {
        let bytes = words_of(&[3]);
        let mut loader = Loader::new(&bytes);
        assert_eq!(persist_tag(&mut loader, 0, 3, "demo tag"), 0);
        let err = loader.finish().unwrap_err();
        assert!(err.contains("0x3 is not a valid demo tag"), "{err}");
        let bytes = words_of(&[2]);
        let mut loader = Loader::new(&bytes);
        assert_eq!(persist_tag(&mut loader, 0, 3, "demo tag"), 2);
        loader.finish().expect("in range");
    }

    /// Saves `words` and `bytes` through the bulk helpers with `io`.
    fn bulk(io: &mut dyn StateIo, words: &mut [u64], rows: &mut [[u64; 2]], bytes: &mut [u8]) {
        persist_word_slice(io, words);
        persist_word_rows(io, rows);
        persist_byte_slice(io, bytes, 3, |b| b, |b| b);
    }

    /// The bulk helpers write, digest and load exactly what the
    /// word-at-a-time path does, for every truncation of the stream.
    #[test]
    fn bulk_runs_match_the_per_word_path() {
        let mut words = [1u64, u64::MAX, 3];
        let mut rows = [[4u64, 5], [6, 7]];
        let mut bytes = [0u8, 3, 1, 2];
        let mut fast = Saver::new();
        bulk(&mut fast, &mut words, &mut rows, &mut bytes);
        let mut slow = PerWord(Saver::new());
        bulk(&mut slow, &mut words, &mut rows, &mut bytes);
        let image = fast.into_bytes();
        assert_eq!(image, slow.0.into_bytes());
        assert_eq!(image.len(), 8 * (1 + 3 + 1 + 4 + 1 + 4));
        let mut fast = WordDigest::new();
        bulk(&mut fast, &mut words, &mut rows, &mut bytes);
        assert_eq!(fast.value(), fnv1a(&image));

        let loaded = |io: &mut dyn StateIo| {
            let (mut w, mut r, mut b) = ([9u64; 3], [[9u64; 2]; 2], [9u8; 4]);
            bulk(io, &mut w, &mut r, &mut b);
            (w, r, b)
        };
        for cut in 0..=image.len() {
            let mut fast = Loader::new(&image[..cut]);
            let mut slow = PerWord(Loader::new(&image[..cut]));
            assert_eq!(loaded(&mut fast), loaded(&mut slow), "cut at byte {cut}");
            assert_eq!(fast.finish(), slow.0.finish(), "cut at byte {cut}");
        }
        let mut bad = image.clone();
        bad[8 * 11..8 * 12].copy_from_slice(&4u64.to_le_bytes());
        let mut fast = Loader::new(&bad);
        let mut slow = PerWord(Loader::new(&bad));
        assert_eq!(loaded(&mut fast), loaded(&mut slow));
        let err = fast.finish().unwrap_err();
        assert_eq!(Err(err.clone()), slow.0.finish());
        assert!(err.contains("0x4 is not a valid byte-sized value"), "{err}");
    }

    #[test]
    fn word_digest_matches_byte_fnv() {
        let mut d = WordDigest::new();
        d.mix(0xDEAD_BEEF);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        assert_eq!(d.value(), fnv1a(&bytes));
    }
}
