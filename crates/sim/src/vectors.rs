//! Primary-input sequences and flip-flop state vectors.

use std::fmt;

use crate::logic::V3;

/// A flip-flop state vector: one [`V3`] per flip-flop, in [`FfId`] order.
///
/// [`FfId`]: atspeed_circuit::FfId
pub type State = Vec<V3>;

/// A time-major sequence of primary-input vectors.
///
/// `seq.vector(t)[i]` is the value applied to primary input `i` at time unit
/// `t`. In the paper's notation this is a sequence `T`, applied with the
/// functional clock (at speed). The paper's subsequence notation
/// `T[u1, u2]` corresponds to [`Sequence::subrange`].
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Sequence {
    vectors: Vec<Vec<V3>>,
}

impl Sequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Sequence::default()
    }

    /// Creates a sequence from time-major vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have differing widths.
    pub fn from_vectors(vectors: Vec<Vec<V3>>) -> Self {
        if let Some(first) = vectors.first() {
            let w = first.len();
            assert!(
                vectors.iter().all(|v| v.len() == w),
                "all vectors in a sequence must have the same width"
            );
        }
        Sequence { vectors }
    }

    /// The number of time units (`L(T)` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the sequence has no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// The primary-input vector applied at time `t`.
    #[inline]
    pub fn vector(&self, t: usize) -> &[V3] {
        &self.vectors[t]
    }

    /// Appends a vector at the end.
    ///
    /// # Panics
    ///
    /// Panics if the width differs from existing vectors.
    pub fn push(&mut self, v: Vec<V3>) {
        if let Some(first) = self.vectors.first() {
            assert_eq!(first.len(), v.len(), "vector width mismatch");
        }
        self.vectors.push(v);
    }

    /// Removes and returns the vector at time `t`, shifting later vectors.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of bounds.
    pub fn remove(&mut self, t: usize) -> Vec<V3> {
        self.vectors.remove(t)
    }

    /// Removes the vectors at times `start..end`, shifting later vectors.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn remove_range(&mut self, start: usize, end: usize) {
        self.vectors.drain(start..end);
    }

    /// The vectors in time order, as a slice (`seq.as_slice()[a..b]` is
    /// `T[a, b - 1]` without a copy).
    pub fn as_slice(&self) -> &[Vec<V3>] {
        &self.vectors
    }

    /// The prefix `T[0, end]` **inclusive** of time unit `end`, matching the
    /// paper's prefix tests `τ_SO,i = (SI, T_0[0, i])`.
    ///
    /// # Panics
    ///
    /// Panics if `end >= self.len()`.
    pub fn prefix(&self, end: usize) -> Sequence {
        assert!(end < self.len(), "prefix end {end} out of bounds");
        Sequence {
            vectors: self.vectors[..=end].to_vec(),
        }
    }

    /// The subsequence `T[u1, u2]`, inclusive on both ends.
    ///
    /// # Panics
    ///
    /// Panics if `u1 > u2` or `u2 >= self.len()`.
    pub fn subrange(&self, u1: usize, u2: usize) -> Sequence {
        assert!(u1 <= u2 && u2 < self.len(), "bad subrange [{u1},{u2}]");
        Sequence {
            vectors: self.vectors[u1..=u2].to_vec(),
        }
    }

    /// Concatenates two sequences (`T_i T_j` in the paper's test combining).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ and neither side is empty.
    pub fn concat(&self, other: &Sequence) -> Sequence {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        assert_eq!(
            self.vectors[0].len(),
            other.vectors[0].len(),
            "sequence width mismatch"
        );
        let mut vectors = self.vectors.clone();
        vectors.extend(other.vectors.iter().cloned());
        Sequence { vectors }
    }

    /// Iterates over the vectors in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, Vec<V3>> {
        self.vectors.iter()
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sequence[{} x {}]", self.len(), {
            self.vectors.first().map_or(0, Vec::len)
        })?;
        if self.len() <= 8 {
            for v in &self.vectors {
                write!(f, " ")?;
                for &x in v {
                    write!(f, "{x}")?;
                }
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Sequence {
    type Item = &'a Vec<V3>;
    type IntoIter = std::slice::Iter<'a, Vec<V3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Vec<V3>> for Sequence {
    fn from_iter<I: IntoIterator<Item = Vec<V3>>>(iter: I) -> Self {
        Sequence::from_vectors(iter.into_iter().collect())
    }
}

/// A character that is not a 3-valued logic literal, found while parsing a
/// vector string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The offending character.
    pub character: char,
    /// Its byte offset in the input.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid logic character `{}` at position {} (expected 0, 1, x, or X)",
            self.character, self.position
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a state or vector string like `"01x1"` into values, reporting
/// the first invalid character instead of panicking.
///
/// This is the entry point for externally supplied vectors (CLI arguments,
/// vector files, repro bundles); [`parse_values`] is its panicking
/// counterpart for tests and examples with literal strings.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first character outside
/// `0`, `1`, `x`, `X`.
pub fn try_parse_values(s: &str) -> Result<Vec<V3>, ParseError> {
    s.char_indices()
        .map(|(position, c)| match c {
            '0' => Ok(V3::Zero),
            '1' => Ok(V3::One),
            'x' | 'X' => Ok(V3::X),
            character => Err(ParseError {
                character,
                position,
            }),
        })
        .collect()
}

/// Parses a state or vector string like `"01x1"` into values.
///
/// Intended for tests and examples.
///
/// # Panics
///
/// Panics on characters other than `0`, `1`, `x`, `X`.
pub fn parse_values(s: &str) -> Vec<V3> {
    match try_parse_values(s) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: &[&str]) -> Sequence {
        rows.iter().map(|r| parse_values(r)).collect()
    }

    #[test]
    fn construction_and_access() {
        let s = seq(&["01", "10", "xx"]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.vector(0), &[V3::Zero, V3::One]);
        assert_eq!(s.vector(2), &[V3::X, V3::X]);
    }

    #[test]
    fn prefix_is_inclusive() {
        let s = seq(&["00", "01", "10", "11"]);
        let p = s.prefix(1);
        assert_eq!(p.len(), 2);
        assert_eq!(p.vector(1), s.vector(1));
        assert_eq!(s.prefix(3), s);
    }

    #[test]
    fn subrange_matches_paper_notation() {
        let s = seq(&["00", "01", "10", "11"]);
        let sub = s.subrange(1, 2);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.vector(0), s.vector(1));
    }

    #[test]
    fn concat_appends() {
        let a = seq(&["00", "01"]);
        let b = seq(&["11"]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.vector(2), b.vector(0));
        assert_eq!(a.concat(&Sequence::new()), a);
        assert_eq!(Sequence::new().concat(&b), b);
    }

    #[test]
    fn remove_shifts() {
        let mut s = seq(&["00", "01", "10"]);
        let removed = s.remove(1);
        assert_eq!(removed, parse_values("01"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.vector(1), &parse_values("10")[..]);
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn rejects_ragged_vectors() {
        let _ = Sequence::from_vectors(vec![parse_values("01"), parse_values("011")]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn prefix_bounds_checked() {
        let s = seq(&["0"]);
        let _ = s.prefix(1);
    }

    #[test]
    fn parse_values_handles_case() {
        assert_eq!(parse_values("01xX"), vec![V3::Zero, V3::One, V3::X, V3::X]);
    }

    #[test]
    fn try_parse_values_locates_bad_characters() {
        assert_eq!(try_parse_values("01x"), Ok(parse_values("01x")));
        assert_eq!(try_parse_values(""), Ok(vec![]));
        let err = try_parse_values("012").unwrap_err();
        assert_eq!(err.character, '2');
        assert_eq!(err.position, 2);
        assert!(err.to_string().contains("position 2"), "{err}");
        assert!(try_parse_values("0 1").is_err());
    }

    #[test]
    #[should_panic(expected = "invalid logic character `q`")]
    fn parse_values_still_panics_for_tests() {
        let _ = parse_values("0q");
    }

    #[test]
    fn debug_shows_dimensions() {
        let s = seq(&["01", "10"]);
        let d = format!("{s:?}");
        assert!(d.contains("2 x 2"), "{d}");
    }
}
