//! Tokenizers: words, character q-grams, initials.
//!
//! Tokens are interned as FNV-1a hashes; a [`TokenSet`] is a sorted,
//! deduplicated vector of token hashes. Sorted representation makes every
//! set operation downstream (Jaccard, overlap, TF-IDF dot products,
//! posting-list construction) a linear merge.

use crate::hash::{hash_str, Token};

/// A sorted, deduplicated set of interned tokens.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TokenSet {
    tokens: Vec<Token>,
}

impl TokenSet {
    /// Build from an arbitrary token iterator; sorts and dedups.
    pub fn from_tokens(mut tokens: Vec<Token>) -> Self {
        tokens.sort_unstable();
        tokens.dedup();
        TokenSet { tokens }
    }

    /// The empty set.
    pub fn empty() -> Self {
        TokenSet { tokens: Vec::new() }
    }

    /// Number of distinct tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when no tokens are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Bytes of heap the set holds — its capacity, which is what stays
    /// allocated, not its length.
    pub fn heap_bytes(&self) -> usize {
        self.tokens.capacity() * std::mem::size_of::<Token>()
    }

    /// Sorted slice of tokens.
    #[inline]
    pub fn as_slice(&self) -> &[Token] {
        &self.tokens
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, t: Token) -> bool {
        self.tokens.binary_search(&t).is_ok()
    }

    /// Size of the intersection with `other` (linear merge).
    pub fn intersection_size(&self, other: &TokenSet) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        let (a, b) = (&self.tokens, &other.tokens);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Iterator over tokens in the intersection.
    pub fn intersection<'a>(&'a self, other: &'a TokenSet) -> impl Iterator<Item = Token> + 'a {
        Intersection {
            a: &self.tokens,
            b: &other.tokens,
            i: 0,
            j: 0,
        }
    }

    /// Union size: `|A| + |B| - |A ∩ B|`.
    pub fn union_size(&self, other: &TokenSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }
}

struct Intersection<'a> {
    a: &'a [Token],
    b: &'a [Token],
    i: usize,
    j: usize,
}

impl Iterator for Intersection<'_> {
    type Item = Token;
    fn next(&mut self) -> Option<Token> {
        while self.i < self.a.len() && self.j < self.b.len() {
            match self.a[self.i].cmp(&self.b[self.j]) {
                std::cmp::Ordering::Less => self.i += 1,
                std::cmp::Ordering::Greater => self.j += 1,
                std::cmp::Ordering::Equal => {
                    let t = self.a[self.i];
                    self.i += 1;
                    self.j += 1;
                    return Some(t);
                }
            }
        }
        None
    }
}

/// Split normalized text into words (whitespace separated).
pub fn words(s: &str) -> Vec<&str> {
    s.split_whitespace().collect()
}

/// Token set of the words of (already normalized) text.
pub fn word_set(s: &str) -> TokenSet {
    TokenSet::from_tokens(s.split_whitespace().map(hash_str).collect())
}

/// Character q-grams of a *single word or full string* (spaces included as
/// context characters, matching the common definition used for dedup
/// blocking). Strings shorter than `q` yield the string itself as one gram.
pub fn qgrams(s: &str, q: usize) -> Vec<Token> {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return Vec::new();
    }
    if chars.len() <= q {
        return vec![hash_str(s)];
    }
    let mut out = Vec::with_capacity(chars.len() - q + 1);
    let mut buf = String::with_capacity(q * 4);
    for w in chars.windows(q) {
        buf.clear();
        buf.extend(w.iter());
        out.push(hash_str(&buf));
    }
    out
}

/// Token set of the q-grams of text.
pub fn qgram_set(s: &str, q: usize) -> TokenSet {
    TokenSet::from_tokens(qgrams(s, q))
}

/// First character of each word, in word order (e.g. `"sunita sarawagi"`
/// -> `['s', 's']`). Used by the paper's initials-match predicates.
pub fn initials(s: &str) -> Vec<char> {
    s.split_whitespace()
        .filter_map(|w| w.chars().next())
        .collect()
}

/// Sorted deduplicated initials set, hashed as tokens, for overlap tests
/// like "at least one common initial".
pub fn initials_set(s: &str) -> TokenSet {
    TokenSet::from_tokens(
        s.split_whitespace()
            .filter_map(|w| w.chars().next())
            .map(|c| {
                let mut b = [0u8; 4];
                hash_str(c.encode_utf8(&mut b))
            })
            .collect(),
    )
}

/// Do the initials of two strings match exactly, as *sorted multisets*?
///
/// The paper's citation predicates require "initials match exactly"; author
/// name variants frequently permute name parts ("Rowling J K" vs
/// "J K Rowling"), so we compare order-insensitively.
pub fn initials_match(a: &str, b: &str) -> bool {
    let mut ia = initials(a);
    let mut ib = initials(b);
    ia.sort_unstable();
    ib.sort_unstable();
    ia == ib && !ia.is_empty()
}

/// Last whitespace-separated word of a string, if any.
pub fn last_word(s: &str) -> Option<&str> {
    s.split_whitespace().next_back()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_set_dedups() {
        let ts = word_set("a b a c b");
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn intersection_and_union() {
        let a = word_set("x y z");
        let b = word_set("y z w");
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 4);
        let common: Vec<_> = a.intersection(&b).collect();
        assert_eq!(common.len(), 2);
    }

    #[test]
    fn qgrams_basic() {
        // "abcd" -> "abc", "bcd"
        assert_eq!(qgrams("abcd", 3).len(), 2);
        // short strings hash whole string
        assert_eq!(qgrams("ab", 3), vec![hash_str("ab")]);
        assert!(qgrams("", 3).is_empty());
    }

    #[test]
    fn qgram_set_equal_strings_identical() {
        assert_eq!(qgram_set("sarawagi", 3), qgram_set("sarawagi", 3));
    }

    #[test]
    fn initials_extraction() {
        assert_eq!(initials("sunita sarawagi"), vec!['s', 's']);
        assert!(initials_match("s sarawagi", "sunita sarawagi"));
        assert!(initials_match("sarawagi s", "s sarawagi"));
        assert!(!initials_match("v deshpande", "s sarawagi"));
        assert!(!initials_match("", ""));
    }

    #[test]
    fn contains_and_empty() {
        let ts = word_set("alpha beta");
        assert!(ts.contains(hash_str("alpha")));
        assert!(!ts.contains(hash_str("gamma")));
        assert!(TokenSet::empty().is_empty());
    }

    #[test]
    fn last_word_works() {
        assert_eq!(last_word("john a smith"), Some("smith"));
        assert_eq!(last_word(""), None);
    }
}
