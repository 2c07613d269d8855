//! String and set similarity kernels.
//!
//! All kernels return values in `[0, 1]` (1 = identical) unless documented
//! otherwise, are symmetric in their arguments, and treat a pair of empty
//! inputs as dissimilar (0) — an empty field carries no evidence of
//! identity, so the dedup layers must never collapse on it.

mod edit;
mod hybrid;
mod jaro;
mod sets;
mod tfidf;

pub use edit::{levenshtein, levenshtein_normalized, levenshtein_similarity};
pub use hybrid::{monge_elkan, monge_elkan_sym, smith_waterman, soft_tfidf};
pub use jaro::{jaro, jaro_winkler};
pub use sets::{
    common_count, dice, jaccard, overlap_coefficient, overlap_coefficient_of_counts,
    overlap_fraction_of_smaller,
};
pub use tfidf::{tfidf_cosine, weighted_jaccard};
