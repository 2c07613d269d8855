//! Default dataset configurations for the experiments.
//!
//! The paper's datasets have 240k/169k/245k records; the defaults here
//! are scaled down (~50k/40k/50k) so a full experiment run finishes in
//! minutes on a laptop. Pass `--full` to the experiment binaries to run
//! at paper scale.

use topk_datagen::{
    generate_addresses, generate_citations, generate_students, small_dataset, AddressConfig,
    CitationConfig, SmallDatasetKind, StudentConfig,
};
use topk_records::Dataset;

/// Citation dataset at the default (scaled) or paper-sized record count.
pub fn default_citations(full: bool) -> Dataset {
    let cfg = if full {
        CitationConfig {
            n_authors: 20_000,
            n_citations: 110_000, // ~240k author-mention records
            ..Default::default()
        }
    } else {
        CitationConfig::default() // ~52k records
    };
    generate_citations(&cfg)
}

/// Students dataset.
pub fn default_students(full: bool) -> Dataset {
    let cfg = if full {
        StudentConfig {
            n_students: 50_000,
            n_records: 169_000,
            ..Default::default()
        }
    } else {
        StudentConfig::default() // 40k records
    };
    generate_students(&cfg)
}

/// Address dataset.
pub fn default_addresses(full: bool) -> Dataset {
    let cfg = if full {
        AddressConfig {
            n_entities: 70_000,
            n_records: 245_000,
            ..Default::default()
        }
    } else {
        AddressConfig::default() // 50k records
    };
    generate_addresses(&cfg)
}

/// The four Table-1 accuracy datasets.
pub fn accuracy_suite(seed: u64) -> Vec<(SmallDatasetKind, Dataset)> {
    SmallDatasetKind::all()
        .into_iter()
        .map(|k| (k, small_dataset(k, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_defaults_have_expected_sizes() {
        assert!(default_students(false).len() == 40_000);
        assert_eq!(accuracy_suite(1).len(), 4);
    }
}
