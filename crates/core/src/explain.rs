//! "Why this method won": a human-readable account of one selection.
//!
//! A [`Choice`] carries the decision path of all 29 classifier votes
//! ([`wise_ml::DecisionPath`]); [`explain_choice`] turns that into the
//! report section `bench_regress` (and any other caller) prints — the
//! winner with its predicted class, how the tie among same-class
//! candidates was broken, and the winning classifier's root-to-leaf
//! walk with feature names resolved through
//! [`wise_features::FeatureVector::names`].

use crate::pipeline::Choice;
use std::fmt::Write as _;
use wise_features::FeatureVector;
use wise_kernels::method::MethodConfig;

/// Renders the "why this method won" section for a selection over
/// `catalog` (the catalog the producing registry was trained on;
/// `catalog[choice.index]` must be the chosen configuration).
///
/// Deserialized pre-explainability choices (empty `decision_paths`)
/// still render — the winner and tie-break lines don't need paths —
/// with a note in place of the walk.
pub fn explain_choice(catalog: &[MethodConfig], choice: &Choice) -> String {
    assert_eq!(catalog.len(), choice.predictions.len(), "catalog/prediction length mismatch");
    let mut out = String::from("== why this method won ==\n");
    let winner_class = choice.predictions[choice.index];
    let _ = writeln!(
        out,
        "winner: {} (predicted {winner_class:?}, ~{:.2}x vs best CSR)",
        choice.config.label(),
        winner_class.representative_speedup()
    );

    // Who else predicted the same class, and why they lost: the
    // selection heuristic breaks class ties toward cheaper
    // preprocessing (smaller preproc_key).
    let peers: Vec<&MethodConfig> = catalog
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != choice.index && choice.predictions[i] == winner_class)
        .map(|(_, cfg)| cfg)
        .collect();
    if peers.is_empty() {
        let _ = writeln!(out, "margin: only configuration predicted in class {winner_class:?}");
    } else {
        let shown = peers.iter().map(|c| c.label()).take(4).collect::<Vec<_>>().join(", ");
        let more =
            if peers.len() > 4 { format!(" (+{} more)", peers.len() - 4) } else { String::new() };
        let _ = writeln!(
            out,
            "tie-break: beat {} same-class candidate(s) on cheaper preprocessing: {shown}{more}",
            peers.len()
        );
    }

    match choice.winning_path() {
        Some(path) => {
            let _ = writeln!(out, "winning classifier's decision path ({} steps):", path.depth());
            let names = FeatureVector::names();
            let rendered =
                path.render(|i| names.get(i as usize).cloned().unwrap_or_else(|| format!("f{i}")));
            for line in rendered.lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        None => {
            out.push_str("(no decision paths recorded: pre-explainability choice)\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{TrainOptions, Wise};
    use wise_gen::{Corpus, CorpusScale};

    #[test]
    fn explanation_names_the_winner_and_walk() {
        let scale = CorpusScale::tiny();
        let corpus = Corpus::random(&scale, 11);
        let wise = Wise::train(&corpus, &TrainOptions::for_scale(&scale));
        let m = wise_gen::RmatParams::HIGH_SKEW.generate(9, 16, 77);
        let choice = wise.select(&m);
        let text = explain_choice(wise.registry().catalog(), &choice);
        assert!(text.contains("winner: "), "{text}");
        assert!(text.contains(&choice.config.label()), "{text}");
        assert!(text.contains("decision path"), "{text}");
        assert!(text.contains("leaf: class"), "{text}");
        // Real feature names appear, not f<i> fallbacks.
        assert!(!text.contains("f0 ="), "{text}");
    }

    #[test]
    fn pathless_choice_still_explains() {
        let scale = CorpusScale::tiny();
        let corpus = Corpus::random(&scale, 11);
        let wise = Wise::train(&corpus, &TrainOptions::for_scale(&scale));
        let m = wise_gen::RmatParams::LOW_LOC.generate(8, 4, 5);
        let mut choice = wise.select(&m);
        choice.decision_paths.clear(); // a pre-explainability payload
        let text = explain_choice(wise.registry().catalog(), &choice);
        assert!(text.contains("winner: "), "{text}");
        assert!(text.contains("pre-explainability"), "{text}");
    }
}
