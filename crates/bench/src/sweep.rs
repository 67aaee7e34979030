//! Shared implementation of the Figure 5/6 sweep grids.

use crate::report::{self, Report};
use crate::{fastest_method, method_code, render_sweep_grid, BenchContext};
use std::fmt::{self, Write as _};
use wise_core::labels::CorpusLabels;
use wise_gen::Recipe;

/// Parses `"<ABBR>_s<scale>_d<degree>"` names from the random corpus.
fn parse_name(name: &str) -> Option<(&str, u32, u32)> {
    let mut it = name.split('_');
    let abbr = it.next()?;
    let s = it.next()?.strip_prefix('s')?.parse().ok()?;
    let d = it.next()?.strip_prefix('d')?.parse().ok()?;
    Some((abbr, s, d))
}

/// Reports the fastest-method grid and the speedup-over-best-CSR grid
/// for each recipe, and writes a combined CSV.
pub fn sweep_figure(
    ctx: &BenchContext,
    out: &mut Report,
    figure: &str,
    recipes: &[Recipe],
    csv_stem: &str,
) -> fmt::Result {
    let labels = ctx.random_labels();
    report::progress(format_args!("rendering {figure} grids for {} recipes", recipes.len()));

    writeln!(out, "legend: {}", legend())?;
    let mut rows: Vec<String> = Vec::new();
    for &recipe in recipes {
        let grid = collect(&labels, recipe);
        let row_scales = ctx.scale.row_scales.clone();
        let degrees = ctx.scale.degrees.clone();

        let fastest = render_sweep_grid(
            &format!("{figure}: {recipe:?} — fastest method"),
            &row_scales,
            &degrees,
            |rs, d| {
                grid.get(&(rs, d))
                    .map(|&(mi, _)| method_code(fastest_method(&labels, mi)).to_string())
                    .unwrap_or_else(|| ".".into())
            },
        );
        writeln!(out, "{fastest}")?;
        let speedup = render_sweep_grid(
            &format!("{figure}: {recipe:?} — best speedup over best CSR"),
            &row_scales,
            &degrees,
            |rs, d| {
                grid.get(&(rs, d)).map(|&(_, s)| format!("{s:.2}")).unwrap_or_else(|| ".".into())
            },
        );
        writeln!(out, "{speedup}")?;

        for ((rs, d), (mi, s)) in &grid {
            rows.push(format!(
                "{:?},{rs},{d},{},{s:.4}",
                recipe,
                crate::method_name(fastest_method(&labels, *mi)),
            ));
        }
    }
    out.csv(
        ctx,
        &format!("{csv_stem}_sweep.csv"),
        "recipe,log2_rows,degree,fastest,speedup_over_best_csr",
        &rows,
    )
}

fn legend() -> String {
    use wise_kernels::Method;
    Method::ALL
        .iter()
        .map(|&m| format!("{}={}", method_code(m), crate::method_name(m)))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Maps `(row_scale, degree)` to `(matrix index, oracle speedup over
/// best CSR)` for one recipe.
fn collect(
    labels: &CorpusLabels,
    recipe: Recipe,
) -> std::collections::BTreeMap<(u32, u32), (usize, f64)> {
    let mut out = std::collections::BTreeMap::new();
    for (mi, ml) in labels.matrices.iter().enumerate() {
        let Some((abbr, s, d)) = parse_name(&ml.name) else { continue };
        if abbr != recipe.abbrev() {
            continue;
        }
        let oracle = ml.oracle_index();
        let speedup = ml.best_csr_seconds / ml.seconds[oracle];
        out.insert((s, d), (mi, speedup));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_corpus_names() {
        assert_eq!(parse_name("HS_s14_d32"), Some(("HS", 14, 32)));
        assert_eq!(parse_name("rgg_s12_d4"), Some(("rgg", 12, 4)));
        assert_eq!(parse_name("banded_s10_bw4_f4"), None);
        assert_eq!(parse_name("nonsense"), None);
    }
}
