//! The paper's tables and figures, one function each.
//!
//! Every function writes its text report into a [`Report`] (which
//! echoes it to stdout) and its data as CSVs under the results
//! directory. The `all` binary runs them in-process: a plain run covers
//! [`FIGURES`] entries marked `default`, and `all --only <name>` runs
//! any one of them.

use crate::report::Report;
use crate::sweep::sweep_figure;
use crate::{
    best_csr_seconds, best_index_of_method, fastest_method, histogram_bins, method_name,
    mkl_seconds, render_histogram, summarize, BenchContext, VECTORIZED,
};
use std::fmt::{self, Write as _};
use wise_core::evaluate::{evaluate_cv, evaluate_cv_planned, sweep_table4, CvPlan};
use wise_core::ModelRegistry;
use wise_features::FeatureVector;
use wise_gen::{suite, Recipe, RmatParams};
use wise_kernels::method::{Method, MethodConfig};
use wise_kernels::sched::default_threads;
use wise_kernels::Schedule;
use wise_ml::grid::{CCP_GRID, DEPTH_GRID};
use wise_ml::TreeParams;
use wise_perf::calibrate::{calibrate_to_host, spearman};
use wise_perf::MachineModel;

/// One table or figure the `all` binary can run.
pub struct Figure {
    /// The name `all --only` takes (and the report's file stem).
    pub name: &'static str,
    /// Whether a plain `all` run includes it. `table4` (24 full CV
    /// evaluations), `feature_importance` and `model_validation` (host
    /// wall clock) run only when named.
    pub default: bool,
    pub run: fn(&BenchContext, &mut Report) -> fmt::Result,
}

/// Every table and figure, in the order a plain `all` run reports them.
pub const FIGURES: [Figure; 17] = [
    Figure { name: "table1", default: true, run: table1 },
    Figure { name: "table2", default: true, run: table2 },
    Figure { name: "table3", default: true, run: table3 },
    Figure { name: "fig2", default: true, run: fig2 },
    Figure { name: "fig3", default: true, run: fig3 },
    Figure { name: "fig4", default: true, run: fig4 },
    Figure { name: "fig5", default: true, run: fig5 },
    Figure { name: "fig6", default: true, run: fig6 },
    Figure { name: "fig7", default: true, run: fig7 },
    Figure { name: "fig10", default: true, run: fig10 },
    Figure { name: "fig11", default: true, run: fig11 },
    Figure { name: "fig12", default: true, run: fig12 },
    Figure { name: "fig13", default: true, run: fig13 },
    Figure { name: "ie", default: true, run: ie },
    Figure { name: "table4", default: false, run: table4 },
    Figure { name: "feature_importance", default: false, run: feature_importance },
    Figure { name: "model_validation", default: false, run: model_validation },
];

/// Table 1: the SpMV method/parameter space, as the 29 concrete
/// configurations WISE models (Section 4.3).
pub fn table1(_ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let catalog = MethodConfig::catalog();
    writeln!(
        out,
        "== Table 1: SpMV methods and parameters ({} configurations) ==\n",
        catalog.len()
    )?;
    writeln!(out, "{:<28} {:<10} {:>3} {:>7} {:>5}", "config", "method", "c", "sigma", "T")?;
    for cfg in &catalog {
        writeln!(
            out,
            "{:<28} {:<10} {:>3} {:>7} {:>5}",
            cfg.label(),
            cfg.method.name(),
            if cfg.c == 0 { "-".to_string() } else { cfg.c.to_string() },
            if cfg.sigma == 0 { "-".to_string() } else { cfg.sigma.to_string() },
            if cfg.t == 0.0 { "-".to_string() } else { format!("{:.0}%", cfg.t * 100.0) },
        )?;
    }
    writeln!(out, "\nPreprocessing-cost tie-break order (Section 4.4): CSR < SELLPACK < Sell-c-s < Sell-c-R < LAV-1Seg < LAV, smaller parameters first.")?;
    Ok(())
}

/// Table 2: the WISE feature set (Section 4.2) — printed from the
/// actual extractor so the table can never drift from the code.
pub fn table2(_ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let names = FeatureVector::names();
    writeln!(out, "== Table 2: WISE matrix features ({} total) ==\n", names.len())?;
    let group =
        |prefix: &str| -> Vec<&String> { names.iter().filter(|n| n.ends_with(prefix)).collect() };
    writeln!(out, "Matrix size:      n_rows n_cols nnz")?;
    for dist in ["R", "C", "T", "RB", "CB"] {
        let stats: Vec<String> = group(&format!("_{dist}"))
            .iter()
            .map(|n| n.trim_end_matches(&format!("_{dist}")).to_string())
            .collect();
        writeln!(out, "{dist:>4} distribution: {}", stats.join(" "))?;
    }
    let locality: Vec<&String> =
        names.iter().filter(|n| n.contains("uniq") || n.contains("potReuse")).collect();
    writeln!(out, "Locality layout:  {} metrics:", locality.len())?;
    for chunk in locality.chunks(6) {
        writeln!(
            out,
            "                  {}",
            chunk.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" ")
        )?;
    }
    Ok(())
}

/// Table 3: RMAT/RGG generator parameters (Section 4.5).
pub fn table3(_ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    writeln!(out, "== Table 3: parameters for the RMAT/RGG matrices ==\n")?;
    writeln!(out, "{:<10} {:<6} parameters", "recipe", "abbr")?;
    for r in Recipe::ALL {
        let params = match r.rmat_params() {
            Some(p) => format!("a={} b={} c={} d={}", p.a, p.b, p.c, p.d),
            None => "r = sqrt(degree / (#rows * pi))".to_string(),
        };
        writeln!(out, "{:<10} {:<6} {}", format!("{r:?}"), r.abbrev(), params)?;
    }
    Ok(())
}

/// Figure 2: speedup of each vectorized SpMV method and MKL over the
/// best-scheduled CSR, per SuiteSparse(-stand-in) matrix, grouped by
/// the matrix's fastest method.
///
/// The paper's reading: every method's speedup varies widely even among
/// matrices it wins on (e.g. SELLPACK 1.05–1.31x, Sell-c-σ 1.00–1.76x),
/// which is why WISE predicts the *magnitude* of speedups, not just the
/// winner.
pub fn fig2(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.suite_labels();

    // Group matrices by fastest method (catalog oracle).
    let mut rows: Vec<String> = Vec::new();
    let mut per_winner: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
    for mi in 0..labels.len() {
        per_winner.entry(method_name(fastest_method(&labels, mi))).or_default().push(mi);
    }

    writeln!(
        out,
        "== Figure 2: vectorized-method speedup over best CSR (suite corpus, {} matrices) ==",
        labels.len()
    )?;
    writeln!(
        out,
        "   matrices grouped by their fastest method; speedup = t_bestCSR / t_bestConfigOfMethod\n"
    )?;

    for (winner, group) in &per_winner {
        writeln!(out, "-- fastest method: {winner} ({} matrices) --", group.len())?;
        for &method in &VECTORIZED {
            let speedups: Vec<f64> = group
                .iter()
                .map(|&mi| {
                    let best = best_index_of_method(&labels, mi, method);
                    best_csr_seconds(&labels, mi) / labels.matrices[mi].seconds[best]
                })
                .collect();
            writeln!(out, "   {}", summarize(&format!("{:<10}", method_name(method)), &speedups))?;
        }
        let mkl: Vec<f64> = group
            .iter()
            .map(|&mi| best_csr_seconds(&labels, mi) / mkl_seconds(&labels, mi))
            .collect();
        writeln!(out, "   {}", summarize("MKL       ", &mkl))?;
    }

    // Per-matrix CSV (the figure's raw points).
    for mi in 0..labels.len() {
        let name = &labels.matrices[mi].name;
        let winner = method_name(fastest_method(&labels, mi));
        let mut cells = vec![name.clone(), winner.to_string()];
        for &method in &VECTORIZED {
            let best = best_index_of_method(&labels, mi, method);
            cells.push(format!(
                "{:.4}",
                best_csr_seconds(&labels, mi) / labels.matrices[mi].seconds[best]
            ));
        }
        cells.push(format!("{:.4}", best_csr_seconds(&labels, mi) / mkl_seconds(&labels, mi)));
        rows.push(cells.join(","));
    }
    out.csv(
        ctx,
        "fig2_speedups.csv",
        "matrix,fastest,SELLPACK,Sell-c-s,Sell-c-R,LAV-1Seg,LAV,MKL",
        &rows,
    )
}

/// Figure 3: CSR with Dyn / St / StCont scheduling and MKL, normalized
/// to the best CSR schedule per matrix (suite corpus).
///
/// The paper's reading: the scheduling choice alone can cost up to 10x;
/// Dyn wins on web/social (skewed) matrices, St/StCont on scientific
/// ones.
pub fn fig3(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.suite_labels();

    let idx_of = |s: Schedule| labels.config_index(&MethodConfig::csr(s).label());
    let scheds = [
        ("CSR-Dyn", idx_of(Schedule::Dyn)),
        ("CSR-St", idx_of(Schedule::St)),
        ("CSR-StCont", idx_of(Schedule::StCont)),
    ];

    writeln!(
        out,
        "== Figure 3: CSR scheduling (+MKL) vs best CSR (suite corpus, {} matrices) ==\n",
        labels.len()
    )?;

    let mut best_counts = [0usize; 3];
    let mut rows = Vec::new();
    let mut per_sched: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (mi, ml) in labels.matrices.iter().enumerate() {
        let best = best_csr_seconds(&labels, mi);
        let rel: Vec<f64> = scheds.iter().map(|&(_, i)| best / ml.seconds[i]).collect();
        let winner =
            rel.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
        best_counts[winner] += 1;
        let mkl = best / mkl_seconds(&labels, mi);
        for (k, &r) in rel.iter().enumerate() {
            per_sched[k].push(r);
        }
        per_sched[3].push(mkl);
        rows.push(format!("{},{:.4},{:.4},{:.4},{:.4}", ml.name, rel[0], rel[1], rel[2], mkl));
    }

    for (k, (name, _)) in scheds.iter().enumerate() {
        writeln!(out, "{}", summarize(&format!("{name:<11}"), &per_sched[k]))?;
    }
    writeln!(out, "{}", summarize("MKL        ", &per_sched[3]))?;
    writeln!(
        out,
        "\nfastest schedule counts: Dyn={} St={} StCont={}",
        best_counts[0], best_counts[1], best_counts[2]
    )?;
    writeln!(out, "(paper, real SuiteSparse: Dyn=28 St=16 StCont=92)")?;

    out.csv(ctx, "fig3_scheduling.csv", "matrix,dyn,st,stcont,mkl", &rows)
}

/// Figure 4: distribution of the fastest SpMV method over the
/// SuiteSparse(-stand-in) corpus.
///
/// The paper's reading: Sell-c-σ wins most often (66/136), CSR second
/// (34), MKL never — scientific corpora favor padding-minimizing
/// methods over the LAV family.
pub fn fig4(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.suite_labels();

    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for m in Method::ALL {
        counts.insert(method_name(m), 0);
    }
    for mi in 0..labels.len() {
        *counts.get_mut(method_name(fastest_method(&labels, mi))).unwrap() += 1;
    }
    let bins: Vec<(String, usize)> = counts.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    writeln!(
        out,
        "{}",
        render_histogram(
            &format!("Figure 4: fastest method (suite corpus, {} matrices)", labels.len()),
            &bins
        )
    )?;
    writeln!(out, "(paper, real SuiteSparse: Sell-c-s=66, CSR=34, others split the rest, MKL=0)")?;

    let rows: Vec<String> = bins.iter().map(|(k, v)| format!("{k},{v}")).collect();
    out.csv(ctx, "fig4_fastest_method.csv", "method,count", &rows)
}

/// Figure 5: effect of nonzero *skew* — fastest method and its speedup
/// over best CSR, across a (#rows x nnz/row) sweep of LowSkew and
/// HighSkew RMAT matrices.
///
/// The paper's reading: the LAV family and Sell-c-R dominate; LAV wins
/// when the matrix outgrows the LLC and rows are dense; LAV-1Seg when a
/// single segment suffices; Sell-c-R for small/low-skew matrices whose
/// input vector fits in the LLC.
pub fn fig5(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    sweep_figure(
        ctx,
        out,
        "Figure 5",
        &[wise_gen::Recipe::LowSkew, wise_gen::Recipe::HighSkew],
        "fig5",
    )
}

/// Figure 6: effect of nonzero *locality* — fastest method and speedup
/// grids for LowLoc and HighLoc RMAT matrices.
///
/// The paper's reading: Sell-c-σ dominates high-locality matrices
/// (caches already work, segmentation unnecessary); for low locality
/// with dense rows, LAV wins by manufacturing LLC locality through
/// segmentation.
pub fn fig6(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    sweep_figure(
        ctx,
        out,
        "Figure 6",
        &[wise_gen::Recipe::LowLoc, wise_gen::Recipe::HighLoc],
        "fig6",
    )
}

/// Figure 7: histogram of the nonzeros-per-row p-ratio over the
/// SuiteSparse(-stand-in) corpus.
///
/// The paper's reading: most SuiteSparse matrices sit above 0.4 —
/// balanced row distributions — which biases the corpus toward
/// SELLPACK/Sell-c-σ and motivates augmenting it with RMAT matrices.
pub fn fig7(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.suite_labels();
    let p_ratios: Vec<f64> = labels
        .matrices
        .iter()
        .map(|m| m.features.get("p_R").expect("p_R feature exists"))
        .collect();
    let bins = histogram_bins(&p_ratios, 0.0, 0.5, 5);
    writeln!(
        out,
        "{}",
        render_histogram(
            &format!("Figure 7: p-ratio of nnz/row, suite corpus ({} matrices)", labels.len()),
            &bins
        )
    )?;
    let above = p_ratios.iter().filter(|&&p| p > 0.4).count();
    writeln!(
        out,
        "matrices with p-ratio > 0.4: {above}/{} ({:.0}%) — paper: 'most'",
        labels.len(),
        100.0 * above as f64 / labels.len() as f64
    )?;
    let rows: Vec<String> =
        labels.matrices.iter().zip(&p_ratios).map(|(m, p)| format!("{},{p:.4}", m.name)).collect();
    out.csv(ctx, "fig7_p_ratio_suite.csv", "matrix,p_ratio_rows", &rows)
}

/// Figure 10 / Section 6.2: 10-fold cross-validated confusion matrices
/// for the five representative models (c=8; StCont for SELLPACK and
/// Sell-c-σ, Dyn otherwise), plus accuracy for all 29 models.
///
/// The paper's reading: per-model accuracy 83–92%, and ~90% of
/// misclassifications land within one class of the truth.
pub fn fig10(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.full_labels();
    let k = 10.min(labels.len());
    let ev = evaluate_cv(&labels, TreeParams::default(), k, ctx.seed);

    let representative = [
        "SELLPACK-c8-StCont",
        "Sell-c-s-c8-s4096-StCont",
        "Sell-c-R-c8",
        "LAV-1Seg-c8",
        "LAV-c8-T80",
    ];
    writeln!(
        out,
        "== Figure 10: confusion matrices, {k}-fold CV over {} matrices ==\n",
        labels.len()
    )?;
    for label in representative {
        let i = labels.config_index(label);
        let cm = &ev.confusions[i];
        writeln!(out, "-- {label} --")?;
        write!(out, "{}", cm.render())?;
        writeln!(
            out,
            "accuracy {:.1}%  misses-within-1 {:.1}%  over/under = {:?}\n",
            100.0 * cm.accuracy(),
            100.0 * cm.misses_within(1),
            cm.over_under()
        )?;
    }

    writeln!(out, "== Section 6.2: accuracy of all 29 models ==")?;
    let mut rows = Vec::new();
    let mut accs = Vec::new();
    let mut within = Vec::new();
    for (i, cfg) in labels.catalog.iter().enumerate() {
        let cm = &ev.confusions[i];
        accs.push(cm.accuracy());
        within.push(cm.misses_within(1));
        rows.push(format!("{},{:.4},{:.4}", cfg.label(), cm.accuracy(), cm.misses_within(1)));
        writeln!(
            out,
            "{:<28} accuracy {:>5.1}%   misses within 1 class {:>5.1}%",
            cfg.label(),
            100.0 * cm.accuracy(),
            100.0 * cm.misses_within(1)
        )?;
    }
    writeln!(out, "\n{}", summarize("accuracy       ", &accs))?;
    writeln!(out, "{}", summarize("misses-within-1", &within))?;
    writeln!(out, "(paper, representative models: accuracy 83-92%, within-1 on misses 89-94%)")?;

    out.csv(ctx, "fig10_accuracy.csv", "config,accuracy,misses_within_1", &rows)
}

/// Figure 11: distribution of the nonzeros-per-row p-ratio over the
/// *random* (RMAT/RGG) corpus, by recipe.
///
/// The paper's reading: HS/MS/LS land near 0.1/0.2/0.3 and the locality
/// recipes near 0.4–0.5 — together covering the skew range SuiteSparse
/// misses (contrast with Figure 7).
pub fn fig11(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.random_labels();

    writeln!(
        out,
        "== Figure 11: p-ratio of nnz/row, random corpus ({} matrices) ==\n",
        labels.len()
    )?;
    let mut rows = Vec::new();
    for recipe in Recipe::ALL {
        let ps: Vec<f64> = labels
            .matrices
            .iter()
            .filter(|m| m.name.starts_with(&format!("{}_", recipe.abbrev())))
            .map(|m| m.features.get("p_R").unwrap())
            .collect();
        writeln!(out, "{}", summarize(&format!("{:<4}", recipe.abbrev()), &ps))?;
        for p in &ps {
            rows.push(format!("{},{p:.4}", recipe.abbrev()));
        }
    }
    let all: Vec<f64> = labels.matrices.iter().map(|m| m.features.get("p_R").unwrap()).collect();
    let bins = histogram_bins(&all, 0.0, 0.5, 5);
    writeln!(out, "\n{}", render_histogram("combined", &bins))?;
    writeln!(out, "(paper: HS~0.1, MS~0.2, LS~0.3, LL/ML/HL/rgg~0.4-0.5)")?;
    out.csv(ctx, "fig11_p_ratio_random.csv", "recipe,p_ratio_rows", &rows)
}

/// Figure 12: distribution of the average nonzeros per row (μR) for
/// (a) the random corpus and (b) the suite corpus.
///
/// The paper's reading: the random matrices cover a much wider μR range
/// (up to 128), including the dense-row regime that exercises vector
/// units; SuiteSparse mass sits at small μR.
pub fn fig12(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let random = ctx.random_labels();
    let suite = ctx.suite_labels();

    let mu = |labels: &wise_core::labels::CorpusLabels| -> Vec<f64> {
        labels.matrices.iter().map(|m| m.features.get("mean_R").unwrap()).collect()
    };
    let mu_r = mu(&random);
    let mu_s = mu(&suite);

    writeln!(
        out,
        "{}",
        render_histogram(
            &format!("Figure 12a: mean nnz/row, random corpus ({} matrices)", random.len()),
            &histogram_bins(&mu_r, 0.0, 130.0, 13)
        )
    )?;
    writeln!(
        out,
        "{}",
        render_histogram(
            &format!("Figure 12b: mean nnz/row, suite corpus ({} matrices)", suite.len()),
            &histogram_bins(&mu_s, 0.0, 130.0, 13)
        )
    )?;
    writeln!(out, "{}", summarize("random", &mu_r))?;
    writeln!(out, "{}", summarize("suite ", &mu_s))?;

    let mut rows: Vec<String> = mu_r.iter().map(|v| format!("random,{v:.3}")).collect();
    rows.extend(mu_s.iter().map(|v| format!("suite,{v:.3}")));
    out.csv(ctx, "fig12_mean_nnz_per_row.csv", "corpus,mean_R", &rows)
}

/// Figure 13 / Section 6.3: distribution of (a) WISE's speedup over the
/// MKL baseline, (b) the oracle's speedup, and (c) WISE's preprocessing
/// overhead in MKL SpMV iterations. All selections are out-of-fold
/// (10-fold CV).
///
/// The paper's reading: WISE averages 2.4x vs the oracle's 2.5x, with
/// 8.33 MKL iterations of preprocessing.
pub fn fig13(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.full_labels();
    let k = 10.min(labels.len());
    let ev = evaluate_cv(&labels, TreeParams::default(), k, ctx.seed);

    let wise: Vec<f64> = ev.outcomes.iter().map(|o| o.wise_speedup_over_mkl()).collect();
    let oracle: Vec<f64> = ev.outcomes.iter().map(|o| o.oracle_speedup_over_mkl()).collect();
    let overhead: Vec<f64> = ev.outcomes.iter().map(|o| o.wise_overhead_mkl_iters()).collect();

    let hi = oracle.iter().fold(1.0f64, |a, &b| a.max(b)).ceil().max(4.0);
    writeln!(
        out,
        "{}",
        render_histogram(
            &format!("Figure 13a: WISE speedup over MKL ({} matrices)", ev.outcomes.len()),
            &histogram_bins(&wise, 0.0, hi, 16)
        )
    )?;
    writeln!(
        out,
        "{}",
        render_histogram(
            "Figure 13b: oracle speedup over MKL",
            &histogram_bins(&oracle, 0.0, hi, 16)
        )
    )?;
    let oh_hi = overhead.iter().fold(1.0f64, |a, &b| a.max(b)).ceil().max(10.0);
    writeln!(
        out,
        "{}",
        render_histogram(
            "Figure 13c: WISE preprocessing overhead (MKL iterations)",
            &histogram_bins(&overhead, 0.0, oh_hi, 10)
        )
    )?;

    writeln!(out, "{}", summarize("WISE speedup   ", &wise))?;
    writeln!(out, "{}", summarize("oracle speedup ", &oracle))?;
    writeln!(out, "{}", summarize("overhead (iters)", &overhead))?;
    writeln!(
        out,
        "\nmeans: WISE {:.2}x | oracle {:.2}x | overhead {:.2} MKL iters",
        ev.mean_wise_speedup(),
        ev.mean_oracle_speedup(),
        ev.mean_wise_overhead_iters()
    )?;
    writeln!(out, "(paper: WISE 2.4x, oracle 2.5x, overhead 8.33 iters)")?;

    let rows: Vec<String> = ev
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{},{:.4},{:.4},{:.4},{},{}",
                o.name,
                o.wise_speedup_over_mkl(),
                o.oracle_speedup_over_mkl(),
                o.wise_overhead_mkl_iters(),
                labels.catalog[o.wise_index].label(),
                labels.catalog[o.oracle_index].label()
            )
        })
        .collect();
    out.csv(
        ctx,
        "fig13_speedups.csv",
        "matrix,wise_speedup,oracle_speedup,overhead_iters,wise_choice,oracle_choice",
        &rows,
    )
}

/// Section 6.4: comparison to the (stand-in) MKL inspector-executor.
///
/// The IE trial-executes every configuration with cold caches and keeps
/// the best; its preprocessing charges every conversion + every trial.
/// The paper's reading: IE reaches 2.11x over the MKL baseline (vs
/// WISE's 2.4x, i.e. WISE is ~1.14x faster) while IE's preprocessing
/// (17.43 MKL iterations) is more than double WISE's (8.33).
pub fn ie(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.full_labels();
    let k = 10.min(labels.len());
    let ev = evaluate_cv(&labels, TreeParams::default(), k, ctx.seed);

    let ie: Vec<f64> = ev.outcomes.iter().map(|o| o.ie_speedup_over_mkl()).collect();
    let wise: Vec<f64> = ev.outcomes.iter().map(|o| o.wise_speedup_over_mkl()).collect();
    let ie_oh: Vec<f64> = ev.outcomes.iter().map(|o| o.ie_overhead_mkl_iters()).collect();
    let wise_oh: Vec<f64> = ev.outcomes.iter().map(|o| o.wise_overhead_mkl_iters()).collect();

    writeln!(
        out,
        "== Section 6.4: WISE vs inspector-executor ({} matrices) ==\n",
        ev.outcomes.len()
    )?;
    writeln!(out, "{}", summarize("IE speedup over MKL  ", &ie))?;
    writeln!(out, "{}", summarize("WISE speedup over MKL", &wise))?;
    writeln!(out, "{}", summarize("IE overhead (iters)  ", &ie_oh))?;
    writeln!(out, "{}", summarize("WISE overhead (iters)", &wise_oh))?;
    writeln!(
        out,
        "\nmeans: IE {:.2}x | WISE {:.2}x | WISE/IE speedup ratio {:.2}x",
        ev.mean_ie_speedup(),
        ev.mean_wise_speedup(),
        ev.mean_wise_speedup() / ev.mean_ie_speedup()
    )?;
    writeln!(
        out,
        "preprocessing: IE {:.2} vs WISE {:.2} MKL iterations (WISE = {:.0}% of IE)",
        ev.mean_ie_overhead_iters(),
        ev.mean_wise_overhead_iters(),
        100.0 * ev.mean_wise_overhead_iters() / ev.mean_ie_overhead_iters()
    )?;
    writeln!(out, "(paper: IE 2.11x, WISE/IE 1.14x, WISE overhead < 50% of IE's 17.43 iters)")?;

    let rows: Vec<String> = ev
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{},{:.4},{:.4},{:.4},{:.4}",
                o.name,
                o.ie_speedup_over_mkl(),
                o.wise_speedup_over_mkl(),
                o.ie_overhead_mkl_iters(),
                o.wise_overhead_mkl_iters()
            )
        })
        .collect();
    out.csv(
        ctx,
        "sec64_inspector_executor.csv",
        "matrix,ie_speedup,wise_speedup,ie_overhead_iters,wise_overhead_iters",
        &rows,
    )
}

/// Table 4 / Section 6.5: mean WISE speedup over MKL for every
/// decision-tree (max depth D, pruning ccp_alpha) combination, 10-fold
/// CV end to end.
///
/// The 24 grid cells run in parallel against one shared [`CvPlan`]: the
/// fold split and the per-fold presorted columnar layer are built once
/// and reused by every cell and every per-configuration model.
///
/// The paper's reading: ccp must stay below 0.05 and D at 10+; the
/// chosen cell is D=15, ccp=0.005.
pub fn table4(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.full_labels();
    let k = 10.min(labels.len());

    writeln!(out,
        "== Table 4: mean WISE speedup over MKL vs tree hyperparameters ({k}-fold CV, {} matrices) ==\n",
        labels.len()
    )?;
    let plan = CvPlan::build(&labels, k, ctx.seed);
    let cells =
        sweep_table4(|params| evaluate_cv_planned(&labels, &plan, params).mean_wise_speedup());

    write!(out, "{:>6} |", "D\\ccp")?;
    for ccp in CCP_GRID {
        write!(out, " {ccp:>6}")?;
    }
    writeln!(out)?;
    let mut rows = Vec::new();
    for (di, d) in DEPTH_GRID.iter().enumerate() {
        write!(out, "{d:>6} |")?;
        for (ci, _) in CCP_GRID.iter().enumerate() {
            let cell = &cells[di * CCP_GRID.len() + ci];
            write!(out, " {:>6.2}", cell.score)?;
            rows.push(format!("{},{},{:.4}", cell.max_depth, cell.ccp_alpha, cell.score));
        }
        writeln!(out)?;
    }
    writeln!(out, "\n(paper: 2.21-2.41 across the grid, chosen D=15 ccp=0.005 at 2.40)")?;
    out.csv(ctx, "table4_hyperparams.csv", "max_depth,ccp_alpha,mean_wise_speedup", &rows)
}

fn top_features(importances: &[f64], k: usize) -> Vec<(String, f64)> {
    let names = FeatureVector::names();
    let mut idx: Vec<usize> = (0..importances.len()).collect();
    idx.sort_by(|&a, &b| importances[b].total_cmp(&importances[a]));
    idx.iter()
        .take(k)
        .filter(|&&i| importances[i] > 0.0)
        .map(|&i| (names[i].clone(), importances[i]))
        .collect()
}

/// Which Table 2 features do the trained models actually use?
///
/// Trains the full registry (paper hyperparameters) on the corpus and
/// reports, per representative model and aggregated over all 29, the
/// features with the highest importance (normalized training-error
/// decrease). The paper's qualitative claims to check: the *skew*
/// statistics of R/C should drive scheduling- and padding-sensitive
/// models (CSR, SELLPACK, Sell-c-σ), while *locality* metrics should
/// drive the LAV family.
pub fn feature_importance(ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let labels = ctx.full_labels();
    let registry = ModelRegistry::train(&labels, TreeParams::default());

    let representative = [
        "CSR-Dyn",
        "SELLPACK-c8-StCont",
        "Sell-c-s-c8-s4096-StCont",
        "Sell-c-R-c8",
        "LAV-1Seg-c8",
        "LAV-c8-T80",
    ];
    writeln!(out, "== Feature importances (trained on {} matrices) ==\n", labels.len())?;
    for label in representative {
        let i = labels.config_index(label);
        let imp = registry.tree(i).feature_importances();
        let top = top_features(&imp, 5);
        writeln!(out, "-- {label} --")?;
        for (name, v) in top {
            writeln!(out, "   {name:<18} {:.1}%", v * 100.0)?;
        }
        writeln!(out)?;
    }

    // Aggregate across all 29 models.
    let mut agg = vec![0.0f64; FeatureVector::names().len()];
    for i in 0..labels.catalog.len() {
        for (a, v) in agg.iter_mut().zip(registry.tree(i).feature_importances()) {
            *a += v;
        }
    }
    for v in agg.iter_mut() {
        *v /= labels.catalog.len() as f64;
    }
    writeln!(out, "== Aggregate over all 29 models: top 12 features ==")?;
    let mut rows = Vec::new();
    for (name, v) in top_features(&agg, 12) {
        writeln!(out, "   {name:<18} {:.1}%", v * 100.0)?;
        rows.push(format!("{name},{v:.5}"));
    }
    out.csv(ctx, "feature_importance.csv", "feature,mean_importance", &rows)
}

/// Model-vs-measured validation: runs a probe set of `{matrix, config}`
/// pairs through both the deterministic cost model and host wall-clock
/// measurement, then reports the Spearman rank correlation and the
/// calibrated absolute-scale fit.
///
/// The claim being validated is the one the figures rest on: the model
/// orders configurations the way real hardware does. (On a single-core
/// host the parallel-scheduling terms are untested — run on a multicore
/// machine for the full check.)
pub fn model_validation(_ctx: &BenchContext, out: &mut Report) -> fmt::Result {
    let nthreads = default_threads();
    let matrices = [
        ("HS_s13_d16", RmatParams::HIGH_SKEW.generate_shuffled(13, 16, 1)),
        ("LL_s13_d16", RmatParams::LOW_LOC.generate(13, 16, 1)),
        ("HL_s13_d8", RmatParams::HIGH_LOC.generate(13, 8, 1)),
        ("stencil2d_90", suite::stencil_2d(90, 90)),
        ("banded_8k", suite::banded(8192, 16, 0.7, 3)),
    ];
    let configs = [
        MethodConfig::csr(Schedule::StCont),
        MethodConfig::csr(Schedule::Dyn),
        MethodConfig::sellpack(8, Schedule::StCont),
        MethodConfig::sell_c_sigma(8, 4096, Schedule::StCont),
        MethodConfig::sell_c_r(8),
        MethodConfig::lav_1seg(8),
        MethodConfig::lav(8, 0.8),
    ];
    // Model the HOST, not the paper's server: same thread count.
    let mut machine = MachineModel::scaled_for_rows(1 << 13);
    machine.threads = nthreads;

    let probes: Vec<(&wise_matrix::Csr, MethodConfig)> =
        matrices.iter().flat_map(|(_, m)| configs.iter().map(move |c| (m, *c))).collect();
    writeln!(
        out,
        "validating the cost model against wall clock: {} probes on {} thread(s)\n",
        probes.len(),
        nthreads
    )?;
    let (calibrated, report) = calibrate_to_host(&machine, &probes, nthreads, 7);

    let modeled: Vec<f64> = report.probes.iter().map(|&(m, _)| m).collect();
    let measured: Vec<f64> = report.probes.iter().map(|&(_, t)| t).collect();
    let rho = spearman(&modeled, &measured);

    writeln!(out, "{:<14} {:<26} {:>12} {:>12}", "matrix", "config", "modeled*a", "measured")?;
    for ((mi, cfg), &(mo, me)) in
        matrices.iter().flat_map(|(n, _)| configs.iter().map(move |c| (n, c))).zip(&report.probes)
    {
        writeln!(
            out,
            "{:<14} {:<26} {:>11.3e}s {:>11.3e}s",
            mi,
            cfg.label(),
            mo * report.alpha,
            me
        )?;
    }
    writeln!(out, "\nSpearman rank correlation (model vs measured): {rho:.3}")?;
    writeln!(
        out,
        "time-scale fit alpha = {:.3e}, rms relative error after scaling = {:.2}",
        report.alpha, report.rms_rel_error
    )?;
    writeln!(out, "calibrated machine: {}", calibrated.name)?;
    Ok(())
}
