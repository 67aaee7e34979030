//! PageRank on a power-law web graph — the iterative-SpMV workload the
//! paper's introduction motivates (Brin & Page '98). Compares the
//! fixed MKL-like baseline kernel against the WISE-selected method on
//! the same graph, verifying both produce the same ranking.
//!
//! Run with: `cargo run --release -p wise-core --example pagerank`

use std::time::Instant;
use wise_core::pipeline::{TrainOptions, Wise};
use wise_gen::{Corpus, CorpusScale, RmatParams};
use wise_kernels::baseline::mkl_like_config;
use wise_kernels::method::MethodConfig;
use wise_kernels::srvpack::SpmvWorkspace;
use wise_matrix::Csr;

/// Column-stochastic scaling of the adjacency transpose: PageRank
/// iterates x' = d * P x + (1-d)/n with P[i][j] = A[j][i] / outdeg(j).
fn pagerank_matrix(adj: &Csr) -> Csr {
    let outdeg = adj.nnz_per_row();
    let t = adj.transpose();
    let mut vals = Vec::with_capacity(t.nnz());
    for r in 0..t.nrows() {
        for (c, _) in t.row(r) {
            vals.push(1.0 / outdeg[c as usize] as f64);
        }
    }
    Csr::try_new(t.nrows(), t.ncols(), t.row_ptr().to_vec(), t.col_idx().to_vec(), vals)
        .expect("stochastic matrix is valid")
}

fn pagerank(p: &MethodConfig, m: &Csr, iters: usize, threads: usize) -> (Vec<f64>, f64) {
    let n = m.nrows();
    let damping = 0.85;
    let prepared = p.prepare(m);
    let mut ws = SpmvWorkspace::default();
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let t0 = Instant::now();
    for _ in 0..iters {
        prepared.spmv(&x, &mut y, threads, &mut ws);
        let teleport = (1.0 - damping) / n as f64;
        for yi in y.iter_mut() {
            *yi = damping * *yi + teleport;
        }
        std::mem::swap(&mut x, &mut y);
    }
    (x, t0.elapsed().as_secs_f64())
}

fn main() {
    let threads = wise_kernels::sched::default_threads();
    println!("building a 2^13-node power-law web graph...");
    let adj = RmatParams::HIGH_SKEW.generate(13, 16, 7);
    let m = pagerank_matrix(&adj);

    println!("training WISE...");
    let scale = CorpusScale::tiny();
    let opts = TrainOptions::for_scale(&scale);
    let wise = Wise::train(&Corpus::full(&scale, 42), &opts);
    let choice = wise.select(&m);
    if let Some(info) = &choice.cascade {
        println!("cascade: answered in {:?} (margin {:.3})", info.stage, info.margin);
    }
    println!("WISE selected {} for the PageRank matrix", choice.config.label());

    let iters = 20;
    // An iterative solver knows its iteration count up front: refine the
    // pick with the amortized tier, reusing the features the plain
    // selection already extracted instead of paying extraction twice.
    // A cascade stage-1 answer carries only the probe slots, which need
    // not cover the slots the trees read; in that case the amortized
    // selection extracts just the feature groups those slots need.
    let amortized = match &choice.cascade {
        Some(info) if info.stage == wise_core::CascadeStage::Stage1 => {
            wise.select_for_iterations(&m, &opts.estimator, iters as u64)
        }
        _ => wise.select_for_iterations_from_features(
            &m,
            choice.features.clone(),
            &opts.estimator,
            iters as u64,
        ),
    };
    println!(
        "amortized over {iters} iterations: {} ({:.1}us of feature extraction)",
        amortized.config.label(),
        amortized.timing.feature_extraction_s * 1e6
    );
    let (pr_mkl, t_mkl) = pagerank(&mkl_like_config(), &m, iters, threads);
    let (pr_wise, t_wise) = pagerank(&choice.config, &m, iters, threads);

    // Same ranking from both kernels (floating-point-tolerant).
    let mut max_diff = 0.0f64;
    for (a, b) in pr_mkl.iter().zip(&pr_wise) {
        max_diff = max_diff.max((a - b).abs());
    }
    assert!(max_diff < 1e-12, "kernels disagree: {max_diff}");

    let mut top: Vec<(usize, f64)> = pr_wise.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop-5 pages by rank:");
    for (node, score) in top.iter().take(5) {
        println!("  node {node:>6}  score {score:.3e}");
    }
    println!(
        "\n{iters} iterations on {threads} thread(s): MKL-like {t_mkl:.3}s, WISE choice {t_wise:.3}s"
    );
    println!("(wall-clock differences need real multicore hardware; results are identical)");
}
