//! Tree-training microbenchmark: the presorted columnar engine
//! (`DecisionTree::fit`, and `fit_with` over a shared [`Presort`])
//! against the exact reference trainer (`DecisionTree::fit_reference`),
//! on the shapes WISE actually trains — ~1000x80 (the parity-suite
//! scale) and 1500x67 (the registry corpus shape, 7 classes).
//!
//! The synthetic data mirrors the real workload: mostly-continuous
//! feature columns with a handful of quantized (duplicate-heavy) ones,
//! and labels that are *learnable* from a few feature thresholds with
//! ~8% noise — the regime WISE's ~90%-accurate format classes live in.
//!
//! Also checks, per shape, that both trainers produce bit-identical
//! trees before trusting the timings. `WISE_SCALE=tiny` (the CI smoke
//! mode) runs one small shape with one repetition; pass `--trace-out
//! <path>` to capture the `ml.fit` / `train.presort` / `train.split`
//! spans for `check_trace`.

use std::time::Instant;
use wise_bench::*;
use wise_ml::{Dataset, DecisionTree, Presort, TreeParams};
use wise_trace::export::json::ToJson;

/// xorshift64* step for the generator below.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(2685821657736338717)
}

/// Deterministic WISE-like dataset: continuous features (every 8th
/// column quantized to 97 levels so split-boundary handling over
/// duplicates is exercised too), labels decided by feature thresholds
/// with a deterministic ~8% noise flip.
fn synthetic_dataset(n: usize, f: usize, classes: u32, seed: u64) -> Dataset {
    let mut state = seed.wrapping_mul(2685821657736338717).wrapping_add(1442695040888963407) | 1;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..f)
                .map(|j| {
                    let u = next(&mut state);
                    if j % 8 == 0 {
                        (u % 97) as f64 / 97.0
                    } else {
                        (u >> 11) as f64 / (1u64 << 53) as f64
                    }
                })
                .collect()
        })
        .collect();
    let labels: Vec<u32> = rows
        .iter()
        .map(|r| {
            let mut c = 0u64;
            if r[1] > 0.5 {
                c += 1;
            }
            if r[3] > 0.3 {
                c += 2;
            }
            if r[7] > 0.66 {
                c += 1;
            }
            if next(&mut state) % 100 < 8 {
                c += 1 + next(&mut state) % (classes as u64 - 1);
            }
            (c % classes as u64) as u32
        })
        .collect();
    Dataset::new(rows, labels, classes as usize)
}

fn time_fits(reps: usize, mut fit: impl FnMut() -> DecisionTree) -> (f64, DecisionTree) {
    let tree = fit(); // warm-up, also the parity witness
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(fit());
    }
    (t0.elapsed().as_secs_f64() / reps as f64, tree)
}

fn main() {
    let _trace = wise_bench::report::init();
    let ctx = BenchContext::from_env();
    let quick = ctx.scale_name == "tiny";
    let reps = if quick { 1 } else { 10 };
    let shapes: &[(usize, usize, u32)] =
        if quick { &[(200, 20, 4)] } else { &[(1000, 80, 4), (1500, 67, 7)] };
    let params = TreeParams::default();

    println!("== tree training: presorted columnar engine vs reference trainer ==");
    println!("(reps per timing: {reps}; parity asserted per shape)\n");
    println!(
        "{:>10} {:>12} {:>12} {:>8} {:>14} {:>8}",
        "shape", "reference", "presorted", "speedup", "shared-presort", "speedup"
    );
    let mut rows = Vec::new();
    for &(n, f, classes) in shapes {
        let ds = synthetic_dataset(n, f, classes, ctx.seed);
        let (t_ref, tree_ref) = time_fits(reps, || DecisionTree::fit_reference(&ds, params));
        let (t_new, tree_new) = time_fits(reps, || DecisionTree::fit(&ds, params));
        // The registry / Table 4 path: one presort shared by many fits.
        let presort = Presort::for_dataset(&ds);
        let (t_shared, tree_shared) =
            time_fits(reps, || DecisionTree::fit_with(&ds, &presort, params));
        for (tree, what) in [(&tree_new, "fit"), (&tree_shared, "fit_with")] {
            // JSON text compares every threshold bit for bit.
            assert_eq!(
                tree_ref.to_json(),
                tree.to_json(),
                "engine ({what}) and reference disagree on {n}x{f}"
            );
        }
        let (speedup, speedup_shared) = (t_ref / t_new, t_ref / t_shared);
        println!(
            "{:>10} {:>10.2}ms {:>10.2}ms {:>7.2}x {:>12.2}ms {:>7.2}x",
            format!("{n}x{f}"),
            t_ref * 1e3,
            t_new * 1e3,
            speedup,
            t_shared * 1e3,
            speedup_shared
        );
        rows.push(format!(
            "{n},{f},{classes},{:.6},{:.6},{speedup:.3},{:.6},{speedup_shared:.3}",
            t_ref * 1e3,
            t_new * 1e3,
            t_shared * 1e3
        ));
    }
    println!("\n(trees verified bit-identical before timing; see tests/tree_parity.rs)");
    ctx.write_csv(
        "tree_train.csv",
        "n_samples,n_features,n_classes,reference_ms,presorted_ms,speedup,shared_presort_ms,shared_speedup",
        &rows,
    );
}
