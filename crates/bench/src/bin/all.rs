//! Runs the paper's tables and figures in-process (labels are computed
//! once and shared through the on-disk cache), saving each report as
//! `<name>.txt` under the results directory.
//!
//! Usage: `all [--only <name>] [--trace-out <path>]`. A plain run covers
//! every default figure in order; `--only` runs the named one, including
//! `table4`, `feature_importance` and `model_validation`, which a plain
//! run skips.

use wise_bench::figures::{Figure, FIGURES};
use wise_bench::report::{self, Report};
use wise_bench::BenchContext;

fn main() {
    let _trace = report::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets: Vec<&Figure> = match args.iter().position(|a| a == "--only") {
        Some(i) => {
            let name = args.get(i + 1).unwrap_or_else(|| usage("--only needs a name"));
            let fig = FIGURES.iter().find(|f| f.name == name);
            vec![fig.unwrap_or_else(|| usage(&format!("unknown figure '{name}'")))]
        }
        None => FIGURES.iter().filter(|f| f.default).collect(),
    };
    let ctx = BenchContext::from_env();
    for fig in &targets {
        if targets.len() > 1 {
            report::section(fig.name);
        }
        let mut out = Report::default();
        (fig.run)(&ctx, &mut out).expect("a report writes to stdout and memory");
        let path = ctx.results_dir.join(format!("{}.txt", fig.name));
        std::fs::write(&path, &out.text).expect("write report");
    }
    report::progress(format_args!("reports written under {}/", ctx.results_dir.display()));
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("all: {problem}\nusage: all [--only <name>]\nnames: {}", names.join(" "));
    std::process::exit(2)
}
