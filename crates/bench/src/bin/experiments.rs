//! Experiment runner: regenerates every table and figure of the paper, and
//! runs the two fault-injection loops over the server.
//!
//! ```text
//! experiments [fig1|fig4|table1|sec5|precision|ablation|chaos|all] [--quick|--smoke] [--replicated]
//! ```
//!
//! `--quick` (alias `--smoke`) shrinks instance counts and scale factors so
//! `all` runs in well under a minute (used by CI). `chaos` is not part of
//! `all`: it is a correctness run, not a figure. It exits non-zero (a failed
//! assertion) when an acknowledged write is lost, a refused one resurfaces,
//! or a served answer differs from local execution; `--replicated` runs the
//! kill/promote loop over a sync primary/replica pair instead of the
//! single-node crash/recover loop.

use certus_bench::experiments::*;

const USAGE: &str = "usage: experiments [fig1|fig4|table1|sec5|precision|ablation|chaos|all] \
                     [--quick|--smoke] [--replicated]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.iter().find(|a| !a.starts_with("--")).map_or("all", String::as_str);
    let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
    let known = ["fig1", "fig4", "table1", "sec5", "precision", "ablation", "chaos", "all"];
    if !known.contains(&what) {
        eprintln!("experiments: unknown experiment `{what}`\n{USAGE}");
        std::process::exit(2);
    }

    let (fig1_scale, fig1_instances, fig1_runs) =
        if quick { (0.0003, 1, 1) } else { (0.0006, 3, 3) };
    let fig1_rates = if quick { vec![0.01, 0.05, 0.10] } else { paper_null_rates() };
    let (fig4_scale, fig4_instances, fig4_reps) =
        if quick { (0.0005, 1, 1) } else { (0.002, 2, 3) };
    let fig4_rates: Vec<f64> = (1..=5).map(|i| i as f64 / 100.0).collect();
    let table1_scales: Vec<f64> =
        if quick { vec![0.0005, 0.001] } else { vec![0.001, 0.003, 0.006, 0.01] };
    let sec5_sizes: Vec<usize> = if quick { vec![8, 16, 32] } else { vec![8, 16, 32, 64, 96] };

    if what == "fig1" || what == "all" {
        print_figure1(&figure1(fig1_scale, fig1_instances, fig1_runs, &fig1_rates));
        println!();
    }
    if what == "fig4" || what == "all" {
        print_figure4(&figure4(fig4_scale, &fig4_rates, fig4_instances, fig4_reps));
        println!();
    }
    if what == "table1" || what == "all" {
        print_table1(&table1(&table1_scales, &[0.01, 0.03, 0.05], if quick { 1 } else { 2 }));
        println!();
    }
    if what == "sec5" || what == "all" {
        print_section5(&section5(&sec5_sizes));
        println!();
    }
    if what == "precision" || what == "all" {
        print_precision_recall(&precision_recall(if quick { 0.0003 } else { 0.0008 }, 0.05, 17));
        println!();
    }
    if what == "ablation" || what == "all" {
        print_ablation(&or_split_ablation(0.001, if quick { 0.00008 } else { 0.0002 }, 0.02));
        println!();
    }
    if what == "chaos" {
        if args.iter().any(|a| a == "--replicated") {
            let (rounds, writes) = if quick { (1, 16) } else { (7, 48) };
            print_repl_chaos(&replicated_chaos_experiment(0.001, 0.02, 910, rounds, writes));
        } else {
            let (rounds, writes) = if quick { (3, 16) } else { (9, 64) };
            print_chaos(&chaos_experiment(0.001, 0.02, 909, rounds, writes));
        }
        println!();
    }
}
