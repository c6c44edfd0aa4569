//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [fig1|fig4|table1|sec5|precision|ablation|planner|parallel|prepared|pipeline|profile|serve|chaos|bench-check|all] [--quick|--smoke] [--strict] [--replicated]
//! ```
//!
//! `--quick` (alias `--smoke`) shrinks instance counts and scale factors so
//! the full suite runs in well under a minute (used by CI and `cargo bench`
//! smoke runs). `pipeline` compares the vectorized evaluators of the
//! compiled runtime against its row-at-a-time ones and writes the
//! machine-readable perf baseline `BENCH_engine.json`.
//! `bench-check` re-reads that file and flags a vectorized-vs-compiled
//! regression beyond the noise tolerance — warn-only by default (CI runs on
//! a one-core container whose absolute numbers are unstable), a hard failure
//! with `--strict` (the mode for local release runs). `profile` executes the
//! prepared Q3+/Q4+ instrumented, prints the top-5 operators by self time
//! and the `EXPLAIN ANALYZE` tree, amends `BENCH_engine.json` with the
//! per-operator breakdowns, and guards the instrumentation overhead on the
//! prepared hot path (< 5%; warn-only without `--strict`).

use certus_bench::experiments::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
    let strict = args.iter().any(|a| a == "--strict");

    if what == "bench-check" {
        let path = std::path::Path::new("BENCH_engine.json");
        let tolerance = 1.10;
        let rows = match bench_check(path, tolerance) {
            Ok(rows) if !rows.is_empty() => rows,
            Ok(_) => {
                eprintln!("bench-check: no query entries in {}", path.display());
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("bench-check: cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        let mut regressed = false;
        for r in &rows {
            let verdict = if r.ok { "ok" } else { "REGRESSED" };
            println!(
                "bench-check {:>4}: vectorized {:.6}s vs compiled {:.6}s ({:.0}% tolerance) — {verdict}",
                r.query,
                r.vectorized_wall,
                r.compiled_wall,
                (tolerance - 1.0) * 100.0,
            );
            regressed |= !r.ok;
        }
        if regressed {
            if strict {
                eprintln!("bench-check: vectorized path regressed vs the compiled baseline");
                std::process::exit(1);
            }
            println!("bench-check: regression detected (warn-only without --strict)");
        }
        return;
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
    if what == "planner" || what == "all" {
        let (scale, reps) = if quick { (0.001, 1) } else { (0.004, 3) };
        print_planner_on_off(&planner_on_off(scale, 0.02, 904, reps));
        println!();
    }
    if what == "parallel" || what == "all" {
        let (scale, reps) = if quick { (0.001, 1) } else { (0.002, 2) };
        let scaling = parallel_scaling(scale, 0.02, 905, reps, &[1, 2, 4, 8]);
        print_parallel_scaling(&scaling);
        println!();
        // Threads × concurrent clients on one shared pool: the multi-query
        // half of the scheduler story, recorded next to the per-query curve.
        let (cscale, creps) = if quick { (0.001, 2) } else { (0.002, 4) };
        let clients: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
        let concurrency = concurrency_scaling(cscale, 0.02, 905, creps, &[1, 2, 4], clients);
        print_concurrency_scaling(&concurrency);
        let path = std::path::Path::new("BENCH_parallel.json");
        write_parallel_bench_json(path, &scaling, &concurrency).expect("write BENCH_parallel.json");
        println!("wrote {}", path.display());
        println!();
    }
    if what == "prepared" || what == "all" {
        let (scale, reps) = if quick { (0.001, 2) } else { (0.002, 5) };
        let (rows, cache) = prepared_execution(scale, 0.02, 906, reps);
        print_prepared(&rows, &cache);
        println!();
    }
    if what == "pipeline" || what == "all" {
        // Q3+ runs in single-digit milliseconds, so the mean needs a real
        // sample count to be stable against scheduler noise.
        let (scale, reps) = if quick { (0.001, 2) } else { (0.003, 25) };
        let rows = engine_pipeline(scale, 0.03, 907, reps);
        print_engine_pipeline(&rows);
        let path = std::path::Path::new("BENCH_engine.json");
        write_engine_bench_json(path, &rows).expect("write BENCH_engine.json");
        println!("wrote {}", path.display());
        println!();
    }
    if what == "serve" {
        // Not part of `all`: the 64-client TCP fleet is its own workload.
        // `--smoke` shrinks it to 8 clients for CI; every served answer is
        // byte-checked against local execution either way.
        let (scale, clients, reps, burst) =
            if quick { (0.001, 8, 2, 4) } else { (0.002, 64, 5, 8) };
        let report = serve_benchmark(scale, 0.02, 908, clients, reps, burst);
        print_serve(&report);
        let path = std::path::Path::new("BENCH_server.json");
        write_server_bench_json(path, &report).expect("write BENCH_server.json");
        println!("wrote {}", path.display());
        println!();
    }
    if what == "chaos" {
        // Not part of `all`: the crash/recover loop is its own workload.
        // Each round recovers the previous generation's on-disk state,
        // byte-checks it against a local mirror of the acknowledged writes,
        // then injects WAL faults (failed fsyncs, torn appends) before the
        // next crash. Amends BENCH_server.json with recovery-time and
        // durable-write-throughput figures. `--replicated` runs the
        // kill/promote loop over a sync primary/replica pair instead:
        // stream faults (severed sends, torn segments, apply refusals,
        // withheld acks), one promotion per round, every quorum-acked
        // write asserted present on the promoted node, and failover-time
        // plus replication-lag figures amended alongside.
        let replicated = args.iter().any(|a| a == "--replicated");
        let path = std::path::Path::new("BENCH_server.json");
        if replicated {
            let (rounds, writes) = if quick { (1, 16) } else { (7, 48) };
            let report = replicated_chaos_experiment(0.001, 0.02, 910, rounds, writes);
            print_repl_chaos(&report);
            append_repl_chaos_json(path, &report).expect("amend BENCH_server.json");
            println!("amended {} with replication figures", path.display());
        } else {
            let (rounds, writes) = if quick { (3, 16) } else { (9, 64) };
            let report = chaos_experiment(0.001, 0.02, 909, rounds, writes);
            print_chaos(&report);
            append_chaos_json(path, &report).expect("amend BENCH_server.json");
            println!("amended {} with chaos figures", path.display());
        }
        println!();
    }
    if what == "profile" || what == "all" {
        // Enough reps for a stable minimum: the overhead guard compares
        // millisecond-scale minima, where a single sample is all noise.
        let (scale, reps) = if quick { (0.001, 3) } else { (0.003, 15) };
        let rows = profile_queries(scale, 0.03, 907, reps);
        print_profile(&rows);
        let path = std::path::Path::new("BENCH_engine.json");
        append_profile_json(path, &rows).expect("amend BENCH_engine.json");
        println!("amended {} with per-operator profiles", path.display());
        let worst = rows.iter().map(ProfileRow::overhead).fold(f64::NEG_INFINITY, f64::max);
        if worst > 0.05 {
            if strict {
                eprintln!(
                    "profile: instrumentation overhead {:.1}% exceeds the 5% budget",
                    worst * 100.0
                );
                std::process::exit(1);
            }
            println!(
                "profile: instrumentation overhead {:.1}% exceeds the 5% budget \
                 (warn-only without --strict)",
                worst * 100.0
            );
        }
        println!();
    }
}
