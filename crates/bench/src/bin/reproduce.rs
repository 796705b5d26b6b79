//! `reproduce` — regenerates every table and figure of the paper's
//! evaluation (Section 6) and prints them as aligned text tables, with the
//! paper's reference values in each caption.
//!
//! ```text
//! reproduce [--quick] [--seed N] [--invocations N]
//!           [--table1] [--fig3] [--fig4] [--fig5] [--fig6] [--fig7]
//!           [--fig8] [--breakeven] [--ablations] [--all]
//! ```
//!
//! With no figure flags, `--all` is assumed.

use dqep_harness::experiments::{
    ablation, breakeven, extension, fig3, fig4, fig5, fig6, fig7, fig8, run_all, table1,
};
use dqep_harness::params::ExperimentParams;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };

    let mut params = ExperimentParams::paper();
    if has("--quick") {
        params.invocations = 10;
        params.with_memory_uncertainty = false;
    }
    if let Some(seed) = value_of("--seed") {
        params.seed = seed;
    }
    if let Some(n) = value_of("--invocations") {
        params.invocations = n as usize;
    }

    let figures = [
        "--table1",
        "--fig3",
        "--fig4",
        "--fig5",
        "--fig6",
        "--fig7",
        "--fig8",
        "--breakeven",
        "--ablations",
        "--extensions",
    ];
    let any_selected = figures.iter().any(|f| has(f));
    let all = has("--all") || !any_selected;
    let want = |flag: &str| all || has(flag);

    println!(
        "dqep reproduce — Cole & Graefe, 'Optimization of Dynamic Query \
         Evaluation Plans' (SIGMOD 1994)\nseed={} invocations={} \
         memory-uncertainty={}\n",
        params.seed, params.invocations, params.with_memory_uncertainty
    );

    if want("--table1") {
        println!("{}\n", table1::table());
    }

    let needs_runs = ["--fig3", "--fig4", "--fig5", "--fig6", "--fig7", "--fig8", "--breakeven"]
        .iter()
        .any(|f| want(f));
    if needs_runs {
        eprintln!("running the five queries under all scenarios ...");
        let results = run_all(&params);
        if want("--fig3") {
            for r in &results {
                println!("{}\n", fig3::table(r));
            }
        }
        if want("--fig4") {
            println!("{}\n", fig4::table(&results));
        }
        if want("--fig5") {
            println!("{}\n", fig5::table(&results));
        }
        if want("--fig6") {
            println!("{}\n", fig6::table(&results));
            println!("{}\n", fig6::module_table(&results));
        }
        if want("--fig7") {
            println!("{}\n", fig7::table(&results));
        }
        if want("--fig8") {
            println!("{}\n", fig8::table(&results));
        }
        if want("--breakeven") {
            println!("{}\n", breakeven::table(&results));
        }
    }

    if want("--ablations") {
        eprintln!("running ablations on query 3 ...");
        let (_, rows) = ablation::run(3, params.invocations.min(25), params.seed);
        println!("{}\n", ablation::table(3, &rows));
    }

    if want("--extensions") {
        eprintln!("running the estimation-error extension experiment ...");
        let rows = extension::run(params.invocations.min(50), params.seed);
        println!("{}\n", extension::table(&rows));
    }
}
