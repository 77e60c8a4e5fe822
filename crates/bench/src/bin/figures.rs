//! Regenerates the data behind one table or figure of the paper's
//! evaluation (see DESIGN.md for the per-experiment index).
//!
//! ```console
//! $ figures list                # the experiment names
//! $ figures table1
//! $ figures fig13 --jobs 8      # executor flags: see photon_bench::cli
//! ```
//!
//! Experiments that fan a spec grid over the executor take its flags.
//! The rest put nothing through it — `table1`/`table2` print static
//! configuration, `fig6` and `offline_tradeoff` are one sequential
//! recorded run — so a flag there would be parsed and ignored; they
//! refuse arguments instead.

use photon_bench::cli::{parse_exec_options, usage};
use photon_bench::{figures, ExecOptions};

enum Experiment {
    Grid(fn(&ExecOptions)),
    Fixed(fn()),
}
use Experiment::{Fixed, Grid};

// One row per experiment; the closures only discard the returned rows.
#[rustfmt::skip]
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", Fixed(figures::table1)),
    ("table2", Fixed(figures::table2)),
    ("fig1", Grid(|o| { figures::fig1(o); })),
    ("fig2", Grid(|o| { figures::fig2(o); })),
    ("fig3", Grid(|o| { figures::fig3(o); })),
    ("fig4", Grid(|o| { figures::fig4(o); })),
    ("fig6", Fixed(|| { figures::fig6(); })),
    ("fig8", Grid(|o| { figures::fig8(o); })),
    ("fig11", Grid(|o| { figures::fig11(o); })),
    ("fig13", Grid(|o| { figures::fig13(o); })),
    ("fig14", Grid(|o| { figures::fig14(o); })),
    ("fig15", Grid(|o| { figures::fig15(o); })),
    ("fig16", Grid(|o| { figures::fig16(o); })),
    ("fig17", Grid(|o| { figures::fig17(o); })),
    ("offline_tradeoff", Fixed(|| { figures::offline_tradeoff(); })),
];

fn names(sep: &str) -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    names.join(sep)
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        fail(&format!(
            "usage: figures <list|NAME> [executor flags]\nNAME: {}",
            names(" ")
        ));
    }
    let name = args.remove(0);
    if name == "list" {
        println!("{}", names("\n"));
        return;
    }
    let Some((_, experiment)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
        fail(&format!("unknown experiment {name}\nNAME: {}", names(" ")));
    };
    let bin = format!("figures {name}");
    match experiment {
        Fixed(run) if args.is_empty() => run(),
        Fixed(_) => fail(&format!(
            "{bin} runs nothing through the executor and takes no arguments: {args:?}"
        )),
        Grid(run) => match parse_exec_options(&mut args) {
            Ok(opts) if args.is_empty() => run(&opts),
            Ok(_) => fail(&format!("unknown arguments: {args:?}\n{}", usage(&bin, ""))),
            Err(e) => fail(&format!("{e}\n{}", usage(&bin, ""))),
        },
    }
}
