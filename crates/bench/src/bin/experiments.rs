//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [--scale S] [all | table1 | table2 | figure2 | table3 | table4 |
//!              table5 | table6 | table7 | figure8 | figure9 | table8 |
//!              figure10 | extensions]
//! ```
//!
//! An unknown target or flag, or a scale outside (0, 1], prints the usage
//! and exits with status 2 before anything runs.
//!
//! `--scale 1.0` reproduces the paper's cardinalities (131k–599k objects per
//! relation); the default of 0.1 runs the whole suite in well under a
//! minute on a laptop while preserving object density (the generators
//! shrink the world with √scale, see `rsj-datagen`).

use rsj_bench::experiments::{cpu, diff_height, extensions, io_sched, sj1_io, summary, table1};
use rsj_bench::Workbench;
use rsj_core::JoinPlan;
use rsj_datagen::TestId;
use std::io::Write;

const DEFAULT_SCALE: f64 = 0.1;

/// Every target the command line accepts.
const TARGETS: [&str; 14] = [
    "all",
    "table1",
    "table2",
    "figure2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure8",
    "figure9",
    "table8",
    "figure10",
    "extensions",
];

fn main() {
    let mut scale = DEFAULT_SCALE;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("missing value after --scale"));
                scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                    .unwrap_or_else(|| {
                        usage(&format!("--scale expects a float in (0, 1], got {v}"))
                    });
            }
            "--help" | "-h" => usage(""),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
            target if TARGETS.contains(&target) => targets.push(target.to_string()),
            other => usage(&format!("unknown target {other}")),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    let all = targets.iter().any(|t| t == "all");
    let want = |name: &str| all || targets.iter().any(|t| t == name);

    let out = &mut std::io::stdout();
    writeln!(
        out,
        "# SIGMOD'93 spatial-join reproduction — experiment run"
    )
    .unwrap();
    writeln!(
        out,
        "scale = {scale} (paper cardinality x scale, world shrunk by sqrt(scale))\n"
    )
    .unwrap();

    // Test (A) trees are shared by Tables 1-6 and Figures 2, 8, 9.
    let needs_a = [
        "table1",
        "table2",
        "figure2",
        "table3",
        "table4",
        "table5",
        "table6",
        "figure8",
        "figure9",
        "extensions",
    ]
    .iter()
    .any(|n| want(n));
    let mut wa = needs_a.then(|| Workbench::new(TestId::A, scale));

    if want("table1") {
        table1::run(wa.as_mut().unwrap(), out).unwrap();
    }
    let mut sj1_grid = None;
    if want("table2") || want("figure2") || want("table6") || want("figure9") {
        let grid = sj1_io::table2(wa.as_mut().unwrap(), out).unwrap();
        sj1_grid = Some(grid);
    }
    if want("figure2") {
        sj1_io::figure2(sj1_grid.as_ref().unwrap(), out).unwrap();
    }
    let mut sj_counts = None;
    if want("table3") || want("table4") {
        sj_counts = Some(cpu::table3(wa.as_mut().unwrap(), out).unwrap());
    }
    if want("table4") {
        cpu::table4(wa.as_mut().unwrap(), sj_counts.as_ref().unwrap(), out).unwrap();
    }
    if want("table5") {
        io_sched::table5(wa.as_mut().unwrap(), out).unwrap();
    }
    let mut sj4_grid = None;
    if want("table6") || want("figure8") || want("figure9") {
        let grid = io_sched::table6(wa.as_mut().unwrap(), sj1_grid.as_ref().unwrap(), out).unwrap();
        sj4_grid = Some(grid);
    }
    if want("table7") {
        diff_height::run(scale, out).unwrap();
    }
    if want("figure8") {
        summary::figure8(sj4_grid.as_ref().unwrap(), out).unwrap();
    }
    if want("figure9") {
        let sj2 = sj1_io::run_grid(wa.as_mut().unwrap(), JoinPlan::sj2());
        summary::figure9(
            sj1_grid.as_ref().unwrap(),
            &sj2,
            sj4_grid.as_ref().unwrap(),
            out,
        )
        .unwrap();
    }
    if want("table8") || want("figure10") {
        summary::table8_figure10(scale, out).unwrap();
    }
    if want("extensions") {
        extensions::tree_quality(wa.as_mut().unwrap(), out).unwrap();
        extensions::baselines(wa.as_mut().unwrap(), out).unwrap();
        extensions::buffer_policies(wa.as_mut().unwrap(), out).unwrap();
        extensions::refinement(scale, out).unwrap();
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("usage: experiments [--scale S] [{}]", TARGETS.join(" | "));
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
