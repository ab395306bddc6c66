//! `repro` — regenerates every table and figure of the C-SAW paper.
//!
//! ```text
//! cargo run -p csaw-bench --release --bin repro              # everything, Quick scale
//! cargo run -p csaw-bench --release --bin repro -- fig9a     # one experiment
//! cargo run -p csaw-bench --release --bin repro -- all --full  # paper-scale counts
//! ```

use csaw_bench::experiments::*;
use csaw_bench::report::Table;
use csaw_bench::Scale;

/// One harness entry: its CLI name and the experiment function.
type Experiment = (&'static str, fn(Scale) -> Vec<Table>);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    // Optional: --csv <dir> writes one CSV per table next to the printout.
    let csv_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create --csv directory");
    }
    let mut skip_next = false;
    let what: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--csv" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let what = if what.is_empty() { vec!["all"] } else { what };

    let menu: &[Experiment] = &[
        ("table1", |_| tables::table1()),
        ("table2", |_| tables::table2()),
        ("fig9a", fig9::fig9a),
        ("fig9b", fig9::fig9b),
        ("fig9c", fig9::fig9c),
        ("fig10", fig10_12::fig10),
        ("fig11", fig10_12::fig11),
        ("fig12", fig10_12::fig12),
        ("fig13", fig13_15::fig13),
        ("fig14", fig13_15::fig14),
        ("fig15", fig13_15::fig15),
        ("fig16", fig16::fig16),
        ("fig17", fig17::fig17),
        ("ablate-warp", ablations::ablate_warp),
        ("ablate-bitmap", ablations::ablate_bitmap),
        ("ablate-select", ablations::ablate_select),
        ("ablate-unified", ablations::ablate_unified),
        ("ablate-reservoir", ablations::ablate_reservoir),
        ("ablate-partitions", ablations::ablate_partitions),
        ("ablate-precompute", ablations::ablate_precompute),
        ("ablate-reorder", ablations::ablate_reorder),
        ("ablate-divergence", ablations::ablate_divergence),
        ("quality", ablations::quality),
        ("sweep-depth", sweeps::sweep_depth),
        ("sweep-oom", sweeps::sweep_oom),
        ("sweep-exec", sweeps::sweep_exec),
        ("sweep-disk", sweeps::sweep_disk),
        ("sweep-overlay", sweeps::sweep_overlay),
        ("sweep-method", sweeps::sweep_method),
    ];

    eprintln!("# C-SAW reproduction harness — scale: {scale:?}");
    for target in what {
        if target == "all" {
            for (name, f) in menu {
                run_one(name, *f, scale, csv_dir.as_deref());
            }
        } else if let Some((name, f)) = menu.iter().find(|(n, _)| *n == target) {
            run_one(name, *f, scale, csv_dir.as_deref());
        } else {
            eprintln!("unknown experiment '{target}'. Available:");
            for (name, _) in menu {
                eprintln!("  {name}");
            }
            std::process::exit(2);
        }
    }
}

fn run_one(
    name: &str,
    f: fn(Scale) -> Vec<Table>,
    scale: Scale,
    csv_dir: Option<&std::path::Path>,
) {
    let t0 = std::time::Instant::now();
    eprintln!("# running {name} ...");
    for (i, table) in f(scale).into_iter().enumerate() {
        table.print();
        if let Some(dir) = csv_dir {
            let path = dir.join(format!("{name}-{i}.csv"));
            std::fs::write(&path, table.to_csv()).expect("write CSV");
        }
    }
    eprintln!("# {name} done in {:.1}s\n", t0.elapsed().as_secs_f64());
}
