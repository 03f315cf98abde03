//! `repro` — regenerate every paper table of the `rn_experiments::experiments`
//! index.
//!
//! Usage:
//!
//! ```text
//! repro                 # run every experiment with the full configuration
//! repro --quick         # small sizes (seconds instead of minutes)
//! repro e2 e4           # run only the listed experiment ids
//! repro --list          # list experiment ids
//! ```

use rn_experiments::experiments::{run_all, run_by_id, EXPERIMENT_IDS};
use rn_experiments::ExperimentConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for (id, name) in EXPERIMENT_IDS {
            println!("{id:>4}  {name}");
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let config = if quick {
        ExperimentConfig {
            sizes: vec![8, 16, 32, 64],
            seeds: vec![1, 2],
            threads: rn_radio::batch::default_threads(),
        }
    } else {
        ExperimentConfig::full()
    };

    let requested: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let tables = if requested.is_empty() {
        run_all(&config)
    } else {
        let mut tables = Vec::new();
        for id in requested {
            match run_by_id(id, &config) {
                Some(mut t) => tables.append(&mut t),
                None => {
                    eprintln!("unknown experiment id: {id} (use --list)");
                    std::process::exit(2);
                }
            }
        }
        tables
    };

    for table in tables {
        println!("{table}");
        println!();
    }
}

fn print_help() {
    println!(
        "repro — regenerate the experiment tables\n\
         \n\
         USAGE:\n\
         \trepro [--quick] [ids...]\n\
         \trepro --list\n\
         \n\
         OPTIONS:\n\
         \t--quick  use small graph sizes (fast smoke run)\n\
         \t--list   list the available experiment ids"
    );
}
