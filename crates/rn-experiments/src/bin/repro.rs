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
//!
//! Exit status: `0` on success, `2` on usage errors (an unknown option or
//! experiment id), which are reported before anything runs.

use rn_experiments::experiments::{run_all, run_by_id, EXPERIMENT_IDS};
use rn_experiments::ExperimentConfig;

/// What one invocation asks for.
enum Command {
    Help,
    List,
    /// Run the listed ids (every experiment when empty) on the grid.
    Run(ExperimentConfig, Vec<String>),
}

/// Parses the arguments after the program name. `--help` returns at once;
/// `--list` wins over any run arguments. Every experiment id is checked
/// here, so a typo fails before the first table runs.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let (mut quick, mut list, mut ids) = (false, false, Vec::new());
    for arg in argv {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--list" => list = true,
            "--quick" => quick = true,
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            id if EXPERIMENT_IDS.iter().any(|&(known, _)| known == id) => ids.push(arg),
            id => return Err(format!("unknown experiment id {id:?}")),
        }
    }
    if list {
        return Ok(Command::List);
    }
    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    };
    Ok(Command::Run(config, ids))
}

fn main() {
    let (config, ids) = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Help) => {
            print_help();
            return;
        }
        Ok(Command::List) => {
            for (id, name) in EXPERIMENT_IDS {
                println!("{id:>4}  {name}");
            }
            return;
        }
        Ok(Command::Run(config, ids)) => (config, ids),
        Err(e) => {
            eprintln!("error: {e} (try --list or --help)");
            std::process::exit(2);
        }
    };

    let tables = if ids.is_empty() {
        run_all(&config)
    } else {
        ids.iter()
            .flat_map(|id| run_by_id(id, &config).expect("ids are checked when parsed"))
            .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<Command, String> {
        parse_args(argv.split_whitespace().map(String::from))
    }

    #[test]
    fn unknown_options_and_ids_are_rejected() {
        for argv in ["--quik", "--quick --no-such-option", "e7 -q", "e2 nonsense"] {
            assert!(parse(argv).is_err(), "{argv}");
        }
    }

    #[test]
    fn arguments_select_the_grid_and_the_ids() {
        let Ok(Command::Run(config, ids)) = parse("e2 --quick a1") else {
            panic!("a valid run");
        };
        assert_eq!(config.sizes, ExperimentConfig::quick().sizes);
        assert_eq!(ids, ["e2", "a1"]);
        let Ok(Command::Run(config, ids)) = parse("") else {
            panic!("a valid run");
        };
        assert_eq!(
            (config.sizes, ids.len()),
            (ExperimentConfig::full().sizes, 0)
        );
        assert!(matches!(parse("--quick --help"), Ok(Command::Help)));
        assert!(matches!(parse("e2 --list"), Ok(Command::List)));
    }
}
