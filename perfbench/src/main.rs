//! `perfbench --workload <compile|tight|scale|service>
//! --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a few human-readable lines, then one JSON object as the last
//! line of standard output. Exits with 1 when an answer was wrong or an
//! invariant broke, and with 2 on bad arguments.

use perfbench::inputs::Plan;
use perfbench::{run, Workload};

fn usage(error: &str) -> ! {
    eprintln!("perfbench: {error}");
    eprintln!(
        "usage: perfbench --workload <compile|tight|scale|service> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .map_or_else(|| usage(&format!("{flag} needs a value")), String::as_str)
        })
    };
    let workload = value("--workload")
        .map(|w| Workload::parse(w).unwrap_or_else(|| usage(&format!("unknown workload '{w}'"))))
        .unwrap_or_else(|| usage("--workload is required"));
    let number = |flag: &str, default: u64| -> u64 {
        value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number")))
        })
    };
    let seed = number("--seed", 1);
    let seconds = number("--seconds", 10);
    let traced = match number("--trace", 0) {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };

    let plan = Plan::for_seconds(workload, seconds, traced);
    let report = run(&plan, seed, traced);
    println!(
        "workload {} seed {seed} (timed and warm-up streams are disjoint sub-seeds of it) traced {} cores {}",
        workload.name(),
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "requests {} failed {} digest {}",
        report.attempted, report.failed, report.digest
    );
    for error in &report.errors {
        println!("ERROR {error}");
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
