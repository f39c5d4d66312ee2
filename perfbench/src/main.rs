//! `perfbench` — the end-to-end and per-layer benchmark of pkgrec.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One workload per process, so `peak_rss_mb` is that workload's alone.
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the workload runs again with tracing, the timeline
//! profiler and the benchmark's own spans on, and the line carries the
//! per-layer metrics, which are also written with the spans to
//! `perfbench/out/<workload>.trace.json`. See `perfbench/README.md`.

mod common;
mod exact;
mod serve;
mod sketch;

use common::{Args, Outcome};

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_hot|serve_cold|exact_scenarios|sketch_catalog> \
--seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if args.trace {
        common::enable_spans();
    }
    let outcome: Outcome = match args.workload.as_str() {
        "serve_hot" => serve::run(&args, serve::Mode::Hot),
        "serve_cold" => serve::run(&args, serve::Mode::Cold),
        "exact_scenarios" => exact::run(&args),
        "sketch_catalog" => sketch::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("{}.trace.json", args.workload));
        let body = format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"metrics\":{},\"trace\":{}}}\n",
            common::json_string(&args.workload),
            args.seed,
            args.seconds,
            outcome.report.metrics_json(),
            outcome.trace_json.as_deref().unwrap_or("null"),
        );
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        } else {
            eprintln!("perfbench: wrote {}", path.display());
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.report.metrics_json()
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
