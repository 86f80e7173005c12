//! Wall-clock + virtual-clock benchmark of the E-RNN reproduction.
//!
//! ```text
//! ernn-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ernn-benchmark --repeat-check [--seed <u64>] [--seconds <n>]
//! ernn-benchmark --describe
//! ```
//!
//! Every layer is measured from outside, by timing calls into the
//! workspace crates' public functions. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ledger and writes a Chrome trace;
//! the last line of standard output is one JSON object with the run's
//! result. `--repeat-check` runs every workload twice in fresh processes
//! and fails unless the two sets agree. `--describe` prints the
//! `BENCHMARK.json` this code implements. See `README.md`.

mod ledger;
mod roofline;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

use ledger::PER_LAYER;
use stats::{peak_rss_mb, Rounds};
use workloads::{Bench, WORKLOADS};

#[global_allocator]
static ALLOC: ernn_bench::alloc::CountingAllocator = ernn_bench::alloc::CountingAllocator;

/// Seed used when `--seed` is absent, and the seed the README's numbers
/// were taken with.
const DEFAULT_SEED: u64 = 2019;
/// A seed never used while the benchmark was written; claims made on
/// [`DEFAULT_SEED`] must also hold on this one.
const HELD_OUT_SEED: u64 = 7_151_812;
/// Measured seconds per run: the default of `--seconds` and the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u32 = 28;
/// Full set-ups timed per run, spread over the measured time; `setup_s`
/// is the fastest.
const SETUPS: usize = 9;
/// Where `--trace 1` writes the Chrome trace.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// An end-to-end metric: name, unit, direction, the share of the parent's
/// median by which it may worsen, and whether it is a pure function of
/// the seed (and so must repeat exactly between two runs of one build).
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        exact: true,
    }
}

const END_TO_END: [EndToEnd; 10] = [
    host("setup_s", "s", false, 0.25),
    host("host_frame_us_best", "us", false, 0.20),
    host("host_req_per_s", "1/s", true, 0.25),
    exact("virt_frame_us", "us", false, 0.15),
    exact("virt_p50_us", "us", false, 0.25),
    exact("virt_p95_us", "us", false, 0.25),
    exact("virt_slo_met_share", "share", true, 0.05),
    exact("argmax_agree_share", "share", true, 0.25),
    exact("ok_share", "share", true, 0.001),
    host("peak_rss_mb", "MB", false, 0.25),
];

/// One measured value.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// What a run reports on its last line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The value of metric `name` in a result line printed by [`RunResult::json`].
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn run_end_to_end(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    // The measured time is cut into equal segments, each opened by a full
    // set-up, so set-ups and rounds sample the same stretches of the run.
    let unknown = || format!("unknown workload {name:?}");
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut rounds_us = Vec::new();
    let mut allocs = 0;
    let mut bench = None;
    let mut gate = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let start = Instant::now();
        let fresh = bench.insert(Bench::setup(name, seed).ok_or_else(unknown)?);
        setups_s.push(start.elapsed().as_secs_f64());
        if gate.is_none() {
            // Correctness gate, before any number is printed.
            gate = Some((fresh.check()?, fresh.snapshot()));
        }
        let allocs_before = ernn_bench::alloc::allocation_count();
        let segment = Instant::now();
        loop {
            rounds_us.push(fresh.round().as_secs_f64() * 1e6);
            if segment.elapsed().as_secs_f64() >= seconds / SETUPS as f64 {
                break;
            }
        }
        allocs += ernn_bench::alloc::allocation_count() - allocs_before;
    }
    let bench = bench.expect("at least one set-up ran");
    let (tally, first) = gate.expect("the first set-up was checked");
    let size = bench.size();
    if bench.snapshot() != first {
        return Err(format!(
            "{name}: the last round's outputs differ from the first round's"
        ));
    }
    let rounds = Rounds::summarize(&rounds_us);
    let virt = bench.virt();
    let (agree, agree_frames) = bench.argmax_agreement();

    println!(
        "host clock: {} rounds of {} requests / {} frames; round µs min {:.1} p50 {:.1} p90 {:.1} cv {:.3}; {:.1} allocations per round",
        rounds.count,
        size.requests,
        size.frames,
        rounds.min_us,
        rounds.p50_us,
        rounds.p90_us,
        rounds.cv,
        allocs as f64 / rounds.count as f64
    );
    println!(
        "virtual clock: {} latency samples, {} beyond p95; arg-max agreement over {agree_frames} frames",
        virt.samples,
        virt.samples - (0.95 * virt.samples as f64).ceil() as usize,
    );

    let values = [
        setups_s.iter().copied().fold(f64::INFINITY, f64::min),
        rounds.min_us / size.frames as f64,
        size.requests as f64 / (rounds.min_us * 1e-6),
        virt.frame_us,
        virt.p50_us,
        virt.p95_us,
        virt.slo_met_share,
        agree,
        1.0 - tally.failed as f64 / tally.attempted as f64,
        peak_rss_mb()?,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect();
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn run_traced(name: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let traced = ledger::run(name, seed, seconds)?;
    print!("{}", traced.table);
    let path = format!("{OUT_DIR}/TRACE_{name}.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, &traced.chrome_json))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("Chrome trace written to {path} (load it at https://ui.perfetto.dev)");
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = traced
                .ledger
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            Ok(Metric {
                name: m.name,
                unit: m.unit,
                value,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunResult {
        correct: traced.tally.failed == 0,
        attempted: traced.tally.attempted,
        failed: traced.tally.failed,
        metrics,
    })
}

/// Runs every workload twice in fresh processes and checks that the two
/// sets of end-to-end metrics agree: exact ones exactly, the others
/// within their own bound.
fn repeat_check(seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_agree = true;
    for w in &WORKLOADS {
        let mut lines = Vec::new();
        for _ in 0..2 {
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--trace", "0"])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!(
                    "{} failed: {}",
                    w.name,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            lines.push(stdout.lines().last().unwrap_or_default().to_string());
        }
        println!(
            "{}\n{:<22} {:>18} {:>18} {:>9} {:>7}",
            w.name, "metric", "first", "second", "differ", "bound"
        );
        for m in &END_TO_END {
            let value = |line: &str| {
                metric_in(line, m.name)
                    .ok_or_else(|| format!("{}: no {} in {line:?}", w.name, m.name))
            };
            let (a, b) = (value(&lines[0])?, value(&lines[1])?);
            let differ = (a - b).abs() / a.abs().min(b.abs());
            let agree = if m.exact { a == b } else { differ <= m.bound };
            all_agree &= agree;
            let bound = if m.exact {
                "exact".to_string()
            } else {
                format!("{:.3}", m.bound)
            };
            println!(
                "{:<22} {a:>18.6} {b:>18.6} {differ:>9.4} {bound:>7}{}",
                m.name,
                if agree { "" } else { "  DISAGREE" }
            );
        }
    }
    Ok(all_agree)
}

/// The `BENCHMARK.json` this code implements.
fn describe() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let mut out = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--locked\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [").expect("String write");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    writeln!(out, "{}\n  ],\n  \"end_to_end\": [", rows.join(",\n")).expect("String write");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    writeln!(out, "{}\n  ],\n  \"per_layer\": [", rows.join(",\n")).expect("String write");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    writeln!(out, "{}\n  ]\n}}", rows.join(",\n")).expect("String write");
    out
}

enum Mode {
    Run { workload: String, trace: bool },
    RepeatCheck,
    Describe,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut trace, mut repeat, mut describe) = (None, false, false, false);
    let (mut seed, mut seconds) = (DEFAULT_SEED, f64::from(RUN_SECONDS));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--repeat-check" => repeat = true,
            "--describe" => describe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = match (describe, repeat, workload) {
        (true, ..) => Mode::Describe,
        (_, true, _) => Mode::RepeatCheck,
        (_, _, Some(workload)) => Mode::Run { workload, trace },
        _ => {
            return Err("one of --workload <name>, --repeat-check or --describe is required".into())
        }
    };
    Ok(Args {
        mode,
        seed,
        seconds,
    })
}

fn run(args: &Args) -> Result<bool, String> {
    match &args.mode {
        Mode::Describe => {
            print!("{}", describe());
            Ok(true)
        }
        Mode::RepeatCheck => {
            let agree = repeat_check(args.seed, args.seconds)?;
            println!(
                "{}",
                if agree {
                    "repeat-check passed"
                } else {
                    "repeat-check FAILED"
                }
            );
            Ok(agree)
        }
        Mode::Run { workload, trace } => {
            let info = WORKLOADS
                .iter()
                .find(|w| w.name == workload)
                .ok_or_else(|| {
                    format!(
                        "unknown workload {workload:?}; known: {}",
                        WORKLOADS.map(|w| w.name).join(", ")
                    )
                })?;
            println!(
                "workload {} (seed {}; default {DEFAULT_SEED}, held out {HELD_OUT_SEED})\nwhy: {}",
                info.name, args.seed, info.why
            );
            let result = if *trace {
                run_traced(workload, args.seed, args.seconds)?
            } else {
                run_end_to_end(workload, args.seed, args.seconds)?
            };
            for m in &result.metrics {
                println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", result.json());
            Ok(result.correct)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args).and_then(|a| run(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_what_the_code_implements() {
        assert_eq!(include_str!("../../BENCHMARK.json"), describe());
    }

    #[test]
    fn result_line_round_trips_through_the_metric_reader() {
        let result = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.125,
                },
                Metric {
                    name: "virt_p50_us",
                    unit: "us",
                    value: 17.47408,
                },
            ],
        };
        let line = result.json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.125));
        assert_eq!(metric_in(&line, "virt_p50_us"), Some(17.47408));
        assert_eq!(metric_in(&line, "p50_us"), None);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload sched_mixed --seed 7 --seconds 3 --trace 1").unwrap();
        assert!(
            matches!(a.mode, Mode::Run { ref workload, trace: true } if workload == "sched_mixed")
        );
        assert_eq!((a.seed, a.seconds), (7, 3.0));
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(matches!(
            parse("--repeat-check").unwrap().mode,
            Mode::RepeatCheck
        ));
    }
}
