//! The one harness behind the sweeps (`sched_sweep`, `stream_sweep`,
//! `chaos_sweep`, `cluster_sweep`; `kernel_sweep` and the paper bins for
//! its flags): flag parsing, the
//! paper-preset model fixture, the executor-bit-identity,
//! answered-exactly-once and live-counter oracles, and artifact export. A
//! sweep keeps only its workload and the claims it asserts beyond these; a
//! check every run should pass is added here, once.

use crate::json::{write_artifact, JsonObject};
use ernn_admm::Recipe;
use ernn_core::pipeline::Pipeline;
use ernn_model::{CellType, ModelSpec};
use ernn_serve::sched::{SchedReport, SchedStats};
use ernn_serve::{
    chrome_trace_json, health_json, prometheus_snapshot, timeline_json, ClusterReport,
    CompiledModel, HealthReport, Request, Response, RunTrace, ServeMetrics, ShardGauges, Timeline,
};
use rand::SeedableRng;

/// Feature dimension of the sweeps' synthetic acoustic models.
pub const DIM: usize = 52;

/// The flags every sweep and paper bin takes: `--quick` (smoke-sized
/// load), `--json PATH` (bench artifact), `--trace-out PATH` (journal
/// export) and `--accuracy` (`table3`: train the E-RNN rows).
#[derive(Debug, Default)]
pub struct SweepArgs {
    /// Shrink the load for smoke runs.
    pub quick: bool,
    /// Measure the trained rows as well (`table3`).
    pub accuracy: bool,
    json: Option<String>,
    trace_out: Option<String>,
}

impl SweepArgs {
    /// Parses the process arguments; on a usage error (see
    /// [`SweepArgs::parse`]) prints it and exits with status 2.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|err| {
            eprintln!("usage error: {err}");
            eprintln!("usage: [--quick] [--json PATH] [--trace-out PATH] [--accuracy]");
            std::process::exit(2)
        })
    }

    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// An argument that is not one of the four flags, or a `--json` /
    /// `--trace-out` with nothing after it or with another `--flag`
    /// there, is a usage error naming it.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let path = |flag: &str, value: Option<&String>| match value {
            Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
            _ => Err(format!("{flag} needs a PATH after it")),
        };
        let mut parsed = SweepArgs::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--accuracy" => parsed.accuracy = true,
                "--json" => parsed.json = path(arg, args.next())?,
                "--trace-out" => parsed.trace_out = path(arg, args.next())?,
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        Ok(parsed)
    }

    /// The Fig. 6 recipe a paper bin trains with: the recorded runs'
    /// [`Recipe::full`], cut to [`Recipe::quick`] under `--quick`.
    pub fn recipe(&self) -> Recipe {
        if self.quick {
            Recipe::quick()
        } else {
            Recipe::full()
        }
    }

    /// Writes the `BENCH_*.json` document to the `--json` path, if one
    /// was given. `doc` opens with [`JsonObject::bench_header`].
    pub fn write_bench(&self, doc: JsonObject) {
        if let Some(path) = &self.json {
            write_artifact(path, doc.render());
        }
    }

    /// Exports one run to the `--trace-out` path, if one was given: the
    /// journal as Chrome trace JSON at `PATH`, the Prometheus snapshot
    /// (with whichever optional sections are passed) at `PATH.prom`, and
    /// a passed timeline / health report additionally as the sibling
    /// `TIMELINE_*` / `HEALTH_*` JSON documents.
    pub fn export(
        &self,
        metrics: &ServeMetrics,
        trace: &RunTrace,
        sched: Option<&SchedStats>,
        timeline: Option<&Timeline>,
        health: Option<&HealthReport>,
        shards: Option<&[ShardGauges]>,
    ) {
        let Some(path) = &self.trace_out else { return };
        write_artifact(path, chrome_trace_json(trace));
        write_artifact(
            &format!("{path}.prom"),
            prometheus_snapshot(metrics, trace, sched, timeline, health, shards),
        );
        if let Some(t) = timeline {
            write_artifact(&sibling_artifact(path, "TIMELINE"), timeline_json(t));
        }
        if let Some(h) = health {
            write_artifact(&sibling_artifact(path, "HEALTH"), health_json(h));
        }
    }
}

/// Renames an artifact path's `PREFIX_` (e.g. `TRACE_sched.json` →
/// `TIMELINE_sched.json`) so the timeline/health exports land next to
/// the trace with the naming CI's upload globs expect.
fn sibling_artifact(path: &str, prefix: &str) -> String {
    let p = std::path::Path::new(path);
    let file = p.file_name().and_then(|f| f.to_str()).unwrap_or(path);
    let renamed = match file.split_once('_') {
        Some((_, rest)) => format!("{prefix}_{rest}"),
        None => format!("{prefix}_{file}"),
    };
    p.with_file_name(renamed).to_string_lossy().into_owned()
}

/// A randomly initialised model taken through the lifecycle pipeline
/// under the paper preset (block 8, 12-bit datapath, XCKU060).
pub fn paper_model(spec: ModelSpec, seed: u64) -> CompiledModel {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Pipeline::paper(spec)
        .expect("valid spec")
        .init(&mut rng)
        .project()
        .expect("paper block policy")
        .quantize()
        .expect("paper datapath")
        .compile()
        .expect("paper platform")
        .into_model()
}

/// The sweeps' tenant model: a one-layer GRU acoustic model over
/// [`DIM`] features and 40 classes.
pub fn acoustic_gru(seed: u64, hidden: usize) -> CompiledModel {
    paper_model(
        ModelSpec::new(CellType::Gru, DIM, 40).layer_dims(&[hidden]),
        seed,
    )
}

/// Asserts two runs of one load — on the served inference lane and on
/// the serial one ([`ExecutorKind::ThreadPool`](ernn_serve::ExecutorKind))
/// — agree on everything a [`SchedReport`] carries except wall-clock
/// `host_us`: responses, metrics, scheduler stats, the
/// journal and attribution, the journal's Chrome rendering byte for
/// byte, the timeline and the health report.
pub fn assert_executor_blind(label: &str, a: &SchedReport, b: &SchedReport) {
    assert_eq!(
        a.responses, b.responses,
        "{label}: executor changed responses"
    );
    assert_eq!(
        a.metrics, b.metrics,
        "{label}: executor changed virtual-time metrics"
    );
    assert_eq!(
        a.sched, b.sched,
        "{label}: executor changed scheduler stats"
    );
    assert_eq!(
        a.trace, b.trace,
        "{label}: executor changed the flight-recorder trace"
    );
    assert_eq!(
        chrome_trace_json(&a.trace),
        chrome_trace_json(&b.trace),
        "{label}: executor changed the Chrome trace rendering"
    );
    assert_eq!(
        a.timeline, b.timeline,
        "{label}: executor changed the metrics timeline"
    );
    assert_eq!(
        a.health, b.health,
        "{label}: executor changed the health report"
    );
}

/// [`assert_executor_blind`] for the cluster tier: merged responses,
/// metrics, router stats, the router journal (and its Chrome bytes), and
/// every shard's liveness, placement, gauges, answered count and own
/// report — whose response list the merge has emptied by contract.
pub fn assert_cluster_executor_blind(label: &str, a: &ClusterReport, b: &ClusterReport) {
    assert_eq!(
        (&a.responses, &a.metrics, &a.stats, &a.trace),
        (&b.responses, &b.metrics, &b.stats, &b.trace),
        "{label}: cluster run must be bit-identical across executors"
    );
    assert_eq!(
        chrome_trace_json(&a.trace),
        chrome_trace_json(&b.trace),
        "{label}: router journal must be bit-identical across executors"
    );
    assert_eq!(a.shards.len(), b.shards.len());
    assert_eq!(
        a.shards.iter().map(|s| s.answered).sum::<usize>() + a.stats.shed_no_capacity as usize,
        a.responses.len(),
        "{label}: shard answers plus router sheds must be every response"
    );
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(
            (sa.shard, sa.alive, &sa.placed, sa.gauges, sa.answered),
            (sb.shard, sb.alive, &sb.placed, sb.gauges, sb.answered),
            "{label}: executor changed a shard's state"
        );
        match (&sa.report, &sb.report) {
            (Some(ra), Some(rb)) => {
                assert!(
                    ra.responses.is_empty() && rb.responses.is_empty(),
                    "{label}: shard {} kept responses the merge should have moved",
                    sa.shard
                );
                assert_executor_blind(&format!("{label} shard {}", sa.shard), ra, rb)
            }
            (None, None) => {}
            _ => panic!("{label}: shard {} ran on one side only", sa.shard),
        }
    }
}

/// Asserts every submitted request was answered exactly once — served
/// or shed, no losses, no duplicates.
pub fn assert_answered_once(label: &str, requests: &[Request], responses: &[Response]) {
    let mut submitted: Vec<u64> = requests.iter().map(|r| r.id).collect();
    submitted.sort_unstable();
    let mut answered: Vec<u64> = responses.iter().map(|r| r.id).collect();
    answered.sort_unstable();
    assert_eq!(
        submitted, answered,
        "{label}: responses must partition the submitted ids exactly"
    );
}

/// Asserts (for a run with the timeline on) that the engine's live
/// counters agree with the responses it returned: the shed counter with the shed responses, and the final
/// timeline sample's deadline misses (served-late *and* shed, at
/// admission or at dispatch) with the responses that missed.
pub fn assert_counters_match_responses(label: &str, report: &SchedReport) {
    let missed = |r: &&Response| r.deadline_tracked && !r.deadline_met;
    let missed = report.responses.iter().filter(missed).count() as u64;
    let shed = report.metrics.shed;
    let last = report.timeline.samples.last().expect("the timeline is on");
    assert_eq!(
        (report.sched.shed, last.shed, last.deadline_misses),
        (shed, shed as u64, missed),
        "{label}: shed and deadline-miss counters must agree with the responses"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        SweepArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_finds_the_json_path() {
        let args = parse(&["--quick", "--json", "out.json"]).unwrap();
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert!(args.quick && !args.accuracy);
        assert_eq!(parse(&["--quick"]).unwrap().json, None);
    }

    #[test]
    fn parse_finds_the_trace_path() {
        let args = parse(&["--trace-out", "TRACE_sched.json", "--accuracy"]).unwrap();
        assert_eq!(args.trace_out.as_deref(), Some("TRACE_sched.json"));
        assert!(args.accuracy && !args.quick);
        assert_eq!(parse(&[]).unwrap().trace_out, None);
    }

    #[test]
    fn a_path_flag_without_a_path_is_a_usage_error() {
        // Followed by another flag: that flag is not swallowed as the path.
        let err = parse(&["--json", "--quick"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        // Trailing: nothing is silently left unwritten.
        let err = parse(&["--trace-out"]).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
    }

    #[test]
    fn an_unknown_argument_is_a_usage_error() {
        // A misspelt `--quick` must not silently run the full sweep.
        let err = parse(&["--quik"]).unwrap_err();
        assert!(err.contains("--quik"), "{err}");
        let err = parse(&["--quick", "out.json"]).unwrap_err();
        assert!(err.contains("out.json"), "{err}");
    }
}
