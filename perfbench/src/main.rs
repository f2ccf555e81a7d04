//! The repository benchmark: one command per workload, end-to-end
//! metrics with tracing off, per-layer metrics from a separate traced
//! run, and a correctness gate in both.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval-cv|stream-inproc|wire-loopback> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stderr; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` in this directory for the workloads and every metric.

mod affinity;
mod data;
mod eval_cv;
mod layers;
mod stats;
mod stream;
mod wire;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EvalCv,
    StreamInproc,
    WireLoopback,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::EvalCv,
        Workload::StreamInproc,
        Workload::WireLoopback,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::EvalCv => "eval-cv",
            Workload::StreamInproc => "stream-inproc",
            Workload::WireLoopback => "wire-loopback",
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Fewest set-ups per run; `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 3;

/// Set-ups continue past [`SETUP_REPS`] until they have taken this
/// long, so that a set-up of a few milliseconds is timed often enough
/// for its median to hold still.
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);

/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 51;

/// Runs `setup` at least [`SETUP_REPS`] times and until the runs total
/// [`SETUP_MIN_TOTAL`] (at most [`SETUP_MAX_REPS`]), handing each
/// result but the last to `discard`, and returns the last result with
/// the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut secs: Vec<f64> = Vec::new();
    let mut kept = None;
    while secs.len() < SETUP_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_TOTAL.as_secs_f64() && secs.len() < SETUP_MAX_REPS)
    {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let started = Instant::now();
        kept = Some(setup());
        secs.push(started.elapsed().as_secs_f64());
    }
    eprintln!("set-up: {} repeats", secs.len());
    let median = stats::median(&secs).expect("at least one set-up");
    (kept.expect("at least one set-up"), median)
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("folds_per_s", "1/s"),
    ("harmonic_mean", "ratio"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Algorithms of the paper, named as `AlgoSpec::name` spells them.
pub const PAPER_ALGOS: [&str; 8] = [
    "ECEC", "ECO-K", "ECTS", "EDSC", "TEASER", "S-MINI", "S-MLSTM", "S-WEASEL",
];

/// The five models `stream-inproc` serves.
pub const STREAM_MODELS: [&str; 5] = ["ECO-K", "ECTS", "ECEC", "S-MINI", "MINIROCKET-CAL"];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
/// A traced run prints all of them; a layer its workload does not run
/// reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        vec![("eval.fit_s".into(), "s"), ("eval.predict_s".into(), "s")];
    for algo in PAPER_ALGOS {
        v.push((format!("eval.train_s.{algo}"), "s"));
    }
    for algo in PAPER_ALGOS {
        v.push((format!("eval.test_us.{algo}"), "us"));
    }
    for (name, unit) in [
        ("transforms.minirocket.transform_us", "us"),
        ("transforms.weasel.transform_us", "us"),
        ("tsdata.from_rows_us", "us"),
        ("serve.session.push_s", "s"),
        ("serve.session.eval_s", "s"),
        ("serve.session.buffer_s", "s"),
        ("serve.session.pushes", "count"),
        ("serve.session.evals", "count"),
        ("serve.session.evals_per_decision", "ratio"),
    ] {
        v.push((name.into(), unit));
    }
    for model in STREAM_MODELS {
        v.push((format!("serve.session.eval_p99_us.{model}"), "us"));
    }
    for model in STREAM_MODELS {
        v.push((format!("serve.session.decisions_per_s.{model}"), "1/s"));
    }
    for (name, unit) in [
        ("serve.store.decode_s", "s"),
        ("serve.fit_s", "s"),
        ("net.proto.encode_ns_per_row", "ns"),
        ("net.proto.decode_ns_per_row", "ns"),
        ("net.client.send_s", "s"),
        ("net.client.poll_s", "s"),
        ("net.server.sojourn_p50_ms", "ms"),
        ("net.server.sojourn_p99_ms", "ms"),
        ("net.server.observe_s", "s"),
        ("net.server.write_s", "s"),
        ("net.server.open_p99_ms", "ms"),
        ("net.router.rows_routed", "count"),
        ("net.router.balance_skew", "ratio"),
        ("net.router.hop_p50_ms", "ms"),
        ("loadgen.lag_p99_ms", "ms"),
        ("loadgen.streams_open", "count"),
        ("obs.trace_overhead_pct", "%"),
        ("obs.rss_growth_mb", "MB"),
    ] {
        v.push((name.into(), unit));
    }
    for w in Workload::ALL {
        v.push((format!("{}.coverage", w.name()), "ratio"));
    }
    v
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
    /// Operations attempted (cells, sessions).
    pub attempted: u64,
    /// Of those, operations that failed, were dropped or shed.
    pub failed: u64,
    /// Metric values by name; end-to-end ones always, per-layer ones
    /// on a traced run.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Sets `success_ratio` and `peak_rss_mb` from the counts and the
    /// process, the two end-to-end metrics every workload shares.
    fn finish_common(&mut self) {
        let ok = self.attempted.saturating_sub(self.failed);
        self.set("success_ratio", ok as f64 / self.attempted.max(1) as f64);
        self.set("peak_rss_mb", stats::peak_rss_mb());
    }
}

/// Formats a metric value for JSON with every digit `f64` carries.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn render(outcome: &Outcome, names: &[(String, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: --workload <eval-cv|stream-inproc|wire-loopback> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads available {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let mut outcome = match args.workload {
        Workload::EvalCv => eval_cv::run(args.seed, budget, args.trace),
        Workload::StreamInproc => stream::run(args.seed, budget, args.trace),
        Workload::WireLoopback => wire::run(args.seed, budget, args.trace),
    };
    outcome.finish_common();
    let names: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in &names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:<44} {value:>14.6} {unit}");
    }
    for v in &outcome.violations {
        eprintln!("INCORRECT: {v}");
    }
    println!("{}", render(&outcome, &names));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree, name
    /// for name and in order.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
        let layer_at = text.find("\"per_layer\"").expect("per_layer section");
        let names_in = |section: &str| -> Vec<String> {
            section
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let (e2e, layers) = if e2e_at < layer_at {
            (&text[e2e_at..layer_at], &text[layer_at..])
        } else {
            (&text[e2e_at..], &text[layer_at..e2e_at])
        };
        let want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(e2e), want);
        let want: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(layers), want);
        let workloads = &text[text.find("\"workloads\"").expect("workloads")..];
        let workloads = &workloads[..workloads.find(']').expect("end of workloads")];
        let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names_in(workloads), want);
    }

    #[test]
    fn render_prints_every_listed_metric_and_nulls_non_finite() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("a", 1.5);
        o.set("b", f64::NAN);
        let names = vec![
            ("a".to_string(), "s"),
            ("b".into(), "ms"),
            ("c".into(), "1/s"),
        ];
        assert_eq!(
            render(&o, &names),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": null, \"unit\": \"ms\"}, \
             \"c\": {\"value\": 0.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn args_require_every_flag() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload eval-cv --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::EvalCv, 7, 20.0, true)
        );
        assert!(parse_args(&argv("--workload eval-cv --seed 7 --seconds 20")).is_err());
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 20 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload eval-cv --seed 7 --seconds 0 --trace 0")).is_err());
    }
}
