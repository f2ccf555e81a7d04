//! `stream-inproc`: one thread drives `StreamSession::push` time-major
//! over a window of open sessions, one per held-out DodgerLoopGame
//! instance, against five models reloaded through the model store. No
//! sockets: transform, classifier, trigger and session buffering do
//! all the work.

use std::time::{Duration, Instant};

use etsc_core::{EarlyClassifier, EarlyPrediction};
use etsc_eval::experiment::RunConfig;
use etsc_eval::metrics::harmonic_mean;
use etsc_obs::Histogram;
use etsc_serve::{StoredModel, StreamSession};

use crate::data::{self, Split};
use crate::layers::Spans;
use crate::stats::{best_rate, fastest, geomean, percentile, tail};
use crate::{repeated_setup, Outcome, STREAM_MODELS};

/// A model under replay and what its passes measured.
struct Served {
    name: &'static str,
    model: StoredModel,
    batch: usize,
    /// The (label, prefix) each held-out instance must get: from
    /// `predict_early` for batch-1 models, else from the first pass.
    expected: Vec<Option<EarlyPrediction>>,
    /// Decisions per second of each pass.
    rates: Vec<f64>,
    /// Wall seconds of each pass.
    walls: Vec<f64>,
    /// Durations (seconds) of the deciding pushes, one list per pass.
    latencies: Vec<Vec<f64>>,
    /// Evaluation latencies (seconds) pooled over all sessions, kept on
    /// traced runs only so untraced memory does not grow with run length.
    evals: Histogram,
}

/// Work counts and durations summed over every pass.
#[derive(Default)]
struct Totals {
    push_s: f64,
    eval_s: f64,
    pushes: u64,
    evals: u64,
    decisions: u64,
    sessions: u64,
    failed: u64,
}

/// Replays every held-out instance once through `served`, time-major,
/// and records the pass's rate, wall seconds and deciding-push
/// durations. A decision that differs from the expected one is a
/// violation.
fn pass(
    trace: bool,
    served: &mut Served,
    split: &Split,
    totals: &mut Totals,
    outcome: &mut Outcome,
) {
    let test = &split.test;
    let len = test.max_len();
    let classifier: &dyn EarlyClassifier = served.model.classifier();
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(test.len());
    let mut sessions: Vec<StreamSession> = (0..test.len())
        .map(|_| {
            StreamSession::new(classifier, test.vars(), len, served.batch)
                .expect("fitted models stream")
        })
        .collect();
    let mut open = sessions.len();
    let mut decided = 0u64;
    let mut failed = vec![false; sessions.len()];
    for t in 0..len {
        if open == 0 {
            break;
        }
        for (i, session) in sessions.iter_mut().enumerate() {
            if session.is_done() || failed[i] {
                continue;
            }
            let row = data::row(test.instance(i), t);
            let pushed = Instant::now();
            let result = session.push(&row);
            let secs = pushed.elapsed().as_secs_f64();
            totals.push_s += secs;
            totals.pushes += 1;
            match result {
                Ok(Some(prediction)) => {
                    latencies.push(secs);
                    decided += 1;
                    open -= 1;
                    match served.expected[i] {
                        Some(want) if want != prediction => outcome.violation(format!(
                            "{} instance {i}: served {:?}, expected {:?}",
                            served.name, prediction, want
                        )),
                        Some(_) => {}
                        None => served.expected[i] = Some(prediction),
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    outcome.violation(format!("{} instance {i} push: {e}", served.name));
                    failed[i] = true;
                    open -= 1;
                }
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    for session in &sessions {
        totals.evals += session.evals() as u64;
        totals.eval_s += session.latency().sum();
        if trace {
            served.evals.merge(session.latency());
        }
    }
    // A session that errored, or never decided, failed.
    totals.sessions += sessions.len() as u64;
    totals.failed += sessions.len() as u64 - decided;
    totals.decisions += decided;
    served.rates.push(decided as f64 / wall);
    served.walls.push(wall);
    served.latencies.push(latencies);
}

/// Paper harmonic mean of the decisions `served` committed on the
/// held-out instances.
fn served_hm(served: &Served, split: &Split) -> f64 {
    let n = split.test.len() as f64;
    let len = split.test.max_len() as f64;
    let (mut correct, mut earliness) = (0.0, 0.0);
    for (i, p) in served.expected.iter().enumerate() {
        if let Some(p) = p {
            correct += f64::from(u8::from(p.label == split.test.label(i)));
            earliness += p.prefix_len as f64 / len;
        } else {
            earliness += 1.0;
        }
    }
    harmonic_mean(correct / n, earliness / n)
}

/// Runs the workload for `budget` and reports its metrics.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let mut spans = Spans::new(trace);
    let config = RunConfig::fast();
    let ((split, models), setup_s) = repeated_setup(
        || {
            // Only the kept set-up's fit and decode spans are reported.
            spans = Spans::new(trace);
            let split = data::dodger_split(seed);
            let models: Vec<StoredModel> = STREAM_MODELS
                .iter()
                .map(|name| data::fit_and_reload(name, &split.train, &config, &mut spans).1)
                .collect();
            (split, models)
        },
        drop,
    );
    outcome.set("setup_s", setup_s);
    let len = split.test.max_len();
    let mut served: Vec<Served> = STREAM_MODELS
        .iter()
        .zip(models)
        .map(|(&name, model)| {
            let batch = model.meta.decision_batch(len, &config);
            let expected = if batch == 1 {
                split
                    .test
                    .instances()
                    .iter()
                    .map(|inst| {
                        Some(
                            model
                                .classifier()
                                .predict_early(inst)
                                .expect("held-out instances predict"),
                        )
                    })
                    .collect()
            } else {
                vec![None; split.test.len()]
            };
            Served {
                name,
                model,
                batch,
                expected,
                rates: Vec::new(),
                walls: Vec::new(),
                latencies: Vec::new(),
                evals: Histogram::new(),
            }
        })
        .collect();

    // Cycles of one pass per model, so every model contributes the same
    // number of passes (and latency samples) whatever its speed.
    let mut totals = Totals::default();
    let mut cycles = 0;
    let started = Instant::now();
    while started.elapsed() < budget || cycles == 0 {
        for s in &mut served {
            pass(trace, s, &split, &mut totals, &mut outcome);
        }
        cycles += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    eprintln!(
        "stream-inproc: {} cycles of {} models x {} sessions in {wall:.3} s",
        cycles,
        served.len(),
        split.test.len()
    );

    outcome.attempted = totals.sessions;
    outcome.failed = totals.failed;
    // Rates and medians are read from each model's least disturbed
    // pass (see `stats::fastest`) and combined over the models by
    // geometric mean. A median of the samples of all models pooled
    // falls between the models' clusters, where a small shift of one
    // moves it far.
    let per_model: Vec<f64> = served
        .iter()
        .map(|s| best_rate(&s.rates).unwrap_or(0.0))
        .collect();
    outcome.set("decisions_per_s", geomean(&per_model).unwrap_or(0.0));
    let fold_secs: f64 = served
        .iter()
        .map(|s| fastest(&s.walls).unwrap_or(f64::INFINITY))
        .sum();
    outcome.set("folds_per_s", served.len() as f64 / fold_secs);
    let p50s: Vec<f64> = served
        .iter()
        .map(|s| {
            let medians: Vec<f64> = s.latencies.iter().map(|l| percentile(l, 500)).collect();
            fastest(&medians).unwrap_or(0.0)
        })
        .collect();
    outcome.set("decision_p50_ms", geomean(&p50s).unwrap_or(0.0) * 1e3);
    // The tail is pooled over every model and pass: it is set by the
    // costliest decisions of the whole mix, S-MINI's STRUT
    // re-evaluations, a fixed amount of work that reads the same in
    // every run.
    let pooled: Vec<f64> = served.iter().flat_map(|s| s.latencies.concat()).collect();
    match tail(&pooled) {
        Some(t) => {
            eprintln!(
                "decision tail: p{} of {} samples ({} beyond)",
                t.percentile, t.samples, t.beyond
            );
            outcome.set("decision_p99_ms", t.value * 1e3);
        }
        None => outcome.violation("too few decisions for a tail percentile"),
    }
    let hms: Vec<f64> = served.iter().map(|s| served_hm(s, &split)).collect();
    outcome.set("harmonic_mean", hms.iter().sum::<f64>() / hms.len() as f64);

    if trace {
        spans.record("serve.session.push", totals.push_s);
        spans.write_out();
        outcome.set("serve.fit_s", spans.total("serve.fit").secs);
        outcome.set(
            "serve.store.decode_s",
            spans.total("serve.store.decode").secs,
        );
        outcome.set("serve.session.push_s", totals.push_s);
        outcome.set("serve.session.eval_s", totals.eval_s);
        outcome.set("serve.session.buffer_s", totals.push_s - totals.eval_s);
        outcome.set("serve.session.pushes", totals.pushes as f64);
        outcome.set("serve.session.evals", totals.evals as f64);
        outcome.set(
            "serve.session.evals_per_decision",
            totals.evals as f64 / totals.decisions.max(1) as f64,
        );
        for (s, rate) in served.iter_mut().zip(&per_model) {
            let p99 = s.evals.p99().unwrap_or(0.0);
            outcome.set(format!("serve.session.eval_p99_us.{}", s.name), p99 * 1e6);
            outcome.set(format!("serve.session.decisions_per_s.{}", s.name), *rate);
        }
        let coverage = totals.push_s / wall;
        outcome.set("stream-inproc.coverage", coverage);
        if coverage < 0.9 {
            outcome.violation(format!(
                "session eval + buffer cover {:.1}% of the timed wall, under 90%",
                coverage * 100.0
            ));
        }
        let (rocket, weasel) = data::transform_us(&split, &config);
        outcome.set("transforms.minirocket.transform_us", rocket);
        outcome.set("transforms.weasel.transform_us", weasel);
        outcome.set("tsdata.from_rows_us", data::from_rows_us(&split));
    }
    outcome
}
