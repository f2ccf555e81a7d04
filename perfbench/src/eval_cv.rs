//! `eval-cv`: the paper's own job. Stratified 3-fold CV
//! (`RunConfig::fast`) of all eight paper algorithms on PowerCons,
//! DodgerLoopGame and BasicMotions, 24 instances of at most 48 points
//! each, one cell at a time through a supervised single-thread
//! `MatrixRunner`. Model
//! fitting and the offline `predict_early` path do the work; no
//! session, wire or router code runs.

use std::collections::BTreeMap;
use std::os::raw::c_int;
use std::time::{Duration, Instant};

use etsc_bench::ScalePreset;
use etsc_data::Dataset;
use etsc_datasets::{GenOptions, PaperDataset};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_eval::metrics::Metrics;
use etsc_eval::{CellOutcome, CellStatus, MatrixRunner, Obs};

use crate::data;
use crate::layers::Spans;
use crate::stats::{fastest, geomean, median};
use crate::{repeated_setup, Outcome, PAPER_ALGOS};

/// Generator seed of the datasets.
const CORPUS_SEED: u64 = 0x5EED;

/// Instances per dataset and points per series, below the quick
/// preset's 80-120 and 64, so that one pass over the 24 cells takes a
/// few seconds and a run times every cell several times.
const HEIGHT: f64 = 24.0;
const LENGTH: f64 = 48.0;

const DATASETS: [PaperDataset; 3] = [
    PaperDataset::PowerCons,
    PaperDataset::DodgerLoopGame,
    PaperDataset::BasicMotions,
];

extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// glibc's `M_ARENA_MAX` parameter of `mallopt`.
const M_ARENA_MAX: c_int = -8;

/// Makes every thread allocate from one malloc arena. The runner runs
/// each cell on a fresh worker thread, and glibc gives such a thread a
/// new arena or a free old one depending on timing, so the peak RSS of
/// the same cells moved by up to 6 MB from run to run. The cells run
/// one at a time, so one arena costs them no contention.
fn single_malloc_arena() -> bool {
    // SAFETY: `mallopt` takes two integers and changes only allocator
    // settings; no other thread of this process allocates yet.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Every run of one (dataset, algorithm) cell.
struct Cell {
    algo: AlgoSpec,
    dataset: usize,
    wall: Vec<f64>,
    train_secs: Vec<f64>,
    test_secs: Vec<f64>,
    /// Metrics of the first run; later runs must reproduce them.
    metrics: Option<Metrics>,
}

/// Runs the workload for whole passes over the matrix, at least one and
/// as many as fit in `budget`, and reports its metrics.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    if !single_malloc_arena() {
        eprintln!("eval-cv: mallopt(M_ARENA_MAX, 1) failed; peak RSS may vary between runs");
    }
    let mut spans = Spans::new(trace);
    // The seed draws the CV folds and the algorithms' random state; the
    // datasets are one fixed corpus, so every seed does the same amount
    // of work on the same data.
    let config = RunConfig {
        seed,
        ..ScalePreset::Quick.run_config()
    };
    let (datasets, setup_s) = repeated_setup(
        || -> Vec<Dataset> {
            DATASETS
                .iter()
                .map(|&d| {
                    d.generate(GenOptions {
                        height_scale: (HEIGHT / d.spec().height as f64).min(1.0),
                        length_scale: (LENGTH / d.spec().length as f64).min(1.0),
                        ..ScalePreset::Quick.options(d, CORPUS_SEED)
                    })
                })
                .collect()
        },
        drop,
    );
    outcome.set("setup_s", setup_s);
    let obs = if trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    let runner = MatrixRunner::new(config.clone()).obs(obs.clone());

    let mut cells: Vec<Cell> = (0..datasets.len())
        .flat_map(|d| {
            AlgoSpec::ALL.into_iter().map(move |algo| Cell {
                algo,
                dataset: d,
                wall: Vec::new(),
                train_secs: Vec::new(),
                test_secs: Vec::new(),
                metrics: None,
            })
        })
        .collect();
    // Whole passes only, and another only when it fits in the budget, so
    // every run of a budget does the same cells (and reaches the same
    // memory high-water mark).
    let started = Instant::now();
    let mut passes = 0;
    loop {
        for cell in &mut cells {
            run_cell(
                &runner,
                &datasets[cell.dataset],
                cell,
                passes,
                &mut outcome,
                &mut spans,
            );
        }
        passes += 1;
        let elapsed = started.elapsed();
        if elapsed + elapsed / passes as u32 > budget {
            break;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    eprintln!(
        "eval-cv: {} cell runs ({passes} full passes) in {wall:.3} s",
        outcome.attempted
    );

    let done: Vec<&Cell> = cells.iter().filter(|c| c.metrics.is_some()).collect();
    for c in &done {
        eprintln!(
            "  {:<8} on {:<14} fastest {:.3} s, median {:.3} s over {} runs",
            c.algo.name(),
            datasets[c.dataset].name(),
            fastest(&c.wall).unwrap_or(0.0),
            median(&c.wall).unwrap_or(0.0),
            c.wall.len()
        );
    }
    let folds = (config.folds * done.len()) as f64;
    // Each cell's fastest run: see `stats::fastest`.
    let cell_secs: f64 = done.iter().map(|c| fastest(&c.wall).unwrap_or(0.0)).sum();
    outcome.set("folds_per_s", folds / cell_secs);
    let test_secs: Vec<f64> = done
        .iter()
        .map(|c| fastest(&c.test_secs).unwrap_or(0.0))
        .collect();
    // Per-cell test times are means over a cell's instances, so there
    // are only 24 samples, and one percentile of them jumps between
    // neighbouring cells from run to run. Geometric means stand in: over
    // all cells for the median, over the slowest quarter for the tail.
    let mut sorted = test_secs.clone();
    sorted.sort_by(f64::total_cmp);
    let typical = geomean(&sorted).unwrap_or(0.0);
    let slowest = geomean(&sorted[sorted.len() - sorted.len().div_ceil(4)..]).unwrap_or(0.0);
    outcome.set("decision_p50_ms", typical * 1e3);
    outcome.set("decision_p99_ms", slowest * 1e3);
    outcome.set("decisions_per_s", 1.0 / typical);
    let hms: Vec<f64> = done
        .iter()
        .filter_map(|c| c.metrics.map(|m| m.harmonic_mean))
        .collect();
    outcome.set(
        "harmonic_mean",
        hms.iter().sum::<f64>() / hms.len().max(1) as f64,
    );

    if trace {
        spans.write_out();
        let fit = obs.metrics.histogram("eval_fit_secs").snapshot().sum();
        let predict = obs.metrics.histogram("eval_predict_secs").snapshot().sum();
        outcome.set("eval.fit_s", fit);
        outcome.set("eval.predict_s", predict);
        outcome.set("eval-cv.coverage", (fit + predict) / wall);
        let mut per_algo: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for c in &done {
            let e = per_algo.entry(c.algo.name()).or_default();
            e.0.push(median(&c.train_secs).unwrap_or(0.0));
            e.1.push(median(&c.test_secs).unwrap_or(0.0));
        }
        for algo in PAPER_ALGOS {
            if let Some((train, test)) = per_algo.get(algo) {
                let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
                outcome.set(format!("eval.train_s.{algo}"), mean(train));
                outcome.set(format!("eval.test_us.{algo}"), mean(test) * 1e6);
            }
        }
        let (rocket, weasel) = data::transform_us(&data::dodger_split(seed), &config);
        outcome.set("transforms.minirocket.transform_us", rocket);
        outcome.set("transforms.weasel.transform_us", weasel);
    }
    outcome
}

/// Runs one cell once and folds the result into `cell` and `outcome`.
fn run_cell(
    runner: &MatrixRunner,
    data: &Dataset,
    cell: &mut Cell,
    pass: usize,
    outcome: &mut Outcome,
    spans: &mut Spans,
) {
    let name = format!("{} on {}", cell.algo.name(), data.name());
    outcome.attempted += 1;
    let started = Instant::now();
    let result = spans.time("eval.cell", || {
        runner.run(std::slice::from_ref(data), &[cell.algo])
    });
    let secs = started.elapsed().as_secs_f64();
    let cell_outcome: CellOutcome = match result {
        Ok(mut v) if v.len() == 1 => v.remove(0),
        Ok(v) => {
            outcome.failed += 1;
            outcome.violation(format!("{name}: {} outcomes for one cell", v.len()));
            return;
        }
        Err(e) => {
            outcome.failed += 1;
            outcome.violation(format!("{name}: runner failed: {e}"));
            return;
        }
    };
    let status = cell_outcome.status();
    let Some(result) = cell_outcome
        .run_result()
        .filter(|_| status == CellStatus::Ok)
    else {
        outcome.failed += 1;
        outcome.violation(format!("{name} ended {}", status.label()));
        return;
    };
    let metrics = result.metrics.expect("an OK cell has metrics");
    match cell.metrics {
        None if pass == 0 => cell.metrics = Some(metrics),
        Some(first) if first != metrics => outcome.violation(format!(
            "{name}: pass {pass} metrics {metrics:?} differ from pass 0 {first:?}"
        )),
        _ => {}
    }
    cell.wall.push(secs);
    cell.train_secs.push(result.train_secs);
    cell.test_secs.push(result.test_secs_per_instance);
}
