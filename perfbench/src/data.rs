//! Inputs shared by the serving workloads: the seeded DodgerLoopGame
//! split at full length, model fitting through the store, and the
//! single-call probes of the transform and data layers.

use std::hint::black_box;
use std::time::Instant;

use etsc_bench::ScalePreset;
use etsc_core::TriggeredBase;
use etsc_data::{Dataset, MultiSeries};
use etsc_datasets::{GenOptions, PaperDataset};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_serve::{fit_model, fit_triggered_model, StoredModel};
use etsc_transforms::{MiniRocket, Weasel};
use etsc_trigger::TriggerSpec;

use crate::layers::Spans;
use crate::stats::median;

/// Generator seed of the training corpus. Every run serves models
/// fitted on the same corpus; `--seed` draws the streamed instances.
const TRAIN_SEED: u64 = 0x5EED;

/// Training instances (DodgerLoopGame has 158 at full height).
const TRAIN_HEIGHT: f64 = 60.0;

/// The trigger the calibrated MiniROCKET model is fitted with.
const CALIBRATED_SPEC: &str = "calibrated:cal=platt,threshold=0.7";

/// The serving workloads' inputs.
pub struct Split {
    /// Instances the models are fitted on.
    pub train: Dataset,
    /// Fresh instances from the same generator, replayed as streams.
    pub test: Dataset,
}

/// DodgerLoopGame at its full length (L = 288): a fixed training
/// corpus, and streamed instances drawn with `seed` at the quick
/// preset's height. Instances are independent draws, so the streams
/// are held out from training whatever the seed.
pub fn dodger_split(seed: u64) -> Split {
    let ds = PaperDataset::DodgerLoopGame;
    let full_length = |options: GenOptions| GenOptions {
        length_scale: 1.0,
        ..options
    };
    let train = ds.generate(full_length(GenOptions {
        height_scale: TRAIN_HEIGHT / ds.spec().height as f64,
        ..ScalePreset::Quick.options(ds, TRAIN_SEED)
    }));
    let test = ds.generate(full_length(
        ScalePreset::Quick.options(ds, seed ^ 0x9E37_79B9_7F4A_7C15),
    ));
    Split { train, test }
}

/// Fits one of [`crate::STREAM_MODELS`] on `train`.
pub fn fit_named(name: &str, train: &Dataset, config: &RunConfig) -> StoredModel {
    let fitted = match name {
        "MINIROCKET-CAL" => {
            let spec = TriggerSpec::parse(CALIBRATED_SPEC).expect("trigger spec parses");
            fit_triggered_model(TriggeredBase::MiniRocket, &spec, train, config)
        }
        _ => {
            let algo = AlgoSpec::ALL
                .into_iter()
                .find(|a| a.name() == name)
                .expect("a paper algorithm");
            fit_model(algo, train, config)
        }
    };
    fitted.unwrap_or_else(|e| panic!("fitting {name}: {e}"))
}

/// Fits `name`, encodes it with the model store and decodes it back,
/// as a serving process loads its model. Fit and decode time go to
/// the `serve.fit` and `serve.store.decode` spans. Returns the encoded
/// bytes and the decoded model.
pub fn fit_and_reload(
    name: &str,
    train: &Dataset,
    config: &RunConfig,
    spans: &mut Spans,
) -> (Vec<u8>, StoredModel) {
    let started = Instant::now();
    let stored = fit_named(name, train, config);
    spans.record("serve.fit", started.elapsed().as_secs_f64());
    let bytes = stored.to_bytes().expect("fitted models persist");
    let started = Instant::now();
    let loaded = StoredModel::from_bytes(&bytes).expect("own bytes decode");
    spans.record("serve.store.decode", started.elapsed().as_secs_f64());
    (bytes, loaded)
}

/// One observation row of `inst` at time `t`.
pub fn row(inst: &MultiSeries, t: usize) -> Vec<f64> {
    (0..inst.vars()).map(|v| inst.at(v, t)).collect()
}

/// Median microseconds of one public `transform` call of MiniROCKET and
/// of WEASEL, fitted on `split.train` with `config`'s settings and
/// applied to every held-out instance.
pub fn transform_us(split: &Split, config: &RunConfig) -> (f64, f64) {
    let mut rocket = MiniRocket::new(config.minirocket_config());
    rocket
        .fit(split.train.instances())
        .expect("MiniROCKET fits");
    let series: Vec<&[f64]> = split.train.instances().iter().map(|s| s.var(0)).collect();
    let mut weasel = Weasel::new(config.weasel_config());
    weasel
        .fit(&series, split.train.labels(), split.train.n_classes())
        .expect("WEASEL fits");
    let mut rocket_us = Vec::new();
    let mut weasel_us = Vec::new();
    for inst in split.test.instances() {
        let started = Instant::now();
        black_box(
            rocket
                .transform(black_box(inst))
                .expect("MiniROCKET transforms"),
        );
        rocket_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        black_box(
            weasel
                .transform(black_box(inst.var(0)))
                .expect("WEASEL transforms"),
        );
        weasel_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    (
        median(&rocket_us).unwrap_or(0.0),
        median(&weasel_us).unwrap_or(0.0),
    )
}

/// Median microseconds of `MultiSeries::from_rows` on a copy of a
/// full-length buffer: the prefix copy a session makes per evaluation.
pub fn from_rows_us(split: &Split) -> f64 {
    let inst = split.test.instance(0);
    let buffer: Vec<Vec<f64>> = (0..inst.vars()).map(|v| inst.var(v).to_vec()).collect();
    let mut us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let started = Instant::now();
        black_box(MultiSeries::from_rows(black_box(buffer.clone())).expect("rectangular rows"));
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(&us).unwrap_or(0.0)
}
