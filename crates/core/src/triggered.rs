//! `TriggeredClassifier` — any probability-emitting full classifier
//! turned into an early classifier by a pluggable decision trigger.
//!
//! Where [`crate::algos::strut::Strut`] picks *one* truncation point at
//! training time, a triggered classifier keeps a snapshot ensemble: the
//! base model fitted at every checkpoint prefix length (the ECEC/TEASER
//! construction, necessary because transforms like MiniROCKET cannot
//! score prefixes they were not fitted for). At stream time each newly
//! reached checkpoint produces a class-probability vector that is fed
//! to an [`etsc_trigger::Trigger`], which decides — myopically or
//! non-myopically — whether to halt. The trigger itself is fitted on a
//! held-out split of the training data (confidence-gain curves,
//! Platt/isotonic calibration maps), then the snapshots are refitted on
//! the full training set.

use etsc_data::{cv::train_validation_split, Dataset, Label, MultiSeries};
use etsc_trigger::{
    CalibratedThreshold, Calibrator, Decision, ExpectedCost, FittedTrigger, FixedThreshold,
    Isotonic, Patience, Platt, Trigger, TriggerFitData, TriggerSpec,
};

use crate::error::EtscError;
use crate::full::{MiniRocketClassifier, MlstmClassifier, WeaselClassifier};
use crate::traits::{EarlyClassifier, FullClassifierTrait, StreamState};

/// Hyper-parameters for [`TriggeredClassifier`] (everything except the
/// trigger itself, which is a [`TriggerSpec`]).
#[derive(Debug, Clone)]
pub struct TriggeredConfig {
    /// Checkpoint fractions of the series length at which the base
    /// model is fitted and the trigger consulted (ascending; the full
    /// length is always included so a decision is guaranteed).
    pub fractions: Vec<f64>,
    /// Fraction of training data held out for trigger fitting.
    pub validation_fraction: f64,
    /// Smallest checkpoint prefix length.
    pub min_len: usize,
    /// Seed for the train/validation split.
    pub seed: u64,
}

impl Default for TriggeredConfig {
    fn default() -> Self {
        TriggeredConfig {
            // The paper's S-MLSTM evaluation grid, densified at the
            // early end where trigger decisions matter most.
            fractions: vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
            validation_fraction: 0.25,
            min_len: 3,
            seed: 47,
        }
    }
}

/// A full classifier wrapped with a decision trigger: fits one base
/// snapshot per checkpoint prefix length plus a fitted
/// [`FittedTrigger`], and streams by consulting the trigger at each
/// checkpoint.
pub struct TriggeredClassifier<F: FullClassifierTrait> {
    config: TriggeredConfig,
    spec: TriggerSpec,
    make: Box<dyn Fn() -> F + Send + Sync>,
    base_label: String,
    snapshots: Vec<(usize, F)>,
    trigger: Option<FittedTrigger>,
    len: usize,
    n_classes: usize,
}

/// Index of the winning class (0 for an empty vector).
fn argmax(probs: &[f64]) -> usize {
    let mut best = (0usize, f64::NEG_INFINITY);
    for (i, &p) in probs.iter().enumerate() {
        if p > best.1 {
            best = (i, p);
        }
    }
    best.0
}

impl<F: FullClassifierTrait> TriggeredClassifier<F> {
    /// Generic constructor from a base-classifier factory.
    pub fn new(
        base_label: impl Into<String>,
        config: TriggeredConfig,
        spec: TriggerSpec,
        make: impl Fn() -> F + Send + Sync + 'static,
    ) -> Self {
        TriggeredClassifier {
            config,
            spec,
            make: Box::new(make),
            base_label: base_label.into(),
            snapshots: Vec::new(),
            trigger: None,
            len: 0,
            n_classes: 0,
        }
    }

    /// The trigger spec this classifier was configured with.
    pub fn spec(&self) -> &TriggerSpec {
        &self.spec
    }

    /// The fitted trigger (None before fit).
    pub fn trigger(&self) -> Option<&FittedTrigger> {
        self.trigger.as_ref()
    }

    /// Replaces the fitted trigger — the model store's install path for
    /// its authoritative trigger section, and the serve-time override
    /// hook (`--trigger` on a loaded model).
    pub fn set_trigger(&mut self, trigger: FittedTrigger) {
        self.trigger = Some(trigger);
    }

    /// The fitted checkpoint prefix lengths (empty before fit).
    pub fn checkpoints(&self) -> Vec<usize> {
        self.snapshots.iter().map(|(t, _)| *t).collect()
    }

    /// Training series length (0 before fit).
    pub fn series_len(&self) -> usize {
        self.len
    }

    /// Resolves the configured fractions to concrete, deduplicated
    /// checkpoint prefix lengths, always ending at `len`.
    fn checkpoint_lengths(&self, len: usize) -> Vec<usize> {
        let min_len = self.config.min_len.max(2).min(len);
        let mut points = std::collections::BTreeSet::new();
        for &f in &self.config.fractions {
            points.insert(((len as f64 * f).round() as usize).clamp(min_len, len));
        }
        points.insert(len);
        points.into_iter().collect()
    }

    /// Serializes the fitted state (model store). The snapshot models
    /// are written through `enc_model`, since `F` is generic; callers
    /// pass the concrete classifier's `encode_state`.
    pub fn encode_state(
        &self,
        e: &mut etsc_data::Encoder,
        enc_model: impl Fn(&F, &mut etsc_data::Encoder),
    ) {
        e.f64s(&self.config.fractions);
        e.f64(self.config.validation_fraction);
        e.usize(self.config.min_len);
        e.u64(self.config.seed);
        e.str(&self.spec.canonical());
        e.str(&self.base_label);
        e.usize(self.snapshots.len());
        for (t, m) in &self.snapshots {
            e.usize(*t);
            enc_model(m, e);
        }
        match &self.trigger {
            None => e.bool(false),
            Some(t) => {
                e.bool(true);
                encode_trigger(e, t);
            }
        }
        e.usize(self.len);
        e.usize(self.n_classes);
    }

    /// Reconstructs a classifier written by
    /// [`TriggeredClassifier::encode_state`].
    ///
    /// # Errors
    /// [`etsc_data::CodecError`] on malformed input.
    pub fn decode_state(
        d: &mut etsc_data::Decoder,
        make: impl Fn() -> F + Send + Sync + 'static,
        dec_model: impl Fn(&mut etsc_data::Decoder) -> Result<F, etsc_data::CodecError>,
    ) -> Result<Self, etsc_data::CodecError> {
        let config = TriggeredConfig {
            fractions: d.f64s()?,
            validation_fraction: d.f64()?,
            min_len: d.usize()?,
            seed: d.u64()?,
        };
        let spec_str = d.str()?;
        let spec = TriggerSpec::parse(&spec_str).map_err(|e| etsc_data::CodecError::Corrupt {
            detail: format!("bad trigger spec {spec_str:?}: {e}"),
        })?;
        let base_label = d.str()?;
        let n = d.usize()?;
        let mut snapshots = Vec::with_capacity(n);
        for _ in 0..n {
            let t = d.usize()?;
            snapshots.push((t, dec_model(d)?));
        }
        let trigger = if d.bool()? {
            Some(decode_trigger(d)?)
        } else {
            None
        };
        Ok(TriggeredClassifier {
            config,
            spec,
            make: Box::new(make),
            base_label,
            snapshots,
            trigger,
            len: d.usize()?,
            n_classes: d.usize()?,
        })
    }
}

impl<F: FullClassifierTrait> EarlyClassifier for TriggeredClassifier<F> {
    fn name(&self) -> String {
        match &self.trigger {
            Some(t) => format!("{}+{}", self.base_label, t.name()),
            None => format!("{}+{}", self.base_label, self.spec.kind.name()),
        }
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
        let len = data.min_len();
        if len < self.config.min_len {
            return Err(EtscError::Config(format!(
                "series length {len} below min_len {}",
                self.config.min_len
            )));
        }
        if self.config.fractions.is_empty() {
            return Err(EtscError::Config("empty checkpoint grid".into()));
        }
        let data = data.truncated(len)?;
        let checkpoints = self.checkpoint_lengths(len);

        // Phase 1: fit per-checkpoint models on the training split and
        // collect held-out winning-score trajectories for the trigger.
        let (train_idx, val_idx) =
            train_validation_split(&data, self.config.validation_fraction, self.config.seed)?;
        let train = data.subset(&train_idx);
        let val = data.subset(&val_idx);
        let mut trajectories: Vec<Vec<f64>> = vec![Vec::new(); val.len()];
        let mut correct: Vec<Vec<bool>> = vec![Vec::new(); val.len()];
        for &t in &checkpoints {
            let mut m = (self.make)();
            m.fit(&train.truncated(t)?)?;
            for (i, (inst, label)) in val.truncated(t)?.iter().enumerate() {
                let probs = m.predict_proba(inst)?;
                let winner = argmax(&probs);
                trajectories[i].push(probs.get(winner).copied().unwrap_or(0.0));
                correct[i].push(winner == label);
            }
        }
        let fractions: Vec<f64> = checkpoints.iter().map(|&t| t as f64 / len as f64).collect();
        let trigger = self.spec.fit(&TriggerFitData {
            fractions: &fractions,
            trajectories: &trajectories,
            correct: &correct,
        });

        // Phase 2: refit the snapshot ensemble on the complete data.
        let mut snapshots = Vec::with_capacity(checkpoints.len());
        for &t in &checkpoints {
            let mut m = (self.make)();
            m.fit(&data.truncated(t)?)?;
            snapshots.push((t, m));
        }
        self.snapshots = snapshots;
        self.trigger = Some(trigger);
        self.len = len;
        self.n_classes = data.n_classes();
        Ok(())
    }

    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
        let trigger = self.trigger.clone().ok_or(EtscError::NotFitted)?;
        Ok(Box::new(TriggeredStream {
            model: self,
            trigger,
            next: 0,
            last_probs: None,
        }))
    }

    fn supports_multivariate(&self) -> bool {
        true
    }
}

/// Per-instance stream: consults the trigger at each newly reached
/// checkpoint; carries its own trigger clone so per-stream state
/// (patience streaks) never leaks across instances.
struct TriggeredStream<'a, F: FullClassifierTrait> {
    model: &'a TriggeredClassifier<F>,
    trigger: FittedTrigger,
    next: usize,
    last_probs: Option<Vec<f64>>,
}

impl<F: FullClassifierTrait> StreamState for TriggeredStream<'_, F> {
    fn observe(
        &mut self,
        prefix: &MultiSeries,
        is_final: bool,
    ) -> Result<Option<Label>, EtscError> {
        let m = self.model;
        while self.next < m.snapshots.len() && m.snapshots[self.next].0 <= prefix.len() {
            let (t, clf) = &m.snapshots[self.next];
            let window = prefix.prefix_cow(*t)?;
            let probs = clf.predict_proba(&window)?;
            let decision = self.trigger.observe(&probs, *t, m.len);
            self.next += 1;
            let halted = decision == Decision::Halt;
            self.last_probs = Some(probs);
            if halted {
                return Ok(Some(argmax(self.last_probs.as_ref().unwrap())));
            }
        }
        if is_final {
            if let Some(probs) = &self.last_probs {
                // Stream ended between checkpoints: commit to the most
                // recent evaluation.
                return Ok(Some(argmax(probs)));
            }
            // Instance shorter than the first checkpoint: score on a
            // last-value-padded window (degenerate but total).
            let (t, clf) = m.snapshots.first().ok_or(EtscError::NotFitted)?;
            let mut rows = Vec::with_capacity(prefix.vars());
            for v in 0..prefix.vars() {
                let mut row = prefix.var(v).to_vec();
                row.resize(*t, *row.last().unwrap_or(&0.0));
                rows.push(row);
            }
            let window = MultiSeries::from_rows(rows)?;
            return Ok(Some(clf.predict(&window)?));
        }
        Ok(None)
    }
}

/// The base full classifiers a trigger can wrap (the three
/// probability-emitting models in the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TriggeredBase {
    /// MiniROCKET + ridge head.
    MiniRocket,
    /// WEASEL(+MUSE) + logistic head.
    Weasel,
    /// MLSTM-FCN.
    Mlstm,
}

impl TriggeredBase {
    /// Every base, in registry order.
    pub const ALL: [TriggeredBase; 3] = [
        TriggeredBase::MiniRocket,
        TriggeredBase::Weasel,
        TriggeredBase::Mlstm,
    ];

    /// Registry spelling of the base classifier.
    pub fn name(self) -> &'static str {
        match self {
            TriggeredBase::MiniRocket => "MiniROCKET",
            TriggeredBase::Weasel => "WEASEL",
            TriggeredBase::Mlstm => "MLSTM",
        }
    }

    /// Parses a base name (case-insensitive; accepts `mini` and
    /// `minirocket` for MiniROCKET).
    pub fn parse(name: &str) -> Option<TriggeredBase> {
        match name.to_ascii_lowercase().as_str() {
            "minirocket" | "mini" | "rocket" => Some(TriggeredBase::MiniRocket),
            "weasel" => Some(TriggeredBase::Weasel),
            "mlstm" => Some(TriggeredBase::Mlstm),
            _ => None,
        }
    }
}

/// Builds a trigger-wrapped early classifier over the named base with
/// default base hyper-parameters.
pub fn build_triggered(
    base: TriggeredBase,
    config: TriggeredConfig,
    spec: TriggerSpec,
) -> Box<dyn EarlyClassifier + Send> {
    match base {
        TriggeredBase::MiniRocket => Box::new(TriggeredClassifier::new(
            base.name(),
            config,
            spec,
            MiniRocketClassifier::with_defaults,
        )),
        TriggeredBase::Weasel => Box::new(TriggeredClassifier::new(
            base.name(),
            config,
            spec,
            WeaselClassifier::with_defaults,
        )),
        TriggeredBase::Mlstm => Box::new(TriggeredClassifier::new(
            base.name(),
            config,
            spec,
            MlstmClassifier::with_defaults,
        )),
    }
}

/// Serializes a fitted trigger, calibration state included, with exact
/// f64 round-trip (the model store's trigger section payload).
pub fn encode_trigger(e: &mut etsc_data::Encoder, t: &FittedTrigger) {
    match t {
        FittedTrigger::Threshold(x) => {
            e.tag(0);
            e.f64(x.threshold);
        }
        FittedTrigger::Patience(x) => {
            e.tag(1);
            e.usize(x.patience);
            e.f64(x.threshold);
        }
        FittedTrigger::ExpectedCost(x) => {
            e.tag(2);
            e.f64(x.delay_cost);
            e.f64s(&x.fractions);
            e.f64s(&x.confidence_curve);
            encode_calibrator(e, &x.calibrator);
        }
        FittedTrigger::Calibrated(x) => {
            e.tag(3);
            e.f64(x.threshold);
            encode_calibrator(e, &x.calibrator);
        }
    }
}

/// Reconstructs a trigger written by [`encode_trigger`].
///
/// # Errors
/// [`etsc_data::CodecError`] on malformed input.
pub fn decode_trigger(d: &mut etsc_data::Decoder) -> Result<FittedTrigger, etsc_data::CodecError> {
    Ok(match d.tag()? {
        0 => FittedTrigger::Threshold(FixedThreshold {
            threshold: d.f64()?,
        }),
        1 => {
            let patience = d.usize()?;
            let threshold = d.f64()?;
            FittedTrigger::Patience(Patience::new(patience, threshold))
        }
        2 => FittedTrigger::ExpectedCost(ExpectedCost {
            delay_cost: d.f64()?,
            fractions: d.f64s()?,
            confidence_curve: d.f64s()?,
            calibrator: decode_calibrator(d)?,
        }),
        3 => FittedTrigger::Calibrated(CalibratedThreshold {
            threshold: d.f64()?,
            calibrator: decode_calibrator(d)?,
        }),
        other => {
            return Err(etsc_data::CodecError::Corrupt {
                detail: format!("unknown trigger tag {other}"),
            })
        }
    })
}

/// Serializes a calibration map with exact f64 round-trip.
pub fn encode_calibrator(e: &mut etsc_data::Encoder, c: &Calibrator) {
    match c {
        Calibrator::Identity => e.tag(0),
        Calibrator::Platt(p) => {
            e.tag(1);
            e.f64(p.a);
            e.f64(p.b);
        }
        Calibrator::Isotonic(i) => {
            e.tag(2);
            e.f64s(&i.thresholds);
            e.f64s(&i.values);
        }
    }
}

/// Reconstructs a calibration map written by [`encode_calibrator`].
///
/// # Errors
/// [`etsc_data::CodecError`] on malformed input.
pub fn decode_calibrator(d: &mut etsc_data::Decoder) -> Result<Calibrator, etsc_data::CodecError> {
    Ok(match d.tag()? {
        0 => Calibrator::Identity,
        1 => Calibrator::Platt(Platt {
            a: d.f64()?,
            b: d.f64()?,
        }),
        2 => Calibrator::Isotonic(Isotonic {
            thresholds: d.f64s()?,
            values: d.f64s()?,
        }),
        other => {
            return Err(etsc_data::CodecError::Corrupt {
                detail: format!("unknown calibrator tag {other}"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, Series};
    use etsc_trigger::TriggerKind;

    /// Classes separable from t = 8 of 24.
    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new("toy");
        for i in 0..14 {
            let phase = i as f64 * 0.37;
            let mut a = vec![0.0; 24];
            let mut c = vec![0.0; 24];
            for t in 0..24 {
                let base = ((t as f64 * 0.8) + phase).sin() * 0.2;
                a[t] = base + if t >= 8 { 2.0 } else { 0.0 };
                c[t] = base - if t >= 8 { 2.0 } else { 0.0 };
            }
            b.push_named(MultiSeries::univariate(Series::new(a)), "up");
            b.push_named(MultiSeries::univariate(Series::new(c)), "down");
        }
        b.build().unwrap()
    }

    fn fitted(spec: &str) -> TriggeredClassifier<WeaselClassifier> {
        let mut clf = TriggeredClassifier::new(
            "WEASEL",
            TriggeredConfig::default(),
            TriggerSpec::parse(spec).unwrap(),
            WeaselClassifier::with_defaults,
        );
        clf.fit(&toy()).unwrap();
        clf
    }

    #[test]
    fn triggered_weasel_halts_early_and_accurately() {
        let clf = fitted("threshold:0.7");
        let d = toy();
        let mut correct = 0;
        let mut total_prefix = 0;
        for (inst, label) in d.iter() {
            let p = clf.predict_early(inst).unwrap();
            total_prefix += p.prefix_len;
            if p.label == label {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / d.len() as f64 > 0.8,
            "{correct}/{}",
            d.len()
        );
        // The separable structure appears at t = 8; a 0.7 threshold
        // should not need the full series on average.
        assert!(
            (total_prefix as f64 / d.len() as f64) < 24.0,
            "mean prefix {}",
            total_prefix as f64 / d.len() as f64
        );
    }

    #[test]
    fn every_family_fits_and_streams() {
        for kind in TriggerKind::ALL {
            let spec = TriggerSpec::of(kind);
            let clf = fitted(&spec.canonical());
            let d = toy();
            let p = clf.predict_early(d.instance(0)).unwrap();
            assert!(p.prefix_len <= 24, "{}", clf.name());
        }
    }

    #[test]
    fn checkpoints_end_at_series_length() {
        let clf = fitted("threshold:0.99");
        let cps = clf.checkpoints();
        assert_eq!(*cps.last().unwrap(), 24);
        assert!(cps.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(clf.series_len(), 24);
    }

    #[test]
    fn short_instance_still_decides() {
        let clf = fitted("threshold:0.95");
        let short = MultiSeries::univariate(Series::new(vec![1.8; 2]));
        let p = clf.predict_early(&short).unwrap();
        assert_eq!(p.prefix_len, 2);
    }

    #[test]
    fn state_roundtrips_through_codec() {
        let clf = fitted("calibrated:cal=isotonic,threshold=0.75");
        let mut e = etsc_data::Encoder::new();
        clf.encode_state(&mut e, WeaselClassifier::encode_state);
        let bytes = e.into_bytes();
        let mut d = etsc_data::Decoder::new(&bytes);
        let back = TriggeredClassifier::decode_state(
            &mut d,
            WeaselClassifier::with_defaults,
            WeaselClassifier::decode_state,
        )
        .unwrap();
        assert_eq!(back.spec(), clf.spec());
        assert_eq!(back.trigger(), clf.trigger());
        assert_eq!(back.checkpoints(), clf.checkpoints());
        // Identical decisions after the round-trip.
        let data = toy();
        for (inst, _) in data.iter().take(6) {
            let a = clf.predict_early(inst).unwrap();
            let b = back.predict_early(inst).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn trigger_codec_is_exact_for_every_variant() {
        let triggers = vec![
            FittedTrigger::Threshold(FixedThreshold {
                threshold: 0.1 + 0.7,
            }),
            FittedTrigger::Patience(Patience::new(3, 0.62)),
            FittedTrigger::ExpectedCost(ExpectedCost {
                delay_cost: 0.017,
                fractions: vec![0.2, 0.4, 1.0],
                confidence_curve: vec![0.55, 0.7, 0.95],
                calibrator: Calibrator::Platt(Platt { a: 3.7, b: -1.2 }),
            }),
            FittedTrigger::Calibrated(CalibratedThreshold {
                threshold: 0.8,
                calibrator: Calibrator::Isotonic(Isotonic {
                    thresholds: vec![0.1, 0.5, 0.9],
                    values: vec![0.2, 0.6, 0.97],
                }),
            }),
        ];
        for t in triggers {
            let mut e = etsc_data::Encoder::new();
            encode_trigger(&mut e, &t);
            let bytes = e.into_bytes();
            let mut d = etsc_data::Decoder::new(&bytes);
            let back = decode_trigger(&mut d).unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    fn unfitted_and_bad_config_error() {
        let clf: TriggeredClassifier<WeaselClassifier> = TriggeredClassifier::new(
            "WEASEL",
            TriggeredConfig::default(),
            TriggerSpec::baseline(),
            WeaselClassifier::with_defaults,
        );
        assert!(matches!(
            clf.start_stream().err(),
            Some(EtscError::NotFitted)
        ));
        let mut empty = TriggeredClassifier::new(
            "WEASEL",
            TriggeredConfig {
                fractions: vec![],
                ..TriggeredConfig::default()
            },
            TriggerSpec::baseline(),
            WeaselClassifier::with_defaults,
        );
        assert!(matches!(empty.fit(&toy()), Err(EtscError::Config(_))));
    }

    #[test]
    fn bases_parse_and_build() {
        for base in TriggeredBase::ALL {
            assert_eq!(TriggeredBase::parse(base.name()), Some(base));
        }
        assert_eq!(
            TriggeredBase::parse("mini"),
            Some(TriggeredBase::MiniRocket)
        );
        assert!(TriggeredBase::parse("nope").is_none());
        let clf = build_triggered(
            TriggeredBase::Weasel,
            TriggeredConfig::default(),
            TriggerSpec::baseline(),
        );
        assert!(clf.name().starts_with("WEASEL+"));
    }
}
