//! STRUT — Selective TRUncation of Time-series (Section 4), the paper's
//! proposed baseline that turns any full-TSC algorithm into an early
//! classifier.
//!
//! Training repeatedly truncates the training series to candidate prefix
//! lengths, fits the wrapped full-TSC model at each, scores it on a
//! held-out validation split (by accuracy, F1, or the harmonic mean of
//! accuracy and earliness), and keeps the best time point. Test
//! instances are classified exactly at that time point.
//!
//! Three search strategies are provided:
//! * [`TruncationSearch::Exhaustive`] — every candidate time point;
//! * [`TruncationSearch::FixedGrid`] — the `{0.05, 0.2, 0.4, 0.6, 0.8, 1}·L`
//!   grid the paper uses for S-MLSTM (bounded number of expensive fits);
//! * [`TruncationSearch::BinarySearch`] — the paper's faster iterative
//!   bisection for the minimum `t` whose score stays within a tolerance
//!   of the full-length score.

// Indexed loops keep the gradient/index math readable here.
#![allow(clippy::needless_range_loop)]
use etsc_data::{cv::train_validation_split, Dataset, Label, MultiSeries};

use crate::error::EtscError;
use crate::full::{
    MiniRocketClassifier, MiniRocketClassifierConfig, MlstmClassifier, MlstmClassifierConfig,
    WeaselClassifier, WeaselClassifierConfig,
};
use crate::traits::{EarlyClassifier, FullClassifierTrait, StreamState};

/// The validation metric STRUT optimises (user-selectable per Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrutMetric {
    /// Validation accuracy.
    Accuracy,
    /// Macro-averaged F1.
    MacroF1,
    /// Harmonic mean of accuracy and (1 − earliness); earliness = `t / L`.
    HarmonicMean,
}

/// Truncation-point search strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum TruncationSearch {
    /// Try every time point in `[min_len, L]` with the given step.
    Exhaustive {
        /// Step between candidate lengths (1 = every point).
        step: usize,
    },
    /// Fixed fractions of the series length (paper: S-MLSTM).
    FixedGrid(Vec<f64>),
    /// Bisection for the earliest `t` whose validation score is within
    /// `tolerance` of the full-length score.
    BinarySearch {
        /// Acceptable score drop vs the full-length model.
        tolerance: f64,
    },
}

/// Hyper-parameters for [`Strut`].
#[derive(Debug, Clone)]
pub struct StrutConfig {
    /// Metric to optimise.
    pub metric: StrutMetric,
    /// Search strategy.
    pub search: TruncationSearch,
    /// Fraction of training data held out for validation.
    pub validation_fraction: f64,
    /// Smallest candidate prefix length.
    pub min_len: usize,
    /// Seed for the train/validation split.
    pub seed: u64,
}

impl Default for StrutConfig {
    fn default() -> Self {
        StrutConfig {
            metric: StrutMetric::HarmonicMean,
            search: TruncationSearch::BinarySearch { tolerance: 0.03 },
            validation_fraction: 0.25,
            min_len: 3,
            seed: 47,
        }
    }
}

/// STRUT wrapping a full-TSC classifier factory.
pub struct Strut<F: FullClassifierTrait> {
    config: StrutConfig,
    make: Box<dyn Fn() -> F + Send + Sync>,
    label: String,
    model: Option<F>,
    best_t: usize,
    len: usize,
}

impl Strut<WeaselClassifier> {
    /// S-WEASEL with default configurations.
    pub fn s_weasel() -> Strut<WeaselClassifier> {
        Strut::new(
            "S-WEASEL",
            StrutConfig::default(),
            WeaselClassifier::with_defaults,
        )
    }

    /// S-WEASEL with explicit configurations.
    pub fn s_weasel_with(
        config: StrutConfig,
        clf: WeaselClassifierConfig,
    ) -> Strut<WeaselClassifier> {
        Strut::new("S-WEASEL", config, move || {
            WeaselClassifier::new(clf.clone())
        })
    }
}

impl Strut<MiniRocketClassifier> {
    /// S-MINI with default configurations.
    pub fn s_mini() -> Strut<MiniRocketClassifier> {
        Strut::new(
            "S-MINI",
            StrutConfig::default(),
            MiniRocketClassifier::with_defaults,
        )
    }

    /// S-MINI with explicit configurations.
    pub fn s_mini_with(
        config: StrutConfig,
        clf: MiniRocketClassifierConfig,
    ) -> Strut<MiniRocketClassifier> {
        Strut::new("S-MINI", config, move || {
            MiniRocketClassifier::new(clf.clone())
        })
    }
}

impl Strut<MlstmClassifier> {
    /// S-MLSTM with the paper's fixed evaluation grid
    /// `{0.05, 0.2, 0.4, 0.6, 0.8, 1}` (Section 6.1).
    pub fn s_mlstm() -> Strut<MlstmClassifier> {
        Strut::new(
            "S-MLSTM",
            StrutConfig {
                search: TruncationSearch::FixedGrid(vec![0.05, 0.2, 0.4, 0.6, 0.8, 1.0]),
                ..StrutConfig::default()
            },
            MlstmClassifier::with_defaults,
        )
    }

    /// S-MLSTM with explicit configurations.
    pub fn s_mlstm_with(config: StrutConfig, clf: MlstmClassifierConfig) -> Strut<MlstmClassifier> {
        Strut::new("S-MLSTM", config, move || MlstmClassifier::new(clf.clone()))
    }
}

impl<F: FullClassifierTrait> Strut<F> {
    /// Generic constructor from a classifier factory.
    pub fn new(
        label: impl Into<String>,
        config: StrutConfig,
        make: impl Fn() -> F + Send + Sync + 'static,
    ) -> Self {
        Strut {
            config,
            make: Box::new(make),
            label: label.into(),
            model: None,
            best_t: 0,
            len: 0,
        }
    }

    /// The selected truncation time point (0 before fit).
    pub fn best_t(&self) -> usize {
        self.best_t
    }

    /// Serializes the fitted state (model store). The wrapped model is
    /// written through `enc_model`, since `F` is generic; callers pass
    /// the concrete classifier's `encode_state`.
    pub fn encode_state(
        &self,
        e: &mut etsc_data::Encoder,
        enc_model: impl Fn(&F, &mut etsc_data::Encoder),
    ) {
        e.tag(match self.config.metric {
            StrutMetric::Accuracy => 0,
            StrutMetric::MacroF1 => 1,
            StrutMetric::HarmonicMean => 2,
        });
        match &self.config.search {
            TruncationSearch::Exhaustive { step } => {
                e.tag(0);
                e.usize(*step);
            }
            TruncationSearch::FixedGrid(fracs) => {
                e.tag(1);
                e.f64s(fracs);
            }
            TruncationSearch::BinarySearch { tolerance } => {
                e.tag(2);
                e.f64(*tolerance);
            }
        }
        e.f64(self.config.validation_fraction);
        e.usize(self.config.min_len);
        e.u64(self.config.seed);
        e.str(&self.label);
        match &self.model {
            None => e.bool(false),
            Some(m) => {
                e.bool(true);
                enc_model(m, e);
            }
        }
        e.usize(self.best_t);
        e.usize(self.len);
    }

    /// Reconstructs a model written by [`Strut::encode_state`]. `make`
    /// rebuilds the factory (used only for refits); `dec_model` decodes
    /// the wrapped classifier.
    ///
    /// # Errors
    /// [`etsc_data::CodecError`] on malformed input.
    pub fn decode_state(
        d: &mut etsc_data::Decoder,
        make: impl Fn() -> F + Send + Sync + 'static,
        dec_model: impl Fn(&mut etsc_data::Decoder) -> Result<F, etsc_data::CodecError>,
    ) -> Result<Self, etsc_data::CodecError> {
        let metric = match d.tag()? {
            0 => StrutMetric::Accuracy,
            1 => StrutMetric::MacroF1,
            2 => StrutMetric::HarmonicMean,
            other => {
                return Err(etsc_data::CodecError::Corrupt {
                    detail: format!("unknown STRUT metric tag {other}"),
                })
            }
        };
        let search = match d.tag()? {
            0 => TruncationSearch::Exhaustive { step: d.usize()? },
            1 => TruncationSearch::FixedGrid(d.f64s()?),
            2 => TruncationSearch::BinarySearch {
                tolerance: d.f64()?,
            },
            other => {
                return Err(etsc_data::CodecError::Corrupt {
                    detail: format!("unknown STRUT search tag {other}"),
                })
            }
        };
        let config = StrutConfig {
            metric,
            search,
            validation_fraction: d.f64()?,
            min_len: d.usize()?,
            seed: d.u64()?,
        };
        let label = d.str()?;
        let model = if d.bool()? { Some(dec_model(d)?) } else { None };
        Ok(Strut {
            config,
            make: Box::new(make),
            label,
            model,
            best_t: d.usize()?,
            len: d.usize()?,
        })
    }

    /// Fits the wrapped classifier at truncation `t` and scores it on the
    /// validation split with the configured metric.
    fn score_at(
        &self,
        t: usize,
        train: &Dataset,
        val: &Dataset,
        len: usize,
    ) -> Result<f64, EtscError> {
        self.score_with_metric(t, train, val, len, self.config.metric)
    }

    /// [`Strut::score_at`] with an explicit metric (the binary search
    /// probes quality with accuracy/F1 even when optimising HM).
    fn score_with_metric(
        &self,
        t: usize,
        train: &Dataset,
        val: &Dataset,
        len: usize,
        metric: StrutMetric,
    ) -> Result<f64, EtscError> {
        let mut clf = (self.make)();
        clf.fit(&train.truncated(t)?)?;
        let val_t = val.truncated(t)?;
        let mut confusion = vec![vec![0usize; val.n_classes()]; val.n_classes()];
        for (inst, label) in val_t.iter() {
            let pred = clf.predict(inst)?;
            confusion[label][pred] += 1;
        }
        let total: usize = confusion.iter().map(|r| r.iter().sum::<usize>()).sum();
        let correct: usize = (0..val.n_classes()).map(|c| confusion[c][c]).sum();
        let acc = correct as f64 / total.max(1) as f64;
        Ok(match metric {
            StrutMetric::Accuracy => acc,
            StrutMetric::MacroF1 => {
                let c_count = val.n_classes();
                let mut f1_sum = 0.0;
                for c in 0..c_count {
                    let tp = confusion[c][c] as f64;
                    let fp: f64 = (0..c_count)
                        .filter(|&o| o != c)
                        .map(|o| confusion[o][c] as f64)
                        .sum();
                    let fn_: f64 = (0..c_count)
                        .filter(|&o| o != c)
                        .map(|o| confusion[c][o] as f64)
                        .sum();
                    let denom = tp + 0.5 * (fp + fn_);
                    if denom > 0.0 {
                        f1_sum += tp / denom;
                    }
                }
                f1_sum / c_count as f64
            }
            StrutMetric::HarmonicMean => {
                let earliness = t as f64 / len as f64;
                let denom = acc + (1.0 - earliness);
                if denom == 0.0 {
                    0.0
                } else {
                    2.0 * acc * (1.0 - earliness) / denom
                }
            }
        })
    }
}

impl<F: FullClassifierTrait> EarlyClassifier for Strut<F> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn fit(&mut self, data: &Dataset) -> Result<(), EtscError> {
        let len = data.min_len();
        if len < self.config.min_len {
            return Err(EtscError::Config(format!(
                "series length {len} below min_len {}",
                self.config.min_len
            )));
        }
        let data = data.truncated(len)?;
        let (train_idx, val_idx) =
            train_validation_split(&data, self.config.validation_fraction, self.config.seed)?;
        let train = data.subset(&train_idx);
        let val = data.subset(&val_idx);

        let min_len = self.config.min_len.max(2).min(len);
        let best_t = match &self.config.search {
            TruncationSearch::Exhaustive { step } => {
                let step = (*step).max(1);
                let mut best = (f64::NEG_INFINITY, len);
                let mut t = min_len;
                loop {
                    let s = self.score_at(t, &train, &val, len)?;
                    if s > best.0 {
                        best = (s, t);
                    }
                    if t == len {
                        break;
                    }
                    t = (t + step).min(len);
                }
                best.1
            }
            TruncationSearch::FixedGrid(fracs) => {
                if fracs.is_empty() {
                    return Err(EtscError::Config("empty truncation grid".into()));
                }
                let mut best = (f64::NEG_INFINITY, len);
                let mut seen = std::collections::BTreeSet::new();
                for &f in fracs {
                    let t = ((len as f64 * f).round() as usize).clamp(min_len, len);
                    if !seen.insert(t) {
                        continue;
                    }
                    let s = self.score_at(t, &train, &val, len)?;
                    if s > best.0 {
                        best = (s, t);
                    }
                }
                best.1
            }
            TruncationSearch::BinarySearch { tolerance } => {
                // The bisection criterion is always *predictive quality*
                // (accuracy / F1), never the harmonic mean: HM at full
                // length is 0 by construction (earliness = 1), which would
                // make every prefix "within tolerance" and collapse the
                // search to the minimum length. Finding the earliest t
                // whose quality matches the full-length model maximises
                // the HM as a consequence.
                let quality_metric = match self.config.metric {
                    StrutMetric::MacroF1 => StrutMetric::MacroF1,
                    _ => StrutMetric::Accuracy,
                };
                let full = self.score_with_metric(len, &train, &val, len, quality_metric)?;
                let target = full - tolerance;
                let mut lo = min_len;
                let mut hi = len;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    let s = self.score_with_metric(mid, &train, &val, len, quality_metric)?;
                    if s >= target {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            }
        };

        // Refit on the complete training data at the chosen point.
        let mut model = (self.make)();
        model.fit(&data.truncated(best_t)?)?;
        self.model = Some(model);
        self.best_t = best_t;
        self.len = len;
        Ok(())
    }

    fn start_stream(&self) -> Result<Box<dyn StreamState + '_>, EtscError> {
        if self.model.is_none() {
            return Err(EtscError::NotFitted);
        }
        Ok(Box::new(StrutStream { model: self }))
    }

    fn supports_multivariate(&self) -> bool {
        true
    }
}

struct StrutStream<'a, F: FullClassifierTrait> {
    model: &'a Strut<F>,
}

impl<F: FullClassifierTrait> StreamState for StrutStream<'_, F> {
    fn observe(
        &mut self,
        prefix: &MultiSeries,
        is_final: bool,
    ) -> Result<Option<Label>, EtscError> {
        let m = self.model;
        let clf = m.model.as_ref().ok_or(EtscError::NotFitted)?;
        if prefix.len() >= m.best_t {
            let window = prefix.prefix_cow(m.best_t)?;
            return Ok(Some(clf.predict(&window)?));
        }
        if is_final {
            // Instance shorter than the chosen point: score the truncated
            // model on a zero-padded window (degenerate but total).
            let mut rows = Vec::with_capacity(prefix.vars());
            for v in 0..prefix.vars() {
                let mut row = prefix.var(v).to_vec();
                row.resize(m.best_t, *row.last().unwrap_or(&0.0));
                rows.push(row);
            }
            let window = MultiSeries::from_rows(rows)?;
            return Ok(Some(clf.predict(&window)?));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::{DatasetBuilder, Series};

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

    #[test]
    fn exhaustive_search_finds_early_point() {
        let d = toy();
        let mut s = Strut::new(
            "S-WEASEL",
            StrutConfig {
                search: TruncationSearch::Exhaustive { step: 2 },
                metric: StrutMetric::HarmonicMean,
                ..StrutConfig::default()
            },
            WeaselClassifier::with_defaults,
        );
        s.fit(&d).unwrap();
        assert!(s.best_t() < 24, "best_t {}", s.best_t());
        let mut correct = 0;
        for (inst, label) in d.iter() {
            let p = s.predict_early(inst).unwrap();
            assert_eq!(p.prefix_len, s.best_t());
            if p.label == label {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / d.len() as f64 > 0.8,
            "{correct}/{}",
            d.len()
        );
    }

    #[test]
    fn binary_search_is_earlier_or_equal_to_full() {
        let d = toy();
        let mut s = Strut::new(
            "S-WEASEL",
            StrutConfig {
                search: TruncationSearch::BinarySearch { tolerance: 0.05 },
                metric: StrutMetric::Accuracy,
                ..StrutConfig::default()
            },
            WeaselClassifier::with_defaults,
        );
        s.fit(&d).unwrap();
        assert!(s.best_t() <= 24);
        assert!(s.best_t() >= 2);
    }

    #[test]
    fn fixed_grid_uses_grid_points() {
        let d = toy();
        let mut s = Strut::new(
            "S-GRID",
            StrutConfig {
                search: TruncationSearch::FixedGrid(vec![0.25, 0.5, 1.0]),
                ..StrutConfig::default()
            },
            WeaselClassifier::with_defaults,
        );
        s.fit(&d).unwrap();
        assert!(
            [6usize, 12, 24].contains(&s.best_t()),
            "best_t {}",
            s.best_t()
        );
    }

    #[test]
    fn macro_f1_metric_works() {
        let d = toy();
        let mut s = Strut::new(
            "S-F1",
            StrutConfig {
                metric: StrutMetric::MacroF1,
                search: TruncationSearch::FixedGrid(vec![0.5, 1.0]),
                ..StrutConfig::default()
            },
            WeaselClassifier::with_defaults,
        );
        s.fit(&d).unwrap();
        assert!(s.best_t() > 0);
    }

    #[test]
    fn empty_grid_rejected_and_unfitted_errors() {
        let d = toy();
        let mut s = Strut::new(
            "S-BAD",
            StrutConfig {
                search: TruncationSearch::FixedGrid(vec![]),
                ..StrutConfig::default()
            },
            WeaselClassifier::with_defaults,
        );
        assert!(matches!(s.fit(&d), Err(EtscError::Config(_))));
        let s2 = Strut::s_weasel();
        assert!(matches!(
            s2.start_stream().err(),
            Some(EtscError::NotFitted)
        ));
    }

    #[test]
    fn supports_multivariate_via_wrapped_model() {
        let s = Strut::s_mini();
        assert!(s.supports_multivariate());
        assert_eq!(s.name(), "S-MINI");
    }

    #[test]
    fn short_instance_is_padded_at_final() {
        let d = toy();
        let mut s = Strut::new(
            "S-WEASEL",
            StrutConfig {
                search: TruncationSearch::FixedGrid(vec![1.0]),
                ..StrutConfig::default()
            },
            WeaselClassifier::with_defaults,
        );
        s.fit(&d).unwrap();
        // Instance shorter than best_t: forced prediction at its end.
        let short = MultiSeries::univariate(Series::new(vec![0.5; 10]));
        let p = s.predict_early(&short).unwrap();
        assert_eq!(p.prefix_len, 10);
    }
}
