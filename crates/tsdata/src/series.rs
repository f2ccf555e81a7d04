//! Univariate and multivariate time-series containers.
//!
//! A [`Series`] is a plain vector of `f64` observations at uniform time
//! steps. A [`MultiSeries`] holds `d` co-evolving variables of equal
//! length, stored variable-major (one contiguous row per variable) so that
//! the univariate algorithms and the per-variable voting adapter can borrow
//! single channels without copying.

use std::borrow::Cow;

use crate::error::DataError;

/// A univariate time-series: observations at uniform time steps.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    values: Vec<f64>,
}

impl Series {
    /// Creates a series from raw observations.
    pub fn new(values: Vec<f64>) -> Self {
        Series { values }
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the raw observations.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The first `l` observations as a slice.
    ///
    /// # Errors
    /// [`DataError::PrefixOutOfRange`] when `l > self.len()`.
    pub fn prefix(&self, l: usize) -> Result<&[f64], DataError> {
        if l > self.values.len() {
            return Err(DataError::PrefixOutOfRange {
                requested: l,
                len: self.values.len(),
            });
        }
        Ok(&self.values[..l])
    }

    /// Arithmetic mean; 0.0 for an empty series.
    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }

    /// Population standard deviation; 0.0 for an empty series.
    pub fn std(&self) -> f64 {
        std(&self.values)
    }

    /// Z-normalised copy: zero mean, unit variance.
    ///
    /// A series with (near-)zero variance maps to all zeros instead of
    /// dividing by ~0, matching the convention of the reference WEASEL and
    /// TEASER implementations.
    pub fn z_normalized(&self) -> Series {
        Series::new(z_normalize(&self.values))
    }

    /// First-difference series (`x[t+1] - x[t]`), one element shorter;
    /// used by WEASEL+MUSE's derivative channels.
    pub fn derivative(&self) -> Series {
        Series::new(derivative(&self.values))
    }
}

impl From<Vec<f64>> for Series {
    fn from(values: Vec<f64>) -> Self {
        Series::new(values)
    }
}

impl std::ops::Index<usize> for Series {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

/// A multivariate time-series: `d` variables observed over `len` uniform
/// time steps, stored variable-major.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSeries {
    /// Flat storage: variable v at time t lives at `v * len + t`.
    data: Vec<f64>,
    vars: usize,
    len: usize,
}

impl MultiSeries {
    /// Builds a multivariate series from per-variable rows.
    ///
    /// # Errors
    /// * [`DataError::Empty`] when no variables are given;
    /// * [`DataError::ShapeMismatch`] when rows differ in length.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, DataError> {
        Self::from_row_slices(&rows)
    }

    /// Builds a multivariate series by copying borrowed per-variable rows
    /// once into its flat storage.
    ///
    /// # Errors
    /// As [`MultiSeries::from_rows`].
    pub fn from_row_slices<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, DataError> {
        let first = rows.first().ok_or(DataError::Empty("variable set"))?;
        let len = first.as_ref().len();
        for row in rows {
            let row = row.as_ref();
            if row.len() != len {
                return Err(DataError::ShapeMismatch {
                    what: "time points per variable",
                    expected: len,
                    got: row.len(),
                });
            }
        }
        let vars = rows.len();
        let mut data = Vec::with_capacity(vars * len);
        for row in rows {
            data.extend_from_slice(row.as_ref());
        }
        Ok(MultiSeries { data, vars, len })
    }

    /// Wraps a single univariate series.
    pub fn univariate(series: Series) -> Self {
        let len = series.len();
        MultiSeries {
            data: series.values,
            vars: 1,
            len,
        }
    }

    /// Number of variables (channels).
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Number of time points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the series has no time points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow one variable's full row.
    ///
    /// # Panics
    /// When `v >= self.vars()`.
    pub fn var(&self, v: usize) -> &[f64] {
        assert!(v < self.vars, "variable {v} out of range ({})", self.vars);
        &self.data[v * self.len..(v + 1) * self.len]
    }

    /// The observation of variable `v` at time `t`.
    ///
    /// # Panics
    /// When either index is out of range.
    pub fn at(&self, v: usize, t: usize) -> f64 {
        assert!(t < self.len, "time {t} out of range ({})", self.len);
        self.var(v)[t]
    }

    /// A copied prefix of the first `l` time points of every variable.
    ///
    /// # Errors
    /// [`DataError::PrefixOutOfRange`] when `l > self.len()`.
    pub fn prefix(&self, l: usize) -> Result<MultiSeries, DataError> {
        if l > self.len {
            return Err(DataError::PrefixOutOfRange {
                requested: l,
                len: self.len,
            });
        }
        let mut data = Vec::with_capacity(self.vars * l);
        for v in 0..self.vars {
            data.extend_from_slice(&self.var(v)[..l]);
        }
        Ok(MultiSeries {
            data,
            vars: self.vars,
            len: l,
        })
    }

    /// The first `l` time points: `self`, borrowed, when `l` is the whole
    /// length, else a copied [`MultiSeries::prefix`].
    ///
    /// # Errors
    /// [`DataError::PrefixOutOfRange`] when `l > self.len()`.
    pub fn prefix_cow(&self, l: usize) -> Result<Cow<'_, MultiSeries>, DataError> {
        if l == self.len {
            Ok(Cow::Borrowed(self))
        } else {
            self.prefix(l).map(Cow::Owned)
        }
    }

    /// Extract one variable as an owned univariate [`Series`].
    pub fn to_univariate(&self, v: usize) -> Series {
        Series::new(self.var(v).to_vec())
    }

    /// Z-normalise every variable independently.
    pub fn z_normalized(&self) -> MultiSeries {
        let rows = (0..self.vars)
            .map(|v| z_normalize(self.var(v)))
            .collect::<Vec<_>>();
        MultiSeries::from_rows(rows).expect("shape preserved by construction")
    }

    /// Append per-variable first-difference channels (padded with a leading
    /// repeat so lengths match), doubling the variable count. Used by
    /// WEASEL+MUSE.
    pub fn with_derivatives(&self) -> MultiSeries {
        let mut rows = Vec::with_capacity(self.vars * 2);
        for v in 0..self.vars {
            rows.push(self.var(v).to_vec());
        }
        for v in 0..self.vars {
            let d = derivative(self.var(v));
            let mut padded = Vec::with_capacity(self.len);
            padded.push(*d.first().unwrap_or(&0.0));
            padded.extend_from_slice(&d);
            // Degenerate single-point series: derivative is empty, keep len.
            padded.truncate(self.len.max(1));
            while padded.len() < self.len {
                padded.push(0.0);
            }
            rows.push(padded);
        }
        MultiSeries::from_rows(rows).expect("rows constructed with equal length")
    }

    /// Flat concatenation of all variables (variable-major); handy as a raw
    /// feature vector for tabular classifiers.
    pub fn flat(&self) -> &[f64] {
        &self.data
    }
}

/// Arithmetic mean of a slice; 0.0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a slice; 0.0 when empty.
pub fn std(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Z-normalise a slice into a fresh vector; constant slices map to zeros.
pub fn z_normalize(xs: &[f64]) -> Vec<f64> {
    let m = mean(xs);
    let s = std(xs);
    if s < 1e-12 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|x| (x - m) / s).collect()
}

/// First differences of a slice (one element shorter).
pub fn derivative(xs: &[f64]) -> Vec<f64> {
    xs.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
/// When lengths differ (programming error in the caller).
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance between unequal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_basics() {
        let s = Series::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s[1], 2.0);
        assert_eq!(s.prefix(2).unwrap(), &[1.0, 2.0]);
        assert!(s.prefix(4).is_err());
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn series_znorm_has_zero_mean_unit_std() {
        let s = Series::new(vec![3.0, 7.0, 5.0, 1.0, 9.0]);
        let z = s.z_normalized();
        assert!(z.mean().abs() < 1e-12);
        assert!((z.std() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_znorm_is_zeros() {
        let s = Series::new(vec![4.0; 6]);
        assert_eq!(s.z_normalized().values(), &[0.0; 6]);
    }

    #[test]
    fn derivative_shortens_by_one() {
        let s = Series::new(vec![1.0, 4.0, 2.0]);
        assert_eq!(s.derivative().values(), &[3.0, -2.0]);
    }

    #[test]
    fn multiseries_rows_and_access() {
        let ms = MultiSeries::from_rows(vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]]).unwrap();
        assert_eq!(ms.vars(), 2);
        assert_eq!(ms.len(), 3);
        assert_eq!(ms.var(1), &[10.0, 20.0, 30.0]);
        assert_eq!(ms.at(0, 2), 3.0);
    }

    #[test]
    fn multiseries_rejects_ragged_rows() {
        let err = MultiSeries::from_rows(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, DataError::ShapeMismatch { .. }));
    }

    #[test]
    fn multiseries_rejects_empty() {
        assert!(matches!(
            MultiSeries::from_rows(vec![]).unwrap_err(),
            DataError::Empty(_)
        ));
    }

    #[test]
    fn multiseries_prefix_copies_all_variables() {
        let ms = MultiSeries::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let p = ms.prefix(2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.var(0), &[1.0, 2.0]);
        assert_eq!(p.var(1), &[4.0, 5.0]);
        assert!(ms.prefix(4).is_err());
    }

    #[test]
    fn multiseries_prefix_cow_borrows_only_the_whole_length() {
        let ms = MultiSeries::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert!(matches!(ms.prefix_cow(3).unwrap(), Cow::Borrowed(b) if std::ptr::eq(b, &ms)));
        let p = ms.prefix_cow(2).unwrap();
        assert!(matches!(p, Cow::Owned(_)));
        assert_eq!(*p, ms.prefix(2).unwrap());
        assert!(ms.prefix_cow(4).is_err());
    }

    #[test]
    fn multiseries_from_row_slices_matches_from_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let ms = MultiSeries::from_row_slices(&rows).unwrap();
        assert_eq!(ms, MultiSeries::from_rows(rows).unwrap());
        let ragged: [&[f64]; 2] = [&[1.0, 2.0], &[1.0]];
        assert!(matches!(
            MultiSeries::from_row_slices(&ragged).unwrap_err(),
            DataError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn with_derivatives_doubles_vars_and_keeps_len() {
        let ms = MultiSeries::from_rows(vec![vec![1.0, 3.0, 6.0]]).unwrap();
        let d = ms.with_derivatives();
        assert_eq!(d.vars(), 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.var(1), &[2.0, 2.0, 3.0]);
    }

    #[test]
    fn univariate_wrapper_roundtrip() {
        let ms = MultiSeries::univariate(Series::new(vec![1.0, 2.0]));
        assert_eq!(ms.vars(), 1);
        assert_eq!(ms.to_univariate(0).values(), &[1.0, 2.0]);
    }

    #[test]
    fn distances() {
        assert_eq!(sq_euclidean(&[0.0, 3.0], &[4.0, 3.0]), 16.0);
        assert_eq!(euclidean(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
    }

    #[test]
    #[should_panic]
    fn distance_panics_on_mismatch() {
        let _ = sq_euclidean(&[1.0], &[1.0, 2.0]);
    }
}
