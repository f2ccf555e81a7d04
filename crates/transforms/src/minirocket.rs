//! MiniROCKET (Dempster et al. 2021): a fast, (almost) deterministic
//! convolutional transform.
//!
//! The fixed kernel set is every length-9 kernel with exactly three taps
//! of weight 2 and six taps of weight −1 (84 kernels, weights sum to ~0).
//! Kernels are applied at exponentially spaced dilations, with and without
//! padding (alternating), and each (kernel, dilation) pair produces a few
//! **PPV** features — the Proportion of Positive Values of the
//! convolution output above a bias drawn from training-set quantiles.
//! Multivariate inputs are handled by summing a per-combination channel
//! subset, as in the reference implementation.
//!
//! # The kernel
//!
//! `fit` (bias sampling) and `transform` share one convolution path,
//! `Scratch::apply`. `Scratch::load` builds the channel-summed signal `x`
//! once per channel subset, zero-padded, as the two products `-1·x` and
//! `2·x`, so each (kernel, dilation) combo only adds. Accumulation is
//! tap-major: every output starts at `0.0` and takes
//! `conv[t] += w_k·x[t + k·d]` for `k = 0..9` in order. The nine taps are
//! unrolled inside a loop over positions that carries no dependency, so
//! the compiler packs neighbouring positions into vector lanes; nine
//! separate passes over `conv` compute the same bits but measured slower,
//! as each pass reloads and stores every output.
//!
//! That is the plain per-position definition's sequence of IEEE
//! operations, so features and fitted biases are bit-identical to it
//! (the golden-digest and reference-kernel tests pin this). The kernel
//! must not reassociate: the reference implementation's
//! `C_α + 3·Σ_{taps}` form, tree sums or reordered taps move values by
//! ulps, and with them every PPV count near a bias. It must not fuse
//! either: an FMA skips the product's own rounding, which differs where
//! `2·x` overflows. Rust contracts nothing into an FMA by itself, and the
//! build sets no fast-math or `target-cpu` flag.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use etsc_data::MultiSeries;
use etsc_ml::MlError;

/// Hyper-parameters for [`MiniRocket`].
#[derive(Debug, Clone)]
pub struct MiniRocketConfig {
    /// Approximate total feature count (rounded to a multiple of the
    /// kernel/dilation combinations).
    pub num_features: usize,
    /// Maximum number of dilations.
    pub max_dilations: usize,
    /// Seed for channel-subset selection.
    pub seed: u64,
}

impl Default for MiniRocketConfig {
    fn default() -> Self {
        MiniRocketConfig {
            num_features: 1000,
            max_dilations: 8,
            seed: 31,
        }
    }
}

/// One (kernel, dilation) feature group.
#[derive(Debug, Clone)]
struct Combo {
    /// Indices (0..9) of the three weight-2 taps.
    kernel: [usize; 3],
    dilation: usize,
    padded: bool,
    /// Channels summed for this combination.
    channels: Vec<usize>,
    /// Bias per feature of this combination.
    biases: Vec<f64>,
}

/// Fitted MiniROCKET transform.
#[derive(Debug, Clone)]
pub struct MiniRocket {
    config: MiniRocketConfig,
    combos: Vec<Combo>,
    vars: usize,
}

/// Enumerates the 84 combinations of 3 positions among 9.
fn kernel_set() -> Vec<[usize; 3]> {
    let mut out = Vec::with_capacity(84);
    for a in 0..9 {
        for b in (a + 1)..9 {
            for c in (b + 1)..9 {
                out.push([a, b, c]);
            }
        }
    }
    out
}

/// Scratch buffers of the one convolution kernel, reused across combos
/// (and, in [`MiniRocket::transform`], across every combo sharing a
/// channel subset).
#[derive(Debug, Default)]
struct Scratch {
    /// Channel-summed signal `x` of the loaded sample.
    signal: Vec<f64>,
    /// `-1.0 · x` and `2.0 · x`, each between `pad` zeros (`w · 0.0`) on
    /// either side.
    neg: Vec<f64>,
    dbl: Vec<f64>,
    pad: usize,
    /// Length of the loaded sample.
    len: usize,
    /// Convolution output of the last [`Scratch::apply`].
    conv: Vec<f64>,
}

impl Scratch {
    /// Loads the sum of `channels` of `sample`, accumulated from `0.0`
    /// in channel order, and its products with the two kernel weights,
    /// zero-padded for dilations up to `max_dilation`.
    fn load(&mut self, sample: &MultiSeries, channels: &[usize], max_dilation: usize) {
        let len = sample.len();
        // A tap that reaches past the whole signal reads nothing but
        // padding, so `len` zeros a side suffice (see `apply`).
        let pad = max_dilation.saturating_mul(4).min(len);
        self.signal.clear();
        self.signal.resize(len, 0.0);
        for &ch in channels {
            for (s, &v) in self.signal.iter_mut().zip(sample.var(ch)) {
                *s += v;
            }
        }
        for (buf, w) in [(&mut self.neg, -1.0), (&mut self.dbl, 2.0)] {
            buf.clear();
            buf.resize(pad, w * 0.0);
            buf.extend(self.signal.iter().map(|&v| w * v));
            buf.resize(len + 2 * pad, w * 0.0);
        }
        self.pad = pad;
        self.len = len;
    }

    /// Convolution output of the kernel with weight-2 taps `kernel` at
    /// dilation `d` over the loaded signal: one value per position when
    /// `padded` (the kernel centred, reading zeros past either end),
    /// else one per position where all nine taps fit (none when the
    /// signal is no longer than `8·d`).
    ///
    /// Each output is `0.0`, then `+= w_k · x[s + k·d]` for `k = 0..9`
    /// in order, where `s` is its first tap's position (`t − 4·d` when
    /// padded, `t` when not): the plain definition's operations in its
    /// order, so the result is bit-identical to it. The products come
    /// from `load`, and the loop over positions carries no dependency,
    /// so the compiler computes neighbouring positions side by side in
    /// vector lanes without touching any position's own sum.
    fn apply(&mut self, kernel: &[usize; 3], d: usize, padded: bool) -> &[f64] {
        let (len, pad) = (self.len, self.pad);
        let n = if padded {
            len
        } else {
            len.saturating_sub(d.saturating_mul(8))
        };
        self.conv.clear();
        if n == 0 {
            return &self.conv;
        }
        // Tap `k`'s products for outputs `0..n`, from its first read.
        let tap = |k: usize| {
            let products = if kernel.contains(&k) {
                &self.dbl
            } else {
                &self.neg
            };
            let reach = k.abs_diff(4).saturating_mul(d);
            let start = if !padded {
                // All nine taps fit: `8·d < len`, so `4·d <= pad`.
                pad + k * d
            } else if reach > pad {
                // Every read is past an end, so `pad == len` and that
                // side's `len` padding zeros stand in for them.
                if k < 4 {
                    0
                } else {
                    pad + len
                }
            } else if k < 4 {
                pad - reach
            } else {
                pad + reach
            };
            &products[start..start + n]
        };
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8]: [&[f64]; 9] = std::array::from_fn(tap);
        self.conv.resize(n, 0.0);
        let conv = &mut self.conv[..n];
        for t in 0..n {
            let mut acc = 0.0;
            acc += t0[t];
            acc += t1[t];
            acc += t2[t];
            acc += t3[t];
            acc += t4[t];
            acc += t5[t];
            acc += t6[t];
            acc += t7[t];
            acc += t8[t];
            conv[t] = acc;
        }
        &self.conv
    }
}

impl MiniRocket {
    /// Untrained transform.
    pub fn new(config: MiniRocketConfig) -> Self {
        MiniRocket {
            config,
            combos: Vec::new(),
            vars: 0,
        }
    }

    /// Untrained transform with defaults (~1000 features).
    pub fn with_defaults() -> Self {
        Self::new(MiniRocketConfig::default())
    }

    /// Total number of PPV features (0 before fit).
    pub fn n_features(&self) -> usize {
        self.combos.iter().map(|c| c.biases.len()).sum()
    }

    /// Fits dilations, channel subsets and bias quantiles on training
    /// samples.
    ///
    /// # Errors
    /// [`MlError::EmptyTrainingSet`] on empty input.
    pub fn fit(&mut self, samples: &[MultiSeries]) -> Result<(), MlError> {
        let mut span = etsc_obs::ambient_span("transform");
        span.attr("name", "minirocket");
        span.attr("samples", &samples.len().to_string());
        if samples.is_empty() || samples[0].is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let len = samples.iter().map(|s| s.len()).min().expect("non-empty");
        let vars = samples[0].vars();
        self.vars = vars;
        let kernels = kernel_set();
        // Exponentially spaced dilations with receptive field inside the
        // series.
        let max_d = ((len.saturating_sub(1)) / 8).max(1);
        let k = self.config.max_dilations.max(1);
        let mut dilations: Vec<usize> = (0..k)
            .map(|i| {
                let e = (max_d as f64).ln() * i as f64 / (k.saturating_sub(1).max(1)) as f64;
                e.exp().round() as usize
            })
            .map(|d| d.max(1))
            .collect();
        dilations.dedup();

        let n_combos = kernels.len() * dilations.len();
        let feats_per_combo = (self.config.num_features / n_combos).max(1);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // Quantile positions via a low-discrepancy (golden ratio) sequence.
        let phi = (5.0_f64.sqrt() - 1.0) / 2.0;

        self.combos.clear();
        let max_dilation = dilations.iter().copied().max().unwrap_or(1);
        let mut scratch = Scratch::default();
        let mut combo_idx = 0usize;
        for &dilation in &dilations {
            for kernel in &kernels {
                // Channel subset: the reference samples a random subset of
                // size 2^u; for small var counts take 1..=vars uniformly.
                let subset = if vars == 1 {
                    vec![0]
                } else {
                    let size = rng.random_range(1..=vars);
                    let mut chans: Vec<usize> = (0..vars).collect();
                    for i in (1..chans.len()).rev() {
                        let j = rng.random_range(0..=i);
                        chans.swap(i, j);
                    }
                    chans.truncate(size);
                    chans.sort_unstable();
                    chans
                };
                let mut combo = Combo {
                    kernel: *kernel,
                    dilation,
                    padded: combo_idx.is_multiple_of(2),
                    channels: subset,
                    biases: Vec::new(),
                };
                // Bias quantiles from one training sample per combo
                // (cycled), matching MiniROCKET's per-kernel sampling.
                scratch.load(
                    &samples[combo_idx % samples.len()],
                    &combo.channels,
                    max_dilation,
                );
                if scratch.apply(kernel, dilation, combo.padded).is_empty() {
                    // Unpadded kernel longer than series: fall back to padded.
                    combo.padded = true;
                    scratch.apply(kernel, dilation, true);
                }
                let conv = &mut scratch.conv;
                conv.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                for f in 0..feats_per_combo {
                    let q = ((combo_idx * feats_per_combo + f + 1) as f64 * phi).fract();
                    let pos = ((conv.len() as f64 - 1.0) * q).round() as usize;
                    combo.biases.push(conv[pos.min(conv.len() - 1)]);
                }
                self.combos.push(combo);
                combo_idx += 1;
            }
        }
        Ok(())
    }

    /// Serializes the fitted state: config, kernel/dilation combinations
    /// with their channel subsets and bias quantiles.
    pub fn encode_state(&self, e: &mut etsc_data::Encoder) {
        e.usize(self.config.num_features);
        e.usize(self.config.max_dilations);
        e.u64(self.config.seed);
        e.usize(self.combos.len());
        for c in &self.combos {
            e.usize(c.kernel[0]);
            e.usize(c.kernel[1]);
            e.usize(c.kernel[2]);
            e.usize(c.dilation);
            e.bool(c.padded);
            e.usizes(&c.channels);
            e.f64s(&c.biases);
        }
        e.usize(self.vars);
    }

    /// Reconstructs a transform written by [`MiniRocket::encode_state`].
    ///
    /// # Errors
    /// [`etsc_data::CodecError`] on malformed input.
    pub fn decode_state(d: &mut etsc_data::Decoder) -> Result<Self, etsc_data::CodecError> {
        let config = MiniRocketConfig {
            num_features: d.usize()?,
            max_dilations: d.usize()?,
            seed: d.u64()?,
        };
        let n = d.usize()?;
        let mut combos = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            combos.push(Combo {
                kernel: [d.usize()?, d.usize()?, d.usize()?],
                dilation: d.usize()?,
                padded: d.bool()?,
                channels: d.usizes()?,
                biases: d.f64s()?,
            });
        }
        Ok(MiniRocket {
            config,
            combos,
            vars: d.usize()?,
        })
    }

    /// Transforms a sample into its PPV feature vector.
    ///
    /// # Errors
    /// [`MlError::NotFitted`] / [`MlError::DimensionMismatch`].
    pub fn transform(&self, sample: &MultiSeries) -> Result<Vec<f64>, MlError> {
        if self.combos.is_empty() {
            return Err(MlError::NotFitted);
        }
        if sample.vars() != self.vars {
            return Err(MlError::DimensionMismatch {
                expected: self.vars,
                got: sample.vars(),
            });
        }
        let mut out = Vec::with_capacity(self.n_features());
        let mut scratch = Scratch::default();
        let max_dilation = self.combos.iter().map(|c| c.dilation).max().unwrap_or(1);
        let mut loaded: Option<&[usize]> = None;
        for combo in &self.combos {
            if loaded != Some(combo.channels.as_slice()) {
                scratch.load(sample, &combo.channels, max_dilation);
                loaded = Some(&combo.channels);
            }
            let conv = scratch.apply(&combo.kernel, combo.dilation, combo.padded);
            if conv.is_empty() {
                out.extend(std::iter::repeat_n(0.0, combo.biases.len()));
                continue;
            }
            let n = conv.len() as f64;
            for &bias in &combo.biases {
                let ppv = conv.iter().filter(|&&v| v > bias).count() as f64 / n;
                out.push(ppv);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_data::Series;

    /// Seeded random walks: `n` samples of `vars` variables × `len`
    /// points, steps uniform in `[-0.5, 0.5)`.
    fn walks(seed: u64, n: usize, vars: usize, len: usize) -> Vec<MultiSeries> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let rows = (0..vars)
                    .map(|_| {
                        let mut x = 0.0;
                        (0..len)
                            .map(|_| {
                                x += rng.random::<f64>() - 0.5;
                                x
                            })
                            .collect()
                    })
                    .collect();
                MultiSeries::from_rows(rows).unwrap()
            })
            .collect()
    }

    fn prefixes(samples: &[MultiSeries], l: usize) -> Vec<MultiSeries> {
        samples.iter().map(|s| s.prefix(l).unwrap()).collect()
    }

    /// FNV-1a over the IEEE-754 bits: any value moved by one ulp (or a
    /// flipped zero sign) changes the digest.
    fn digest(values: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The fitted state a digest pins: every bias, plus each combo's
    /// final padding flag (fit's padded fallback flips it).
    fn fitted_bits(mr: &MiniRocket) -> Vec<f64> {
        mr.combos
            .iter()
            .flat_map(|c| std::iter::once(if c.padded { 1.0 } else { 0.0 }).chain(c.biases.clone()))
            .collect()
    }

    /// Plain scalar reference kernel, position-major: for each output
    /// position, the nine taps in order over a bounds-checked read that
    /// yields `0.0` outside the series.
    fn reference_convolve(sample: &MultiSeries, combo: &Combo) -> Vec<f64> {
        let len = sample.len() as isize;
        let d = combo.dilation as isize;
        let mut signal = vec![0.0; sample.len()];
        for &ch in &combo.channels {
            for (s, &v) in signal.iter_mut().zip(sample.var(ch)) {
                *s += v;
            }
        }
        let get = |t: isize| {
            if t < 0 || t >= len {
                0.0
            } else {
                signal[t as usize]
            }
        };
        let starts: Vec<isize> = if combo.padded {
            (0..len).map(|t| t - 4 * d).collect()
        } else {
            (0..(len - 8 * d).max(0)).collect()
        };
        starts
            .into_iter()
            .map(|s| {
                let mut acc = 0.0;
                for k in 0..9 {
                    let w = if combo.kernel.contains(&(k as usize)) {
                        2.0
                    } else {
                        -1.0
                    };
                    acc += w * get(s + k * d);
                }
                acc
            })
            .collect()
    }

    /// PPV features of a fitted transform through [`reference_convolve`].
    fn reference_transform(mr: &MiniRocket, sample: &MultiSeries) -> Vec<f64> {
        let mut out = Vec::new();
        for combo in &mr.combos {
            let conv = reference_convolve(sample, combo);
            for &bias in &combo.biases {
                out.push(if conv.is_empty() {
                    0.0
                } else {
                    conv.iter().filter(|&&v| v > bias).count() as f64 / conv.len() as f64
                });
            }
        }
        out
    }

    fn fitted(config: MiniRocketConfig, train: &[MultiSeries]) -> MiniRocket {
        let mut mr = MiniRocket::new(config);
        mr.fit(train).unwrap();
        mr
    }

    /// One golden case: a transform fitted on `train` and the features
    /// of every `tests` input, concatenated.
    fn golden_case(
        config: MiniRocketConfig,
        train: &[MultiSeries],
        tests: &[MultiSeries],
    ) -> (u64, u64) {
        let mr = fitted(config, train);
        let feats: Vec<f64> = tests
            .iter()
            .flat_map(|s| mr.transform(s).unwrap())
            .collect();
        (digest(&feats), digest(&fitted_bits(&mr)))
    }

    /// Features and fitted biases of seeded inputs, pinned to the bit.
    /// A kernel change that reorders, reassociates or fuses any
    /// floating-point operation moves at least one of these digests.
    #[test]
    fn minirocket_golden_digests_are_bit_exact() {
        let defaults = MiniRocketConfig::default;
        let train = walks(11, 8, 1, 288);
        let test = walks(12, 1, 1, 288).remove(0);
        let mut nonfinite = test.var(0).to_vec();
        nonfinite[3] = f64::NAN;
        nonfinite[100] = f64::INFINITY;
        nonfinite[101] = f64::NEG_INFINITY;
        nonfinite[200] = -0.0;
        let nonfinite = MultiSeries::univariate(Series::new(nonfinite));
        let short_train = walks(13, 5, 1, 8);
        let short_tests = [walks(14, 1, 1, 8).remove(0), walks(15, 1, 1, 5).remove(0)];
        let mv3 = walks(16, 6, 3, 64);
        let mv6 = walks(17, 6, 6, 96);
        let cases: Vec<(&str, (u64, u64))> = vec![
            (
                "uni-288 (+ prefixes 30, 216)",
                golden_case(
                    defaults(),
                    &train,
                    &[
                        test.clone(),
                        test.prefix(30).unwrap(),
                        test.prefix(216).unwrap(),
                    ],
                ),
            ),
            (
                "uni-30",
                golden_case(
                    defaults(),
                    &prefixes(&train, 30),
                    &[test.prefix(30).unwrap()],
                ),
            ),
            (
                "uni-216",
                golden_case(
                    defaults(),
                    &prefixes(&train, 216),
                    &[test.prefix(216).unwrap()],
                ),
            ),
            (
                "uni-288 non-finite",
                golden_case(defaults(), &train, &[nonfinite]),
            ),
            (
                "len <= 8d",
                golden_case(defaults(), &short_train, &short_tests),
            ),
            (
                "3-var",
                golden_case(
                    MiniRocketConfig {
                        num_features: 2000,
                        ..defaults()
                    },
                    &mv3[..4],
                    &mv3[4..],
                ),
            ),
            ("6-var", golden_case(defaults(), &mv6[..4], &mv6[4..])),
        ];
        let expected: [(u64, u64); 7] = [
            (0xa539_b411_0566_fe40, 0xf097_05bd_c7fb_face),
            (0x4c4b_12dc_5577_53f2, 0xf455_f0b6_a366_28d2),
            (0xd458_4c38_48d8_864c, 0xab0b_1377_d56f_8d09),
            (0x1764_a501_14e8_5228, 0xf097_05bd_c7fb_face),
            (0xe515_1fd8_6698_99f5, 0x3650_e89e_e75c_be70),
            (0xd312_9921_66ca_d7c6, 0x955d_defa_d4da_bc62),
            (0xae4a_b5b1_dcba_b5eb, 0x927d_bde8_3afc_cb9e),
        ];
        for (name, got) in &cases {
            eprintln!("{name}: (0x{:016x}, 0x{:016x})", got.0, got.1);
        }
        for ((name, got), want) in cases.iter().zip(expected) {
            assert_eq!(*got, want, "{name}: (features, biases) digest moved");
        }
    }

    #[test]
    fn minirocket_short_series_take_the_padded_fallback() {
        let mr = fitted(MiniRocketConfig::default(), &walks(13, 5, 1, 8));
        assert!(mr.combos.iter().all(|c| c.padded && c.dilation == 1));
    }

    #[test]
    fn minirocket_matches_the_reference_kernel_bit_for_bit() {
        let shapes = [(1, 288), (1, 40), (1, 9), (1, 6), (2, 50), (3, 33), (6, 70)];
        for (i, &(vars, len)) in shapes.iter().enumerate() {
            let seed = 100 + i as u64;
            let mut samples = walks(seed, 7, vars, len);
            let queries = samples.split_off(4);
            let mr = fitted(
                MiniRocketConfig {
                    num_features: 1500,
                    max_dilations: 6,
                    seed,
                },
                &samples,
            );
            for q in queries.iter().chain(&samples) {
                for l in [q.len(), q.len() / 2, 1] {
                    let q = q.prefix(l).unwrap();
                    let got = mr.transform(&q).unwrap();
                    let want = reference_transform(&mr, &q);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{vars}x{len} at prefix {l}");
                }
            }
        }
    }

    #[test]
    fn minirocket_fitted_biases_are_reference_quantiles() {
        let samples = walks(21, 5, 3, 60);
        let mr = fitted(MiniRocketConfig::default(), &samples);
        for (i, combo) in mr.combos.iter().enumerate() {
            let mut conv = reference_convolve(&samples[i % samples.len()], combo);
            conv.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            for b in &combo.biases {
                assert!(conv.iter().any(|c| c.to_bits() == b.to_bits()), "combo {i}");
            }
        }
    }

    fn uni(values: Vec<f64>) -> MultiSeries {
        MultiSeries::univariate(Series::new(values))
    }

    fn toy() -> Vec<MultiSeries> {
        (0..6)
            .map(|i| {
                let phase = i as f64 * 0.4;
                uni((0..50).map(|t| ((t as f64 * 0.3) + phase).sin()).collect())
            })
            .collect()
    }

    #[test]
    fn kernel_set_has_84_members() {
        let ks = kernel_set();
        assert_eq!(ks.len(), 84);
        // All distinct, all strictly increasing triples.
        for k in &ks {
            assert!(k[0] < k[1] && k[1] < k[2] && k[2] < 9);
        }
    }

    #[test]
    fn feature_count_close_to_requested() {
        let samples = toy();
        let mut mr = MiniRocket::new(MiniRocketConfig {
            num_features: 300,
            max_dilations: 4,
            seed: 0,
        });
        mr.fit(&samples).unwrap();
        let n = mr.n_features();
        assert!(n >= 84, "n = {n}");
        let f = mr.transform(&samples[0]).unwrap();
        assert_eq!(f.len(), n);
    }

    #[test]
    fn ppv_features_are_proportions() {
        let samples = toy();
        let mut mr = MiniRocket::with_defaults();
        mr.fit(&samples).unwrap();
        let f = mr.transform(&samples[1]).unwrap();
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Not all features degenerate.
        assert!(f.iter().any(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let samples = toy();
        let mut a = MiniRocket::with_defaults();
        let mut b = MiniRocket::with_defaults();
        a.fit(&samples).unwrap();
        b.fit(&samples).unwrap();
        assert_eq!(
            a.transform(&samples[2]).unwrap(),
            b.transform(&samples[2]).unwrap()
        );
    }

    #[test]
    fn distinguishes_different_signals() {
        let samples = toy();
        let mut mr = MiniRocket::with_defaults();
        mr.fit(&samples).unwrap();
        let flat = uni(vec![0.0; 50]);
        let f_sin = mr.transform(&samples[0]).unwrap();
        let f_flat = mr.transform(&flat).unwrap();
        let dist: f64 = f_sin
            .iter()
            .zip(&f_flat)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.5, "distance {dist}");
    }

    #[test]
    fn multivariate_channels() {
        let samples: Vec<MultiSeries> = (0..4)
            .map(|i| {
                let a: Vec<f64> = (0..40).map(|t| ((t + i) as f64 * 0.2).sin()).collect();
                let b: Vec<f64> = (0..40).map(|t| ((t + i) as f64 * 0.9).cos()).collect();
                MultiSeries::from_rows(vec![a, b]).unwrap()
            })
            .collect();
        let mut mr = MiniRocket::with_defaults();
        mr.fit(&samples).unwrap();
        let f = mr.transform(&samples[0]).unwrap();
        assert_eq!(f.len(), mr.n_features());
        let wrong = uni(vec![0.0; 40]);
        assert!(mr.transform(&wrong).is_err());
    }

    #[test]
    fn error_paths() {
        let mr = MiniRocket::with_defaults();
        let s = toy();
        assert!(matches!(mr.transform(&s[0]), Err(MlError::NotFitted)));
        let mut mr = MiniRocket::with_defaults();
        assert!(mr.fit(&[]).is_err());
    }

    #[test]
    fn very_short_series_still_works() {
        let samples: Vec<MultiSeries> = (0..3).map(|i| uni(vec![i as f64; 10])).collect();
        let mut mr = MiniRocket::with_defaults();
        mr.fit(&samples).unwrap();
        let f = mr.transform(&samples[0]).unwrap();
        assert_eq!(f.len(), mr.n_features());
    }
}
