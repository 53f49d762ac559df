//! Aggregation functions.
//!
//! The paper's theory covers COUNT, SUM and AVG; NeuroSketch itself makes
//! no assumption on the aggregate and is evaluated on STD and MEDIAN too
//! (Sec. 4.3, Fig. 9, Table 2). The empty-range convention is `0.0` for
//! every aggregate — the same convention the paper's training-label
//! generation implies (a query matching no rows contributes target 0).

use serde::{Deserialize, Serialize};

/// An aggregation function over the measure values of matching rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Aggregate {
    /// Number of matching rows.
    Count,
    /// Sum of the measure attribute.
    Sum,
    /// Mean of the measure attribute.
    Avg,
    /// Population standard deviation of the measure attribute.
    Std,
    /// Median (lower median for even counts) of the measure attribute.
    Median,
}

impl Aggregate {
    /// All aggregates, in the order of Fig. 9 plus MEDIAN.
    pub const ALL: [Aggregate; 5] = [
        Aggregate::Avg,
        Aggregate::Sum,
        Aggregate::Std,
        Aggregate::Count,
        Aggregate::Median,
    ];

    /// Stable one-byte tag, in declaration order: COUNT 0, SUM 1, AVG 2,
    /// STD 3, MEDIAN 4. The NSKM manifest records it, and answer-cache
    /// keys fold in `tag() + 1` (0 there means "undeclared").
    pub fn tag(&self) -> u8 {
        match self {
            Aggregate::Count => 0,
            Aggregate::Sum => 1,
            Aggregate::Avg => 2,
            Aggregate::Std => 3,
            Aggregate::Median => 4,
        }
    }

    /// Inverse of [`Aggregate::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Aggregate> {
        match tag {
            0 => Some(Aggregate::Count),
            1 => Some(Aggregate::Sum),
            2 => Some(Aggregate::Avg),
            3 => Some(Aggregate::Std),
            4 => Some(Aggregate::Median),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Aggregate::Count => "COUNT",
            Aggregate::Sum => "SUM",
            Aggregate::Avg => "AVG",
            Aggregate::Std => "STD",
            Aggregate::Median => "MEDIAN",
        }
    }

    /// Whether the aggregate's magnitude grows with data size (true for
    /// COUNT/SUM — the "normalize by n" cases of Sec. 3.1.1).
    pub fn scales_with_n(&self) -> bool {
        matches!(self, Aggregate::Count | Aggregate::Sum)
    }

    /// Apply to a *mutable* buffer of measure values of the matching rows
    /// (MEDIAN reorders the buffer in place; other aggregates leave it
    /// untouched). Empty input yields `0.0`.
    pub fn apply(&self, values: &mut [f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let n = values.len() as f64;
        match self {
            Aggregate::Count => n,
            Aggregate::Sum => values.iter().sum(),
            Aggregate::Avg => values.iter().sum::<f64>() / n,
            Aggregate::Std => {
                let mean = values.iter().sum::<f64>() / n;
                (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt()
            }
            Aggregate::Median => {
                let mid = (values.len() - 1) / 2;
                let (_, m, _) =
                    values.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("no NaN"));
                *m
            }
        }
    }

    /// The moment components a scatter/gather deployment must collect
    /// per shard to recombine this aggregate exactly, or `None` for
    /// MEDIAN (not a function of moments, hence not shardable this way).
    ///
    /// COUNT and SUM are single-component (they simply add across
    /// shards); AVG needs `(n, Σ)` and STD needs `(n, Σ, Σ²)`.
    pub fn required_moments(&self) -> Option<&'static [MomentKind]> {
        match self {
            Aggregate::Count => Some(&[MomentKind::Count]),
            Aggregate::Sum => Some(&[MomentKind::Sum]),
            Aggregate::Avg => Some(&[MomentKind::Count, MomentKind::Sum]),
            Aggregate::Std => Some(&[MomentKind::Count, MomentKind::Sum, MomentKind::SumSq]),
            Aggregate::Median => None,
        }
    }

    /// Compute the aggregate from the first three moments of the matching
    /// measure values — `n` (count), `s` (sum), `s2` (sum of squares).
    /// Returns `None` for MEDIAN, which is not a function of moments.
    ///
    /// This is the closed form behind [`Moments::finish`], and
    /// what lets the query engine's sorted-column index answer range
    /// aggregates from prefix-sum differences without touching rows.
    pub fn from_moments(&self, n: f64, s: f64, s2: f64) -> Option<f64> {
        // Each aggregate reads only the components it requires
        // ([`Aggregate::required_moments`]): for true moments `n == 0`
        // implies `s == s2 == 0`, so COUNT/SUM need no empty-set guard —
        // and a sharded deployment that trains only its required
        // components (e.g. SUM-only, where `n` stays 0) must not be
        // zeroed by one it never populated.
        Some(match self {
            Aggregate::Count => n,
            Aggregate::Sum => s,
            Aggregate::Avg => {
                if n == 0.0 {
                    0.0
                } else {
                    s / n
                }
            }
            Aggregate::Std => {
                if n == 0.0 {
                    0.0
                } else {
                    let mean = s / n;
                    (s2 / n - mean * mean).max(0.0).sqrt()
                }
            }
            Aggregate::Median => return None,
        })
    }
}

/// One component of the sufficient statistics `(n, Σ, Σ²)` that
/// COUNT/SUM/AVG/STD are functions of.
///
/// A sharded deployment trains one model per `(shard, MomentKind)` and
/// gathers by *adding* each component across shards — see
/// [`Aggregate::required_moments`] and [`Moments::merge`]. (For AVG and
/// STD the Σ / Σ² models predict per-row means, which the shard weights
/// back into sums by its predicted count before the merge.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MomentKind {
    /// `n` — the number of matching rows.
    Count,
    /// `Σ` — the sum of the measure over matching rows.
    Sum,
    /// `Σ²` — the sum of the squared measure over matching rows.
    SumSq,
}

impl MomentKind {
    /// All moment components, in `(n, Σ, Σ²)` order.
    pub const ALL: [MomentKind; 3] = [MomentKind::Count, MomentKind::Sum, MomentKind::SumSq];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MomentKind::Count => "count",
            MomentKind::Sum => "sum",
            MomentKind::SumSq => "sumsq",
        }
    }

    /// Stable dense index (0, 1, 2) — the slot this component occupies in
    /// per-shard model tables and in the NSKM manifest.
    pub fn slot(&self) -> usize {
        match self {
            MomentKind::Count => 0,
            MomentKind::Sum => 1,
            MomentKind::SumSq => 2,
        }
    }
}

/// The first three moments of a set of measure values: the sufficient
/// statistics from which every non-MEDIAN aggregate is computed.
///
/// `Moments` is the *moment-composable answer type*: moments of a
/// disjoint union of row sets are the component-wise **sums** of the
/// parts' moments, so a scatter/gather deployment can answer
/// COUNT/SUM/AVG/STD exactly by merging per-shard moments and finishing
/// once ([`Moments::finish`]).
///
/// ```
/// use query::aggregate::{Aggregate, Moments};
///
/// let left = Moments::of([1.0, 2.0].into_iter());
/// let right = Moments::of([3.0, 4.0].into_iter());
/// let whole = Moments::of([1.0, 2.0, 3.0, 4.0].into_iter());
/// assert_eq!(left.merge(right), whole);
/// assert_eq!(whole.finish(Aggregate::Avg), Some(2.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Moments {
    /// Number of values (`n`).
    pub n: f64,
    /// Sum of the values (`Σ`).
    pub s: f64,
    /// Sum of the squared values (`Σ²`).
    pub s2: f64,
}

impl Moments {
    /// The moments of the empty set — the identity of [`Moments::merge`].
    pub const ZERO: Moments = Moments {
        n: 0.0,
        s: 0.0,
        s2: 0.0,
    };

    /// Accumulate the moments of a value stream.
    pub fn of(values: impl Iterator<Item = f64>) -> Moments {
        let mut m = Moments::ZERO;
        m.extend(values);
        m
    }

    /// Moments of the disjoint union: component-wise addition. This is
    /// the whole gather step — exact (each component is one f64 add; no
    /// reordering of the per-part accumulations).
    pub fn merge(self, other: Moments) -> Moments {
        Moments {
            n: self.n + other.n,
            s: self.s + other.s,
            s2: self.s2 + other.s2,
        }
    }

    /// One component by kind.
    pub fn component(&self, kind: MomentKind) -> f64 {
        match kind {
            MomentKind::Count => self.n,
            MomentKind::Sum => self.s,
            MomentKind::SumSq => self.s2,
        }
    }

    /// Set one component by kind.
    pub fn set_component(&mut self, kind: MomentKind, value: f64) {
        match kind {
            MomentKind::Count => self.n = value,
            MomentKind::Sum => self.s = value,
            MomentKind::SumSq => self.s2 = value,
        }
    }

    /// Finish into an aggregate value (`None` for MEDIAN) — the same
    /// closed form as [`Aggregate::from_moments`].
    pub fn finish(&self, agg: Aggregate) -> Option<f64> {
        agg.from_moments(self.n, self.s, self.s2)
    }
}

/// Continue the three running sums over more values, one value at a
/// time in stream order — feeding a stream in pieces gives the same
/// bits as feeding it whole, which is what lets the query engine scan
/// in blocks.
impl Extend<f64> for Moments {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.n += 1.0;
            self.s += v;
            self.s2 += v * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(agg: Aggregate, vals: &[f64]) -> f64 {
        agg.apply(&mut vals.to_vec())
    }

    #[test]
    fn count_sum_avg() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(apply(Aggregate::Count, &v), 4.0);
        assert_eq!(apply(Aggregate::Sum, &v), 10.0);
        assert_eq!(apply(Aggregate::Avg, &v), 2.5);
    }

    #[test]
    fn std_population() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((apply(Aggregate::Std, &v) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(apply(Aggregate::Median, &[5.0, 1.0, 3.0]), 3.0);
        // Lower median for even counts.
        assert_eq!(apply(Aggregate::Median, &[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(apply(Aggregate::Median, &[9.0]), 9.0);
    }

    #[test]
    fn empty_yields_zero() {
        for agg in Aggregate::ALL {
            assert_eq!(agg.apply(&mut []), 0.0, "{}", agg.name());
        }
    }

    #[test]
    fn streaming_matches_materialized() {
        let v = [1.0, 5.0, 2.0, 8.0, 3.5];
        for agg in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Std,
        ] {
            let a = apply(agg, &v);
            let b = Moments::of(v.iter().copied()).finish(agg).unwrap();
            assert!((a - b).abs() < 1e-12, "{}", agg.name());
        }
        assert!(Moments::of(v.iter().copied())
            .finish(Aggregate::Median)
            .is_none());
    }

    #[test]
    fn moments_merge_matches_whole_set() {
        let left = [1.0, 5.0, 2.0];
        let right = [8.0, 3.5];
        let merged = Moments::of(left.iter().copied()).merge(Moments::of(right.iter().copied()));
        let whole = Moments::of(left.iter().chain(right.iter()).copied());
        assert_eq!(merged, whole);
        for agg in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Std,
        ] {
            let direct = apply(agg, &[1.0, 5.0, 2.0, 8.0, 3.5]);
            let gathered = merged.finish(agg).unwrap();
            assert!(
                (direct - gathered).abs() < 1e-12 * (1.0 + direct.abs()),
                "{}: {direct} vs {gathered}",
                agg.name()
            );
        }
        assert!(merged.finish(Aggregate::Median).is_none());
    }

    #[test]
    fn moments_components_roundtrip() {
        let mut m = Moments::ZERO;
        for (i, kind) in MomentKind::ALL.iter().enumerate() {
            assert_eq!(kind.slot(), i);
            m.set_component(*kind, (i + 1) as f64);
            assert_eq!(m.component(*kind), (i + 1) as f64);
        }
        assert_eq!(
            m,
            Moments {
                n: 1.0,
                s: 2.0,
                s2: 3.0
            }
        );
        assert_eq!(Moments::ZERO.merge(m), m);
    }

    #[test]
    fn tags_are_declaration_order_and_invert() {
        let declared = [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Std,
            Aggregate::Median,
        ];
        for (tag, agg) in declared.into_iter().enumerate() {
            assert_eq!(agg.tag() as usize, tag, "{}", agg.name());
            assert_eq!(Aggregate::from_tag(agg.tag()), Some(agg));
        }
        assert_eq!(Aggregate::from_tag(5), None);
    }

    #[test]
    fn required_moments_cover_the_shardable_aggregates() {
        assert_eq!(
            Aggregate::Count.required_moments(),
            Some(&[MomentKind::Count][..])
        );
        assert_eq!(
            Aggregate::Sum.required_moments(),
            Some(&[MomentKind::Sum][..])
        );
        assert_eq!(
            Aggregate::Avg.required_moments(),
            Some(&[MomentKind::Count, MomentKind::Sum][..])
        );
        assert_eq!(
            Aggregate::Std.required_moments(),
            Some(&MomentKind::ALL[..])
        );
        assert_eq!(Aggregate::Median.required_moments(), None);
        // Every required component reconstructs via from_moments: the
        // kinds listed really are sufficient statistics. (STD's two
        // formulas — Σ(v-mean)² vs Σv²-n·mean² — differ in rounding, so
        // compare within ulps, not bitwise.)
        let m = Moments::of([2.0, 4.0, 9.0].into_iter());
        for agg in Aggregate::ALL {
            if agg.required_moments().is_some() {
                let direct = apply(agg, &[2.0, 4.0, 9.0]);
                let via_moments = m.finish(agg).unwrap();
                assert!(
                    (direct - via_moments).abs() < 1e-12 * (1.0 + direct.abs()),
                    "{}: {direct} vs {via_moments}",
                    agg.name()
                );
            }
        }
    }

    #[test]
    fn scales_with_n_flags() {
        assert!(Aggregate::Count.scales_with_n());
        assert!(Aggregate::Sum.scales_with_n());
        assert!(!Aggregate::Avg.scales_with_n());
        assert!(!Aggregate::Median.scales_with_n());
    }
}
