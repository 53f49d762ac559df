//! DBEst-style model-of-data AQP (Ma & Triantafillou, SIGMOD 2019).
//!
//! DBEst answers single-active-attribute RAQs from two learned models per
//! query template: a *density* model of the active attribute and a
//! *regression* model `E[measure | x]`, combined by numeric integration:
//!
//! ```text
//!   COUNT(c, r) ≈ n ∫_c^{c+r} pdf(x) dx
//!   SUM(c, r)   ≈ n ∫_c^{c+r} pdf(x) · reg(x) dx
//!   AVG(c, r)   ≈ SUM / COUNT
//! ```
//!
//! DBEst uses mixture density networks; we use a Gaussian KDE for the
//! density and an `nn` MLP for the regression — the same model *class*
//! shape (density + regression), which is what the comparison exercises.
//! Capability parity with the paper: COUNT/SUM/AVG only, exactly one
//! active attribute ("DBEst does not support multiple active attributes").

use crate::{AqpEngine, Unsupported};
use datagen::Dataset;
use nn::fused::activations_per_example;
use nn::train::{train, TrainConfig};
use nn::Mlp;
use query::aggregate::Aggregate;
use query::predicate::PredicateFn;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Gaussian kernel density estimate over a 1-D sample.
#[derive(Debug, Clone)]
struct Kde {
    centers: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    fn fit(values: &[f64], max_centers: usize, seed: u64) -> Kde {
        assert!(!values.is_empty(), "KDE needs data");
        let mut centers = values.to_vec();
        if centers.len() > max_centers {
            let mut rng = StdRng::seed_from_u64(seed);
            centers.shuffle(&mut rng);
            centers.truncate(max_centers);
        }
        let n = centers.len() as f64;
        let mean = centers.iter().sum::<f64>() / n;
        let std = (centers.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
        // Scott's rule, floored to stay usable on near-degenerate data.
        let bandwidth = (1.06 * std * n.powf(-0.2)).max(1e-4);
        Kde { centers, bandwidth }
    }

    fn pdf(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((self.centers.len() as f64) * h * (std::f64::consts::TAU).sqrt());
        self.centers
            .iter()
            .map(|c| (-0.5 * ((x - c) / h).powi(2)).exp())
            .sum::<f64>()
            * norm
    }
}

/// One (active attribute → measure) DBEst model.
#[derive(Debug, Clone)]
pub struct DbEst {
    attr: usize,
    n: f64,
    density: Kde,
    reg: Mlp,
    y_mean: f64,
    y_std: f64,
    /// Integration resolution over the query range.
    grid: usize,
}

/// Training options for [`DbEst`].
#[derive(Debug, Clone)]
pub struct DbEstConfig {
    /// Max KDE centers retained.
    pub kde_centers: usize,
    /// Regression training subsample size.
    pub reg_samples: usize,
    /// Regression net hidden width.
    pub reg_width: usize,
    /// Regression training config.
    pub train: TrainConfig,
    /// Numeric-integration grid points per query.
    pub grid: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for DbEstConfig {
    fn default() -> Self {
        DbEstConfig {
            kde_centers: 512,
            reg_samples: 4_000,
            reg_width: 32,
            train: TrainConfig {
                epochs: 120,
                patience: 12,
                ..TrainConfig::default()
            },
            grid: 64,
            seed: 0,
        }
    }
}

impl DbEst {
    /// Fit density + regression models for queries whose single active
    /// attribute is `attr` and measure is `measure`.
    ///
    /// # Panics
    /// Panics on empty data or out-of-range columns.
    pub fn build(data: &Dataset, attr: usize, measure: usize, cfg: &DbEstConfig) -> DbEst {
        assert!(data.rows() > 0, "empty dataset");
        assert!(
            attr < data.dims() && measure < data.dims(),
            "column out of range"
        );
        let xs_all = data.column(attr);
        let density = Kde::fit(&xs_all, cfg.kde_centers, cfg.seed);

        // Regression subsample.
        let mut ids: Vec<usize> = (0..data.rows()).collect();
        if ids.len() > cfg.reg_samples {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD8E5);
            ids.shuffle(&mut rng);
            ids.truncate(cfg.reg_samples);
        }
        let xs: Vec<Vec<f64>> = ids.iter().map(|&i| vec![data.value(i, attr)]).collect();
        let ys_raw: Vec<f64> = ids.iter().map(|&i| data.value(i, measure)).collect();
        let m = ys_raw.len() as f64;
        let y_mean = ys_raw.iter().sum::<f64>() / m;
        let y_std = (ys_raw.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / m)
            .sqrt()
            .max(1e-12);
        let ys: Vec<f64> = ys_raw.iter().map(|y| (y - y_mean) / y_std).collect();
        let mut reg = Mlp::new(&[1, cfg.reg_width, cfg.reg_width, 1], cfg.seed);
        let mut tcfg = cfg.train.clone();
        tcfg.seed = cfg.seed;
        train(&mut reg, &xs, &ys, &tcfg);

        DbEst {
            attr,
            n: data.rows() as f64,
            density,
            reg,
            y_mean,
            y_std,
            grid: cfg.grid.max(4),
        }
    }

    /// The active attribute this model answers for.
    pub fn attr(&self) -> usize {
        self.attr
    }

    /// Trapezoidal integration of `pdf` and `pdf·reg` over `[lo, hi]`.
    fn integrate(&self, lo: f64, hi: f64) -> (f64, f64) {
        if hi <= lo {
            return (0.0, 0.0);
        }
        let steps = self.grid;
        let h = (hi - lo) / steps as f64;
        let mut acts = Vec::new();
        let (mut mass, mut weighted) = (0.0, 0.0);
        for i in 0..=steps {
            let x = lo + i as f64 * h;
            let p = self.density.pdf(x);
            let r =
                activations_per_example(&self.reg, &mut acts, &[x])[0] * self.y_std + self.y_mean;
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            mass += w * p;
            weighted += w * p * r;
        }
        (mass * h, weighted * h)
    }

    /// Extract the single active `(lo, hi)` for this model's attribute,
    /// or explain why the query is unsupported.
    fn single_active_bound(
        &self,
        pred: &dyn PredicateFn,
        q: &[f64],
    ) -> Result<(f64, f64), Unsupported> {
        // The bounds must fully define the predicate here — bounding-box
        // pruning hints (rotated rectangles, spheres) are not enough.
        let Some(bounds) = pred.exact_axis_bounds(q) else {
            return Err(Unsupported::Predicate("non-axis-aligned predicate".into()));
        };
        // A bound is "active" if it actually constrains [0,1].
        let active: Vec<&(usize, f64, f64)> = bounds
            .iter()
            .filter(|&&(_, lo, hi)| lo > 0.0 || hi < 1.0)
            .collect();
        match active.as_slice() {
            [&(a, lo, hi)] if a == self.attr => Ok((lo, hi)),
            [_] => Err(Unsupported::QueryShape(
                "active attribute not modeled".into(),
            )),
            _ => Err(Unsupported::QueryShape(format!(
                "DBEst supports exactly one active attribute, got {}",
                active.len()
            ))),
        }
    }
}

impl AqpEngine for DbEst {
    fn name(&self) -> &'static str {
        "DBEst"
    }

    fn answer(
        &self,
        pred: &dyn PredicateFn,
        agg: Aggregate,
        q: &[f64],
    ) -> Result<f64, Unsupported> {
        if !matches!(agg, Aggregate::Count | Aggregate::Sum | Aggregate::Avg) {
            return Err(Unsupported::Aggregate(agg));
        }
        let (lo, hi) = self.single_active_bound(pred, q)?;
        let (mass, weighted) = self.integrate(lo, hi);
        Ok(match agg {
            Aggregate::Count => self.n * mass,
            Aggregate::Sum => self.n * weighted,
            Aggregate::Avg => {
                if mass > 1e-12 {
                    weighted / mass
                } else {
                    0.0
                }
            }
            _ => unreachable!("filtered above"),
        })
    }

    fn storage_bytes(&self) -> usize {
        self.density.centers.len() * 8 + self.reg.storage_bytes() + 24
    }
}

/// One DBEst model per attribute, dispatching on the query's active
/// attribute — how DBEst handles workloads that activate different
/// attributes per query.
pub struct DbEstEnsemble {
    models: Vec<DbEst>,
}

impl DbEstEnsemble {
    /// Build one model per non-measure attribute.
    pub fn build(data: &Dataset, measure: usize, cfg: &DbEstConfig) -> DbEstEnsemble {
        Self::build_for(data, measure, cfg, |a| a != measure)
    }

    /// Build one model per attribute, including ranges on the measure
    /// itself (needed for workloads that activate a random attribute).
    pub fn build_all(data: &Dataset, measure: usize, cfg: &DbEstConfig) -> DbEstEnsemble {
        Self::build_for(data, measure, cfg, |_| true)
    }

    fn build_for(
        data: &Dataset,
        measure: usize,
        cfg: &DbEstConfig,
        keep: impl Fn(usize) -> bool,
    ) -> DbEstEnsemble {
        let models = (0..data.dims())
            .filter(|&a| keep(a))
            .map(|a| {
                let mut c = cfg.clone();
                c.seed = cfg.seed.wrapping_add(a as u64);
                DbEst::build(data, a, measure, &c)
            })
            .collect();
        DbEstEnsemble { models }
    }
}

impl AqpEngine for DbEstEnsemble {
    fn name(&self) -> &'static str {
        "DBEst"
    }

    fn answer(
        &self,
        pred: &dyn PredicateFn,
        agg: Aggregate,
        q: &[f64],
    ) -> Result<f64, Unsupported> {
        let mut last_err = Unsupported::QueryShape("no models".into());
        for m in &self.models {
            match m.answer(pred, agg, q) {
                Ok(v) => return Ok(v),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn storage_bytes(&self) -> usize {
        self.models.iter().map(|m| m.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::simple::uniform;
    use query::predicate::{Range, RotatedRect};
    use query::QueryEngine;

    fn fast_cfg() -> DbEstConfig {
        DbEstConfig {
            kde_centers: 256,
            reg_samples: 1_000,
            reg_width: 16,
            train: TrainConfig {
                epochs: 60,
                ..TrainConfig::default()
            },
            grid: 32,
            seed: 0,
        }
    }

    #[test]
    fn count_on_uniform_data_is_close() {
        let data = uniform(5_000, 2, 1);
        let engine = QueryEngine::new(&data, 1);
        let model = DbEst::build(&data, 0, 1, &fast_cfg());
        let pred = Range::new(vec![0], 2).unwrap();
        for q in [[0.1, 0.5], [0.3, 0.3], [0.05, 0.9]] {
            let exact = engine.answer(&pred, Aggregate::Count, &q);
            let est = model.answer(&pred, Aggregate::Count, &q).unwrap();
            assert!(
                (exact - est).abs() / exact < 0.15,
                "q {q:?}: exact {exact} est {est}"
            );
        }
    }

    #[test]
    fn avg_tracks_conditional_mean() {
        // measure = 2*x + noise-free: AVG over [c, c+r] = c + r (in
        // measure units 2 * midpoint).
        let rows: Vec<Vec<f64>> = (0..4000)
            .map(|i| {
                let x = (i as f64 + 0.5) / 4000.0;
                vec![x, 2.0 * x]
            })
            .collect();
        let data = Dataset::from_rows(vec!["x".into(), "m".into()], &rows).unwrap();
        let model = DbEst::build(&data, 0, 1, &fast_cfg());
        let pred = Range::new(vec![0], 2).unwrap();
        let q = [0.4, 0.2]; // x in [0.4, 0.6) -> AVG(m) = 1.0
        let est = model.answer(&pred, Aggregate::Avg, &q).unwrap();
        assert!((est - 1.0).abs() < 0.1, "est {est}");
    }

    #[test]
    fn declines_unsupported_shapes() {
        let data = uniform(500, 3, 2);
        let model = DbEst::build(&data, 0, 2, &fast_cfg());
        let two_active = Range::new(vec![0, 1], 3).unwrap();
        assert!(matches!(
            model.answer(&two_active, Aggregate::Count, &[0.1, 0.1, 0.3, 0.3]),
            Err(Unsupported::QueryShape(_))
        ));
        let rect = RotatedRect::new(0, 1, 3).unwrap();
        assert!(matches!(
            model.answer(&rect, Aggregate::Count, &[0.1, 0.1, 0.5, 0.5, 0.2]),
            Err(Unsupported::Predicate(_))
        ));
        let one_active = Range::new(vec![0], 3).unwrap();
        assert!(matches!(
            model.answer(&one_active, Aggregate::Median, &[0.1, 0.5]),
            Err(Unsupported::Aggregate(_))
        ));
    }

    #[test]
    fn ensemble_dispatches_by_active_attribute() {
        let data = uniform(2_000, 3, 3);
        let ens = DbEstEnsemble::build(&data, 2, &fast_cfg());
        let engine = QueryEngine::new(&data, 2);
        // Full (c, r) query vector over all 3 attrs, one active.
        let pred = Range::all(3);
        let mut q = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        q[1] = 0.2; // attr 1 active: [0.2, 0.2+0.4)
        q[4] = 0.4;
        let exact = engine.answer(&pred, Aggregate::Count, &q);
        let est = ens.answer(&pred, Aggregate::Count, &q).unwrap();
        assert!(
            (exact - est).abs() / exact < 0.15,
            "exact {exact} est {est}"
        );
    }

    #[test]
    fn kde_integrates_to_one_on_unit_interval() {
        let data = uniform(3_000, 1, 4);
        let kde = Kde::fit(&data.column(0), 512, 0);
        let steps = 400;
        let mass: f64 = (0..=steps)
            .map(|i| {
                let x = i as f64 / steps as f64;
                let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
                w * kde.pdf(x)
            })
            .sum::<f64>()
            / steps as f64;
        // Some mass bleeds outside [0,1] from boundary kernels.
        assert!((0.9..=1.05).contains(&mass), "mass {mass}");
    }
}
