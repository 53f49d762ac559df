//! Live maintenance for dynamic data (Sec. 7 of the paper, made
//! operational).
//!
//! The paper's proposal for dynamic data: "frequently test NeuroSketch,
//! and re-train the neural networks whose accuracy falls below a certain
//! threshold." This module implements the full loop at the granularity
//! that sentence implies — *the networks*, plural, not the deployment:
//!
//! 1. **Ingest.** Rows are appended ([`datagen::Dataset::append`]); the
//!    exact oracle follows incrementally
//!    ([`query::exec::QueryEngine::resume`]) instead of re-sorting.
//! 2. **Check.** A [`DriftMonitor`] holds a probe workload and a
//!    staleness threshold. [`DriftMonitor::check`] scores any
//!    [`Deployment`] whole; a [`MaintenancePlan`] scores it **per
//!    refreshable unit** — per kd-tree partition for a monolithic
//!    deployment, per data shard for a sharded one.
//! 3. **Partial retrain.** Only stale units retrain (on the [`par`]
//!    worker pool, through the batched GEMM training path); every fresh
//!    unit's models are left bitwise untouched. An optional per-cycle
//!    budget ([`MaintenancePlan::max_retrain`]) caps the work, worst
//!    units first — the rolling-refresh pattern.
//! 4. **Hot swap.** For artifact-backed sharded deployments, the
//!    retrained shards land as a new manifest generation
//!    ([`crate::persist::save_refreshed`]) and a serving process
//!    atomically adopts it via
//!    [`crate::deploy::LiveDeployment::reload_sharded`].
//!
//! The degenerate full refresh is a fresh [`NeuroSketch::build`] over
//! the current data — still the right tool when *every* unit is stale,
//! when the query distribution itself moved (the kd-tree partitioning
//! is only retrainable wholesale), or under a non-row-stable shard
//! plan; `docs/maintenance.md` is the operator's guide to choosing.

use crate::deploy::{Deployment, Queries};
use crate::shard::{ShardTables, ShardedSketch};
use crate::sketch::{NeuroSketch, NeuroSketchConfig};
use crate::SketchError;
use datagen::Dataset;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::predicate::PredicateFn;
use std::time::{Duration, Instant};

/// Outcome of one whole-deployment drift check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Normalized MAE of the deployment against the current data.
    pub nmae: f64,
    /// Whether the error breached the threshold (retrain advised); a
    /// NaN error does.
    pub stale: bool,
}

/// Periodic accuracy monitor for a deployed sketch.
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    probe: Vec<Vec<f64>>,
    threshold: f64,
    threads: usize,
}

impl DriftMonitor {
    /// Monitor with a fixed probe workload and an NMAE threshold above
    /// which a deployment (or one of its units) is declared stale.
    /// Labeling and checking default to two worker threads; tune with
    /// [`DriftMonitor::with_threads`].
    pub fn new(probe: Vec<Vec<f64>>, threshold: f64) -> Result<DriftMonitor, SketchError> {
        if probe.is_empty() {
            return Err(SketchError::EmptyProbe);
        }
        if threshold.is_nan() || threshold <= 0.0 {
            return Err(SketchError::BadThreshold { got: threshold });
        }
        Ok(DriftMonitor {
            probe,
            threshold,
            threads: 2,
        })
    }

    /// Set the worker-thread count the monitor's exact labeling and
    /// batched checking fan out across.
    pub fn with_threads(mut self, threads: usize) -> DriftMonitor {
        self.threads = threads.max(1);
        self
    }

    /// The probe queries.
    pub fn probe(&self) -> &[Vec<f64>] {
        &self.probe
    }

    /// The staleness threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The worker-thread knob.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether an error of `nmae` breaches the threshold. NaN does: a
    /// deployment answering NaN must be retrained, not reported fresh.
    fn is_stale(&self, nmae: f64) -> bool {
        nmae.is_nan() || nmae > self.threshold
    }

    /// Compare a deployment against the *current* data (via an exact
    /// engine over it) on the probe workload. Works on any
    /// [`Deployment`] — a bare sketch, either server, or a live handle —
    /// and answers the whole probe through the batched serving path.
    pub fn check(
        &self,
        deployment: &dyn Deployment,
        engine: &QueryEngine<'_>,
        pred: &dyn PredicateFn,
        agg: Aggregate,
    ) -> DriftReport {
        let truth = engine.label_batch(pred, agg, &self.probe, self.threads);
        self.score(&truth, deployment)
    }

    /// [`DriftMonitor::check`] over several deployments at once: the
    /// exact labels are computed **once** and every deployment is scored
    /// against them, in input order. This is what a replicated cluster
    /// ([`crate::cluster::Cluster`]) needs — one monitor, one probe
    /// labeling, a [`DriftReport`] per replica handle — without cloning
    /// the probe workload or re-running the exact oracle per replica. A
    /// replica whose report disagrees with its peers' is drifting
    /// *individually* (stale generation, corrupt artifact), which
    /// whole-cluster checks average away.
    pub fn check_many(
        &self,
        deployments: &[&dyn Deployment],
        engine: &QueryEngine<'_>,
        pred: &dyn PredicateFn,
        agg: Aggregate,
    ) -> Vec<DriftReport> {
        let truth = engine.label_batch(pred, agg, &self.probe, self.threads);
        deployments.iter().map(|d| self.score(&truth, *d)).collect()
    }

    /// Score one deployment against already-computed exact labels — the
    /// shared tail of [`DriftMonitor::check`] and
    /// [`DriftMonitor::check_many`].
    fn score(&self, truth: &[f64], deployment: &dyn Deployment) -> DriftReport {
        let (preds, _) = deployment.answer_batch(&self.probe);
        let nmae = normalized_mae(truth, &preds);
        DriftReport {
            nmae,
            stale: self.is_stale(nmae),
        }
    }
}

/// One refreshable unit's drift verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitDrift {
    /// Unit index: kd-tree partition (leaf order) or data shard.
    pub unit: usize,
    /// Probe queries that landed in / scored this unit.
    pub probes: usize,
    /// Normalized MAE over those probes (0 when no probe reached the
    /// unit — an unobserved unit is never declared stale).
    pub nmae: f64,
    /// Whether this unit breached the threshold.
    pub stale: bool,
}

/// What one maintenance cycle found and did.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Per-unit drift verdicts, in unit order.
    pub units: Vec<UnitDrift>,
    /// Units retrained this cycle, worst first.
    pub retrained: Vec<usize>,
    /// Stale units deferred by the [`MaintenancePlan::max_retrain`]
    /// budget — next cycle's work, worst first.
    pub deferred: Vec<usize>,
    /// Wall-clock of the drift check (labeling + batched answering).
    pub check: Duration,
    /// Wall-clock of relabeling + retraining the stale units.
    pub retrain: Duration,
}

impl MaintenanceReport {
    /// Stale units found this cycle (retrained + deferred).
    pub fn stale_units(&self) -> usize {
        self.units.iter().filter(|u| u.stale).count()
    }
}

/// A per-unit drift check + budgeted partial retrain, in one reusable
/// policy object. The same plan drives both deployment shapes:
/// [`MaintenancePlan::refresh_monolithic`] retrains stale kd-tree
/// partitions in place, [`MaintenancePlan::refresh_sharded`] rebuilds
/// stale data shards — each leaving fresh units' models bitwise
/// untouched.
#[derive(Debug, Clone)]
pub struct MaintenancePlan {
    /// Probe workload, staleness threshold and check-thread knob.
    pub monitor: DriftMonitor,
    /// Configuration stale units retrain with. For bitwise parity with
    /// a from-scratch rebuild (and stable per-unit seeds), use the
    /// configuration the deployment was originally built with.
    pub retrain: NeuroSketchConfig,
    /// Per-cycle retrain budget: at most this many stale units retrain,
    /// worst NMAE first, the rest are deferred to the next cycle.
    /// `None` retrains every stale unit.
    pub max_retrain: Option<usize>,
}

impl MaintenancePlan {
    /// A plan with no retrain budget.
    pub fn new(monitor: DriftMonitor, retrain: NeuroSketchConfig) -> MaintenancePlan {
        MaintenancePlan {
            monitor,
            retrain,
            max_retrain: None,
        }
    }

    /// Split this cycle's stale units into (retrained, deferred) under
    /// the budget, worst NMAE first.
    fn triage(&self, units: &[UnitDrift]) -> (Vec<usize>, Vec<usize>) {
        let mut stale: Vec<&UnitDrift> = units.iter().filter(|u| u.stale).collect();
        stale.sort_by(|a, b| b.nmae.total_cmp(&a.nmae));
        let budget = self.max_retrain.unwrap_or(stale.len());
        let ids: Vec<usize> = stale.iter().map(|u| u.unit).collect();
        let deferred = ids[budget.min(ids.len())..].to_vec();
        let mut retrained = ids;
        retrained.truncate(budget);
        (retrained, deferred)
    }

    /// Check a **monolithic** deployment per kd-tree partition and
    /// retrain only the stale partitions, in place.
    ///
    /// The check answers the whole probe through the batched
    /// [`Deployment`] surface, labels it against `engine` (the exact
    /// oracle over the *current* data), and scores each partition on
    /// the probes that route to it. Stale partitions then relabel their
    /// slice of `train_queries` and retrain on the worker pool with the
    /// batched GEMM path — every fresh partition's model stays bitwise
    /// identical, so answers outside the stale regions are unchanged.
    ///
    /// Errors: a stale partition none of `train_queries` route to
    /// (nothing to retrain it with — widen the workload), and every
    /// training error below.
    pub fn refresh_monolithic(
        &self,
        sketch: &mut NeuroSketch,
        engine: &QueryEngine<'_>,
        pred: &dyn PredicateFn,
        agg: Aggregate,
        train_queries: &[Vec<f64>],
    ) -> Result<MaintenanceReport, SketchError> {
        let t0 = Instant::now();
        let probe = self.monitor.probe();
        let truth = engine.label_batch(pred, agg, probe, self.monitor.threads());
        let (preds, _) = Deployment::answer_batch(&*sketch, probe);
        let mut per_unit: Vec<Vec<usize>> = vec![Vec::new(); sketch.partitions()];
        for (i, q) in probe.iter().enumerate() {
            per_unit[sketch.leaf_index_of(q)].push(i);
        }
        let units: Vec<UnitDrift> = per_unit
            .iter()
            .enumerate()
            .map(|(unit, idxs)| {
                let t: Vec<f64> = idxs.iter().map(|&i| truth[i]).collect();
                let p: Vec<f64> = idxs.iter().map(|&i| preds[i]).collect();
                let nmae = if idxs.is_empty() {
                    0.0
                } else {
                    normalized_mae(&t, &p)
                };
                UnitDrift {
                    unit,
                    probes: idxs.len(),
                    nmae,
                    stale: self.monitor.is_stale(nmae),
                }
            })
            .collect();
        let check = t0.elapsed();

        let (retrained, deferred) = self.triage(&units);
        let t1 = Instant::now();
        // Each stale partition's training queries, as ids into
        // `train_queries` in workload order, read in place by its task.
        let mut ids: Vec<Vec<usize>> = vec![Vec::new(); retrained.len()];
        if !retrained.is_empty() {
            for (i, q) in train_queries.iter().enumerate() {
                let unit = sketch.leaf_index_of(q);
                if let Some(slot) = retrained.iter().position(|&u| u == unit) {
                    ids[slot].push(i);
                }
            }
        }
        // One task per stale unit on the shared pool; relabeling and
        // training both run inside the task (single-threaded there, so
        // U stale units use U workers).
        let jobs: Vec<(usize, Vec<usize>)> = retrained.iter().copied().zip(ids).collect();
        let results = par::par_map(&jobs, self.retrain.threads, |_, (unit, ids)| {
            let mut scratch = Vec::new();
            let labels: Vec<f64> = ids
                .iter()
                .map(|&i| engine.answer_with(&mut scratch, pred, agg, &train_queries[i]))
                .collect();
            sketch
                .train_partition_model(*unit, |k| &train_queries[ids[k]], &labels, &self.retrain)
                .map(|(model, _)| (*unit, model))
        });
        // All-or-nothing install: surface any per-unit error *before*
        // touching a model, so a failed cycle leaves the deployment
        // exactly as it was — never half-refreshed under an Err.
        let trained = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        for (unit, model) in trained {
            sketch.install_partition_model(unit, model);
        }
        Ok(MaintenanceReport {
            units,
            retrained,
            deferred,
            check,
            retrain: t1.elapsed(),
        })
    }

    /// Check a **sharded** deployment per data shard and rebuild only
    /// the stale shards, in place.
    ///
    /// Each shard is scored against its *own* rows of the current
    /// table: the plan re-splits `data`, a per-shard exact engine
    /// labels the probe with shard-local moments, and the shard's
    /// predicted moments ([`crate::shard::ShardSketch`]'s batched path,
    /// finished with the deployment's aggregate) are compared on
    /// normalized MAE. Stale shards rebuild as in [`retrain_shards`] —
    /// same per-(shard, component) seeds as [`crate::shard::build_sharded`],
    /// so a rebuilt shard is bitwise what a full rebuild would have
    /// produced — and fresh shards' models stay bitwise untouched.
    ///
    /// Errors: a plan that is not row-stable (a [`crate::shard::ShardPlan::Blocks`]
    /// table reassigns rows on append, invalidating *every* shard, so a
    /// maintenance cycle — which retrains at most a stale subset —
    /// cannot be sound; refused up front, before any checking work;
    /// full-rebuild territory), an empty shard, and every build error
    /// below.
    pub fn refresh_sharded(
        &self,
        sketch: &mut ShardedSketch,
        data: &Dataset,
        measure: usize,
        pred: &dyn PredicateFn,
        train_queries: &[Vec<f64>],
    ) -> Result<MaintenanceReport, SketchError> {
        let t0 = Instant::now();
        // `partial`: a cycle retrains at most a stale subset, so the
        // non-row-stable refusal lands here, before any checking work.
        let all: Vec<usize> = (0..sketch.shard_count()).collect();
        let mut tables = ShardTables::new(&sketch.plan(), sketch.aggregate(), data, &all, true)?;
        let probe = self.monitor.probe();
        let agg = sketch.aggregate();
        let shards = sketch.shards();
        let units: Vec<UnitDrift> = probe.with_flat(|batch| {
            par::par_map_init(
                &tables.per_shard,
                self.monitor.threads(),
                crate::sketch::BatchScratch::default,
                |scratch, _, (unit, table)| {
                    let engine = QueryEngine::new(table, measure);
                    let truth: Vec<f64> = engine
                        .label_moments_batch(pred, probe, 1)
                        .into_iter()
                        .map(|m| {
                            m.finish(agg)
                                .expect("sharded aggregates are moment-composable")
                        })
                        .collect();
                    let preds: Vec<f64> = shards[*unit]
                        .moments_batch_with(scratch, batch)
                        .into_iter()
                        .map(|m| sketch.finish_guarded(m))
                        .collect();
                    let nmae = normalized_mae(&truth, &preds);
                    UnitDrift {
                        unit: *unit,
                        probes: probe.len(),
                        nmae,
                        stale: self.monitor.is_stale(nmae),
                    }
                },
            )
        });
        let check = t0.elapsed();

        let (retrained, deferred) = self.triage(&units);
        let t1 = Instant::now();
        // The check phase already split the table; rebuild straight from
        // those per-shard tables instead of re-materializing them.
        tables
            .per_shard
            .retain(|(unit, _)| retrained.contains(unit));
        let (rebuilt, _) = tables.build(measure, pred, train_queries, &self.retrain)?;
        sketch.replace_shards(rebuilt);
        Ok(MaintenanceReport {
            units,
            retrained,
            deferred,
            check,
            retrain: t1.elapsed(),
        })
    }
}

/// Rebuild the given shards of a deployment against the current table,
/// leaving every other shard's models bitwise untouched — the partial
/// refresh mechanism under [`MaintenancePlan::refresh_sharded`],
/// exposed for callers that already know the stale set (benchmarks, an
/// operator forcing a shard). Shards rebuild in parallel on the worker
/// pool with the same per-(shard, component) seed derivation as
/// [`crate::shard::build_sharded`], so with the original build
/// configuration a rebuilt shard is bitwise what a full rebuild over
/// the same table would produce. Only the stale shards' tables are
/// materialized; fresh shards' rows are never touched, read or
/// re-labeled.
///
/// A plan that is not row-stable is refused (typed) unless `stale`
/// covers every shard — under [`crate::shard::ShardPlan::Blocks`],
/// appends reassign rows, so any untouched shard's models would be
/// serving rows they were never trained on.
pub fn retrain_shards(
    sketch: &mut ShardedSketch,
    data: &Dataset,
    measure: usize,
    pred: &dyn PredicateFn,
    train_queries: &[Vec<f64>],
    cfg: &NeuroSketchConfig,
    stale: &[usize],
) -> Result<(), SketchError> {
    let mut stale: Vec<usize> = stale.to_vec();
    stale.sort_unstable();
    stale.dedup();
    if let Some(&unit) = stale.iter().find(|&&u| u >= sketch.shard_count()) {
        return Err(SketchError::NoSuchUnit {
            unit,
            units: sketch.shard_count(),
        });
    }
    // An empty stale set is a no-op regardless of the plan — a cycle
    // that found nothing stale must not error on a Blocks deployment.
    if stale.is_empty() {
        return Ok(());
    }
    let partial = stale.len() < sketch.shard_count();
    let tables = ShardTables::new(&sketch.plan(), sketch.aggregate(), data, &stale, partial)?;
    let (rebuilt, _) = tables.build(measure, pred, train_queries, cfg)?;
    sketch.replace_shards(rebuilt);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{build_sharded, ShardPlan};
    use datagen::simple::{drift_batch, gaussian, uniform};
    use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

    fn workload(seed: u64) -> Workload {
        Workload::generate(&WorkloadConfig {
            dims: 1,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::WidthBetween(0.2, 0.6),
            count: 400,
            seed,
        })
        .unwrap()
    }

    #[test]
    fn fresh_sketch_is_not_stale() {
        let data = uniform(3_000, 1, 1);
        let engine = QueryEngine::new(&data, 0);
        let wl = workload(2);
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 120;
        let (sketch, _) =
            NeuroSketch::build(&engine, &wl.predicate, Aggregate::Avg, &wl.queries, &cfg).unwrap();
        let monitor = DriftMonitor::new(wl.queries[..100].to_vec(), 0.2).unwrap();
        let report = monitor.check(&sketch, &engine, &wl.predicate, Aggregate::Avg);
        assert!(
            !report.stale,
            "fresh sketch flagged stale (nmae {})",
            report.nmae
        );
    }

    /// A deployment that answers NaN is stale, never fresh. Three
    /// probes of width `1e39` — beyond `f32`, so the sketch answers NaN
    /// for them (`ServingLayout::forward_into`) — make the error NaN,
    /// and both the check and the partial refresh must retrain on it.
    #[test]
    fn nan_error_reads_as_stale() {
        let data = uniform(3_000, 1, 1);
        let engine = QueryEngine::new(&data, 0);
        let wl = workload(2);
        let cfg = NeuroSketchConfig::small();
        let (mut sketch, _) =
            NeuroSketch::build(&engine, &wl.predicate, Aggregate::Avg, &wl.queries, &cfg).unwrap();
        let mut probe = wl.queries[..20].to_vec();
        for q in probe.iter_mut().step_by(7) {
            q[1] = 1e39;
        }
        let monitor = DriftMonitor::new(probe, 0.2).unwrap();
        let report = monitor.check(&sketch, &engine, &wl.predicate, Aggregate::Avg);
        assert!(report.nmae.is_nan() && report.stale, "{report:?}");

        let plan = MaintenancePlan::new(monitor, cfg);
        let report = plan
            .refresh_monolithic(
                &mut sketch,
                &engine,
                &wl.predicate,
                Aggregate::Avg,
                &wl.queries,
            )
            .unwrap();
        assert!(report.units.iter().any(|u| u.nmae.is_nan()), "{report:?}");
        for u in report.units.iter().filter(|u| u.nmae.is_nan()) {
            assert!(u.stale && report.retrained.contains(&u.unit), "{report:?}");
        }
    }

    #[test]
    fn distribution_shift_is_detected_and_refresh_fixes_it() {
        // Train on uniform data, then the data "drifts" to a sharp
        // Gaussian: COUNT answers change drastically.
        let old = uniform(3_000, 1, 1);
        let old_engine = QueryEngine::new(&old, 0);
        let wl = workload(3);
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 120;
        let (sketch, _) = NeuroSketch::build(
            &old_engine,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg,
        )
        .unwrap();

        let new = gaussian(3_000, 1, 0.2, 0.05, 9);
        let new_engine = QueryEngine::new(&new, 0);
        let monitor = DriftMonitor::new(wl.queries[..100].to_vec(), 0.2)
            .unwrap()
            .with_threads(3);
        assert_eq!(monitor.threads(), 3);

        let drifted = monitor.check(&sketch, &new_engine, &wl.predicate, Aggregate::Count);
        assert!(drifted.stale, "drift not detected (nmae {})", drifted.nmae);

        let (fresh, _) = NeuroSketch::build(
            &new_engine,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg,
        )
        .unwrap();
        let fixed = monitor.check(&fresh, &new_engine, &wl.predicate, Aggregate::Count);
        assert!(
            fixed.nmae < drifted.nmae * 0.5,
            "refresh should halve error: {} -> {}",
            drifted.nmae,
            fixed.nmae
        );
    }

    #[test]
    fn monitor_construction_errors_are_typed() {
        assert_eq!(
            DriftMonitor::new(vec![], 0.1).unwrap_err(),
            SketchError::EmptyProbe
        );
        assert_eq!(
            DriftMonitor::new(vec![vec![0.5, 0.5]], 0.0).unwrap_err(),
            SketchError::BadThreshold { got: 0.0 }
        );
        assert!(matches!(
            DriftMonitor::new(vec![vec![0.5, 0.5]], f64::NAN).unwrap_err(),
            SketchError::BadThreshold { .. }
        ));
    }

    /// Localized drift (a blob appended at x ≈ 0.2) must stale only the
    /// query-space partitions whose probes cover the blob; the partial
    /// refresh retrains those and provably leaves every fresh
    /// partition's answers bitwise unchanged.
    #[test]
    fn monolithic_partial_refresh_touches_only_stale_partitions() {
        let mut data = uniform(4_000, 1, 1);
        let wl = workload(5);
        let mut cfg = NeuroSketchConfig::small();
        cfg.tree_height = 2;
        cfg.target_partitions = 4;
        cfg.train.epochs = 120;
        let engine = QueryEngine::new(&data, 0);
        let (mut sketch, _) =
            NeuroSketch::build(&engine, &wl.predicate, Aggregate::Count, &wl.queries, &cfg)
                .unwrap();

        // Ingest a hard localized shift through the incremental path.
        let snapshot = engine.into_snapshot();
        data.append(&drift_batch(2_000, 1, 1.0, 0.2, 7)).unwrap();
        let engine = QueryEngine::resume(snapshot, &data).unwrap();

        let monitor = DriftMonitor::new(wl.queries[..200].to_vec(), 0.15).unwrap();
        let plan = MaintenancePlan::new(monitor, cfg.clone());
        let before: Vec<f64> = wl.queries.iter().map(|q| sketch.answer(q)).collect();
        let drifted = plan
            .monitor
            .check(&sketch, &engine, &wl.predicate, Aggregate::Count);
        assert!(
            drifted.stale,
            "setup failed to drift (nmae {})",
            drifted.nmae
        );
        let report = plan
            .refresh_monolithic(
                &mut sketch,
                &engine,
                &wl.predicate,
                Aggregate::Count,
                &wl.queries,
            )
            .unwrap();

        assert!(!report.retrained.is_empty(), "no partition went stale");
        assert!(
            report.retrained.len() < sketch.partitions(),
            "drift at one end of the domain staled every partition: {:?}",
            report.units
        );
        assert!(report.deferred.is_empty());
        // Fresh partitions: answers bitwise unchanged for every query
        // routing to them. Stale partitions: actually retrained.
        let mut stale_changed = false;
        for (q, b) in wl.queries.iter().zip(&before) {
            let unit = sketch.leaf_index_of(q);
            let after = sketch.answer(q);
            if report.retrained.contains(&unit) {
                stale_changed |= after != *b;
            } else {
                assert_eq!(after, *b, "fresh partition {unit} drifted");
            }
        }
        assert!(stale_changed, "retraining changed nothing");
        // And the retrain substantially recovered the drifted error
        // (the blob is genuinely harder to fit than uniform data, so
        // assert improvement, not perfection).
        let after_check = plan
            .monitor
            .check(&sketch, &engine, &wl.predicate, Aggregate::Count);
        assert!(
            after_check.nmae < drifted.nmae * 0.6,
            "refresh barely helped: {} -> {}",
            drifted.nmae,
            after_check.nmae
        );
    }

    /// The budget caps a cycle's work at the worst units and defers the
    /// rest, and a stale unit with no training queries is a typed error.
    #[test]
    fn budget_defers_and_missing_train_queries_are_typed() {
        let mut data = uniform(3_000, 1, 2);
        let wl = workload(6);
        let mut cfg = NeuroSketchConfig::small();
        cfg.tree_height = 2;
        cfg.target_partitions = 4;
        cfg.train.epochs = 60;
        let engine = QueryEngine::new(&data, 0);
        let (mut sketch, _) =
            NeuroSketch::build(&engine, &wl.predicate, Aggregate::Count, &wl.queries, &cfg)
                .unwrap();
        let snapshot = engine.into_snapshot();
        // Global drift: everything goes stale.
        data.append(&gaussian(6_000, 1, 0.3, 0.05, 11)).unwrap();
        let engine = QueryEngine::resume(snapshot, &data).unwrap();

        let monitor = DriftMonitor::new(wl.queries[..200].to_vec(), 0.05).unwrap();
        let mut plan = MaintenancePlan::new(monitor, cfg.clone());
        plan.max_retrain = Some(1);
        let report = plan
            .refresh_monolithic(
                &mut sketch,
                &engine,
                &wl.predicate,
                Aggregate::Count,
                &wl.queries,
            )
            .unwrap();
        assert_eq!(report.retrained.len(), 1);
        assert!(
            !report.deferred.is_empty(),
            "nothing deferred: {:?}",
            report.units
        );
        assert_eq!(
            report.stale_units(),
            report.retrained.len() + report.deferred.len()
        );
        // The retrained unit is the worst one.
        let worst = report
            .units
            .iter()
            .max_by(|a, b| a.nmae.total_cmp(&b.nmae))
            .unwrap();
        assert_eq!(report.retrained[0], worst.unit);

        // A stale unit whose training slice is empty is a typed error:
        // probe queries reach it but no training query does (here, an
        // empty training workload makes every slice empty).
        let monitor = DriftMonitor::new(wl.queries[..50].to_vec(), 0.05).unwrap();
        let plan = MaintenancePlan::new(monitor, cfg.clone());
        let err = plan
            .refresh_monolithic(&mut sketch, &engine, &wl.predicate, Aggregate::Count, &[])
            .unwrap_err();
        assert!(matches!(err, SketchError::BadWorkload(_)), "{err:?}");
    }

    /// The build and every retrain share one leaf trainer: retraining
    /// each partition of an AQC-merged tree on its own leaf's rows, in
    /// the leaf's order, with the build's labels reproduces the build
    /// bit for bit.
    #[test]
    fn monolithic_retrain_on_the_builds_own_rows_is_bitwise_the_build() {
        let data = uniform(2_000, 1, 4);
        let wl = workload(8);
        let engine = QueryEngine::new(&data, 0);
        let labels = engine.label_batch(&wl.predicate, Aggregate::Count, &wl.queries, 2);
        let mut cfg = NeuroSketchConfig::small();
        cfg.tree_height = 3;
        cfg.target_partitions = 3;
        cfg.train.epochs = 10;
        let (built, _) = NeuroSketch::build_from_labeled(&wl.queries, &labels, &cfg).unwrap();
        let leaf_ids = built.tree().leaf_ids();
        assert_eq!(leaf_ids.len(), 3);
        // A merged leaf lists its left subtree's queries before its
        // right one's, so query order is not the order it trains in.
        assert!(
            leaf_ids.iter().any(|&l| {
                let qids = built.tree().leaf_queries(l);
                qids.windows(2).any(|w| w[0] > w[1])
            }),
            "no leaf trains out of query order"
        );
        let mut retrained = built.clone();
        for (unit, &leaf) in leaf_ids.iter().enumerate() {
            let qids = built.tree().leaf_queries(leaf);
            let rows: Vec<Vec<f64>> = qids.iter().map(|&i| wl.queries[i].clone()).collect();
            let ys: Vec<f64> = qids.iter().map(|&i| labels[i]).collect();
            retrained.retrain_partition(unit, &rows, &ys, &cfg).unwrap();
        }
        for (i, q) in wl.queries.iter().enumerate() {
            let (got, want) = (retrained.answer(q), built.answer(q));
            assert_eq!(got.to_bits(), want.to_bits(), "query {i}");
        }
    }

    /// Sharded partial refresh: an explicitly forced stale set rebuilds
    /// exactly those shards — bitwise equal to what a full rebuild
    /// produces for them — and leaves the others' models untouched.
    #[test]
    fn sharded_partial_refresh_is_bitwise_full_rebuild_on_stale_shards() {
        let mut data = uniform(1_200, 2, 3);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 150,
            seed: 9,
        })
        .unwrap();
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 15;
        let plan = ShardPlan::Hash { shards: 4, seed: 2 };
        let (mut sharded, _) = build_sharded(
            &data,
            1,
            &plan,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg,
        )
        .unwrap();

        data.append(&drift_batch(600, 2, 1.0, 0.25, 13)).unwrap();
        let before: Vec<Vec<f64>> = sharded
            .shards()
            .iter()
            .map(|s| {
                wl.queries
                    .iter()
                    .take(40)
                    .map(|q| {
                        s.model(query::aggregate::MomentKind::Count)
                            .unwrap()
                            .answer(q)
                    })
                    .collect()
            })
            .collect();

        retrain_shards(
            &mut sharded,
            &data,
            1,
            &wl.predicate,
            &wl.queries,
            &cfg,
            &[1, 3],
        )
        .unwrap();

        // Full rebuild over the same grown table for comparison.
        let (full, _) = build_sharded(
            &data,
            1,
            &plan,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg,
        )
        .unwrap();
        for (k, shard) in sharded.shards().iter().enumerate() {
            let model = shard.model(query::aggregate::MomentKind::Count).unwrap();
            for (i, q) in wl.queries.iter().take(40).enumerate() {
                if [1usize, 3].contains(&k) {
                    // Rebuilt: bitwise what the full rebuild trained.
                    let full_model = full.shards()[k]
                        .model(query::aggregate::MomentKind::Count)
                        .unwrap();
                    assert_eq!(model.answer(q), full_model.answer(q), "shard {k}");
                } else {
                    // Untouched: bitwise the pre-refresh model.
                    assert_eq!(model.answer(q), before[k][i], "shard {k}");
                }
            }
        }
    }

    /// refresh_sharded runs the detect half too: with a threshold set
    /// between per-shard errors, only the worst shards rebuild.
    #[test]
    fn sharded_refresh_respects_budget_and_blocks_is_refused() {
        let mut data = uniform(1_000, 2, 5);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 120,
            seed: 11,
        })
        .unwrap();
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 15;
        let (mut sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 4 },
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg,
        )
        .unwrap();
        data.append(&drift_batch(500, 2, 1.0, 0.3, 17)).unwrap();

        let monitor = DriftMonitor::new(wl.queries[..80].to_vec(), 0.05).unwrap();
        let mut plan = MaintenancePlan::new(monitor, cfg.clone());
        plan.max_retrain = Some(1);
        let report = plan
            .refresh_sharded(&mut sharded, &data, 1, &wl.predicate, &wl.queries)
            .unwrap();
        assert_eq!(report.units.len(), 4);
        assert!(report.retrained.len() <= 1);

        // Blocks plans reassign rows on append: partial refresh is a
        // typed refusal, full coverage is allowed — and an empty stale
        // set (a cycle that found nothing) is a no-op, never an error.
        let (mut blocks, _) = build_sharded(
            &data,
            1,
            &ShardPlan::Blocks { shards: 2 },
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg,
        )
        .unwrap();
        let err = retrain_shards(
            &mut blocks,
            &data,
            1,
            &wl.predicate,
            &wl.queries,
            &cfg,
            &[0],
        )
        .unwrap_err();
        assert!(matches!(err, SketchError::BadConfig(_)), "{err:?}");
        retrain_shards(&mut blocks, &data, 1, &wl.predicate, &wl.queries, &cfg, &[]).unwrap();
        retrain_shards(
            &mut blocks,
            &data,
            1,
            &wl.predicate,
            &wl.queries,
            &cfg,
            &[0, 1],
        )
        .unwrap();

        // Out-of-range stale units are typed.
        assert_eq!(
            retrain_shards(
                &mut blocks,
                &data,
                1,
                &wl.predicate,
                &wl.queries,
                &cfg,
                &[9],
            )
            .unwrap_err(),
            SketchError::NoSuchUnit { unit: 9, units: 2 }
        );
    }
}
