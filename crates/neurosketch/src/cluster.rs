//! Replicated shard serving over a simulated cluster, with
//! deterministic replica kills.
//!
//! [`crate::shard`] answers a batch by scattering to K shard sketches
//! on one box. This module extends that to a *cluster*: every shard
//! group holds N [`Replica`]s, routed round-robin, a rolling upgrade
//! walks replicas generation-by-generation using the NSKM generation
//! counter from [`crate::persist`], each replica reading its own
//! column's manifest, and a round-robin plan can be
//! [rebalanced](Cluster::rebalance) K → K·f *row-stably* — answers stay
//! bitwise identical because each physical model is still evaluated
//! exactly once per group and groups merge in the same order.
//!
//! Failures are real disk states — a replica column that missed a
//! publish, a checksum-corrupt or missing artifact, an unreadable
//! manifest — plus replica kills armed as serializable [`Fault`]s.
//! Every failure produces a typed outcome — a degraded
//! [`ClusterBatchReport`] (quorum answer with a staleness flag), a
//! logged [`ClusterEvent`] or a [`ClusterError`] — never a panic, and
//! never a silent blend of generations: one batch is served entirely
//! from one generation.
//!
//! A batch is route → scatter → finish: the router picks one replica
//! per group, and that selection — a [`ClusterReplicaView`] — runs
//! [`crate::shard`]'s scatter/gather over the chosen sketches. The
//! cluster holds no answer cache: a degraded batch's partial answers
//! (uncovered groups contribute nothing to a query's merge) have
//! nowhere to be stored or served from. A view's tally is the same
//! [`DeployStats`] every layer returns, the one count of where answers
//! came from; its cache counts stay 0.
//!
//! Determinism contract: with the same cluster state, armed kills, and
//! batch sequence, answers **and the event log** are bitwise identical
//! at any thread count. All routing and fault decisions are made on
//! the coordinator before the parallel scatter; workers only evaluate
//! the sketches they were handed, and the merge order is group order.

use crate::deploy::{DeployKind, DeployStats, Deployment, DeploymentInfo, QueryBatch};
use crate::persist::{self, PersistError, ShardManifest};
use crate::shard::{
    finish_guarded, scatter_gather, ShardPlan, ShardSketch, ShardTables, ShardedSketch,
};
use crate::sketch::NeuroSketchConfig;
use crate::SketchError;
use datagen::Dataset;
use query::aggregate::{Aggregate, Moments};
use query::predicate::PredicateFn;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// How the coordinator picks which up replica of a group serves a
/// batch: a deterministic function of cluster state, so a replayed
/// batch sequence routes identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cycle through eligible replicas per group; each group keeps its
    /// own cursor, advanced once per pick (a failover re-pick too).
    RoundRobin,
}

/// Cluster serving knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOptions {
    /// Worker threads for the cross-group scatter (≥ 1).
    pub threads: usize,
    /// Fraction of shard groups that must be covered by a healthy
    /// replica at a single generation for a batch to be answered, in
    /// `(0, 1]`. `1.0` demands full coverage; lower values return a
    /// partial (quorum) answer with the uncovered groups contributing
    /// nothing to the merge.
    pub quorum: f64,
}

impl Default for ClusterOptions {
    fn default() -> ClusterOptions {
        ClusterOptions {
            threads: 4,
            quorum: 1.0,
        }
    }
}

/// One copy of a shard group's sketch, with the bookkeeping the router
/// and the rolling upgrade read.
#[derive(Debug, Clone)]
pub struct Replica {
    sketch: ShardSketch,
    generation: u64,
    /// In rotation. A replica goes down when killed or when its
    /// artifact cannot load (a failed checksum included); only
    /// [`Cluster::repair_replica`] brings it back.
    up: bool,
}

impl Replica {
    fn new(sketch: ShardSketch, generation: u64, up: bool) -> Replica {
        Replica {
            sketch,
            generation,
            up,
        }
    }

    /// A slot whose artifact never loaded: no models, out of rotation
    /// until [`Cluster::repair_replica`].
    fn load_failed() -> Replica {
        let no_models = ShardSketch::from_models([None, None, None]);
        Replica::new(no_models, 0, false)
    }

    /// Whether routing may send a batch served at `generation` here.
    fn serves(&self, generation: u64) -> bool {
        self.up && self.generation == generation
    }

    /// NSKM generation of the artifact this replica serves.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// A shard group: one slice of the row space (one or more logical
/// shards of the current plan) and its replica set.
#[derive(Debug, Clone)]
pub struct ShardGroup {
    /// Logical shard ids of the *current* plan this group answers for.
    /// Starts as `[i]`; after a K→K·f rebalance a still-coarse group
    /// covers `f` logical ids until materialized.
    logical: Vec<usize>,
    /// Index into the NSKM manifest's shard list backing this group's
    /// artifacts, if the group is persistence-backed. `None` after
    /// [`Cluster::materialize_group`] splits a group in memory.
    physical: Option<usize>,
    replicas: Vec<Replica>,
    rr_cursor: usize,
}

impl ShardGroup {
    /// Logical shard ids (ascending) this group covers.
    pub fn logical(&self) -> &[usize] {
        &self.logical
    }

    /// The replica set.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }
}

/// One injected fault, plain data so a schedule of them replays. A
/// fault addressing a slot that does not exist is ignored (fired but
/// harmless), so a schedule written for one topology replays safely on
/// another. Disk faults are not simulated: they are states of the
/// replica directories that [`Cluster::load`],
/// [`Cluster::rolling_upgrade_step`] and [`Cluster::repair_replica`]
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Kill a replica at the start of batch `batch` (0-based serve
    /// counter) — the router must fail over mid-sequence.
    Kill {
        /// Batch counter at (or after) which the kill fires.
        batch: u64,
        /// Target group index.
        group: usize,
        /// Target replica index within the group.
        replica: usize,
    },
}

/// Everything observable that happened inside the cluster — the
/// harness's ground truth. Events are appended in deterministic order;
/// [`Cluster::take_events`] drains them for assertions.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterEvent {
    /// A [`Fault::Kill`] fired.
    ReplicaKilled {
        /// Batch counter at which the kill took effect.
        batch: u64,
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
    },
    /// The routed replica was unhealthy; another replica took the
    /// batch.
    Failover {
        /// Batch counter.
        batch: u64,
        /// Group index.
        group: usize,
        /// Originally chosen replica.
        from: usize,
        /// Replica that served instead.
        to: usize,
    },
    /// No healthy replica at the serving generation covered this group
    /// for this batch (it contributed nothing to the merge).
    GroupUncovered {
        /// Batch counter.
        batch: u64,
        /// Group index.
        group: usize,
    },
    /// The batch was served from an older generation than the newest
    /// any healthy replica holds.
    ServedStale {
        /// Batch counter.
        batch: u64,
        /// Generation actually served.
        served: u64,
        /// Newest generation present on any healthy replica.
        latest: u64,
    },
    /// A rolling-upgrade step swapped a replica's artifact.
    UpgradeApplied {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// Generation before the swap.
        from: u64,
        /// Generation after the swap.
        to: u64,
    },
    /// A replica's artifact could not be loaded (at cluster load or
    /// during an upgrade step, a failed checksum included); the replica
    /// is out of rotation.
    ReplicaLoadFailed {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// The typed persistence error, rendered.
        error: String,
    },
    /// A whole replica column's manifest was unreadable (missing, torn
    /// or garbage) at [`Cluster::load`]; every slot in the column is
    /// down.
    ManifestRejected {
        /// Replica column index.
        replica: usize,
        /// The typed error, rendered.
        error: String,
    },
    /// [`Cluster::repair_replica`] restored a replica to rotation.
    ReplicaRepaired {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// Generation it now serves.
        generation: u64,
    },
    /// The plan was refined in place; groups now cover multiple
    /// logical shards until materialized.
    Rebalanced {
        /// Refinement factor `f` (K → K·f).
        factor: usize,
        /// New logical shard count.
        shards: usize,
    },
    /// A coarse group was split into per-logical-shard groups with
    /// freshly built (bitwise-reproducible) models.
    GroupMaterialized {
        /// Index the coarse group had before the split.
        group: usize,
        /// Logical shard ids that became their own groups.
        shards: Vec<usize>,
    },
}

/// Typed cluster failure. Serving degrades through
/// [`ClusterBatchReport`] first; this error means the batch (or
/// control-plane call) could not produce a sound answer at all.
#[derive(Debug)]
pub enum ClusterError {
    /// No single generation had enough healthy coverage to meet the
    /// configured quorum.
    QuorumLost {
        /// Groups the best candidate generation covered.
        covered: usize,
        /// Groups the quorum required.
        needed: usize,
        /// Total shard groups.
        groups: usize,
    },
    /// The requested topology or control-plane operation is invalid
    /// (zero replicas, bad quorum, a manifest of another aggregate or
    /// plan, a roll over an unbacked group, …).
    BadTopology(String),
    /// A persistence operation failed.
    Persist(PersistError),
    /// A sketch-layer operation failed.
    Sketch(SketchError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::QuorumLost {
                covered,
                needed,
                groups,
            } => write!(
                f,
                "quorum lost: best generation covers {covered} of {groups} shard groups, \
                 quorum requires {needed}"
            ),
            ClusterError::BadTopology(msg) => write!(f, "bad cluster topology: {msg}"),
            ClusterError::Persist(e) => write!(f, "cluster persistence: {e}"),
            ClusterError::Sketch(e) => write!(f, "cluster sketch: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<PersistError> for ClusterError {
    fn from(e: PersistError) -> ClusterError {
        ClusterError::Persist(e)
    }
}

impl From<SketchError> for ClusterError {
    fn from(e: SketchError) -> ClusterError {
        ClusterError::Sketch(e)
    }
}

/// What one served batch looked like from the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBatchReport {
    /// Queries in the batch.
    pub queries: usize,
    /// Generation every contributing replica served (never blended).
    pub generation: u64,
    /// Newest generation present on any healthy replica.
    pub latest: u64,
    /// `generation < latest`: the staleness flag.
    pub stale: bool,
    /// Shard groups that contributed to the merge.
    pub covered: usize,
    /// Total shard groups.
    pub groups: usize,
    /// Replicas that served only because the routed replica was down.
    pub failovers: usize,
    /// Replica chosen per group (`None` = uncovered this batch).
    pub chosen: Vec<Option<usize>>,
}

/// A replicated scatter/gather deployment over shard groups, plus the
/// control plane (rolling upgrades, repair, rebalance) and the armed
/// kills. See the [module docs](crate::cluster) for the determinism
/// contract.
pub struct Cluster {
    plan: ShardPlan,
    /// The plan the persistence-backed groups were built under: what
    /// every manifest they reload from must name, whatever
    /// [`Cluster::rebalance`] has refined `plan` to since.
    backing: ShardPlan,
    aggregate: Aggregate,
    groups: Vec<ShardGroup>,
    opts: ClusterOptions,
    batches: u64,
    /// Kills not yet fired, in schedule order.
    faults: Vec<Fault>,
    events: Vec<ClusterEvent>,
}

/// Shard groups a batch must cover: `⌈quorum × groups⌉`, at least one
/// and never more than there are.
fn quorum_needed(groups: usize, quorum: f64) -> usize {
    ((quorum * groups as f64).ceil() as usize).clamp(1, groups.max(1))
}

/// [`ClusterError::BadTopology`] unless `manifest` is of a `plan`
/// deployment of `aggregate`.
fn check_manifest(
    manifest: &ShardManifest,
    plan: ShardPlan,
    aggregate: Aggregate,
) -> Result<(), ClusterError> {
    if (manifest.plan, manifest.aggregate) == (plan, aggregate) {
        return Ok(());
    }
    Err(ClusterError::BadTopology(format!(
        "manifest of a {:?} {} deployment where a {:?} {} one was expected",
        manifest.plan,
        manifest.aggregate.name(),
        plan,
        aggregate.name()
    )))
}

fn validate_opts(opts: &ClusterOptions) -> Result<(), ClusterError> {
    if !(opts.quorum > 0.0 && opts.quorum <= 1.0) {
        return Err(ClusterError::BadTopology(format!(
            "quorum must be in (0, 1], got {}",
            opts.quorum
        )));
    }
    Ok(())
}

impl Cluster {
    /// A cluster with one group per shard of `plan`, shard `i`'s
    /// replicas `replica_sets[i]`, no fault armed and `events` logged.
    fn assemble(
        plan: ShardPlan,
        aggregate: Aggregate,
        replica_sets: Vec<Vec<Replica>>,
        opts: ClusterOptions,
        events: Vec<ClusterEvent>,
    ) -> Cluster {
        let groups = (replica_sets.into_iter().enumerate())
            .map(|(i, replicas)| ShardGroup {
                logical: vec![i],
                physical: Some(i),
                replicas,
                rr_cursor: 0,
            })
            .collect();
        Cluster {
            plan,
            backing: plan,
            aggregate,
            groups,
            opts,
            batches: 0,
            faults: Vec::new(),
            events,
        }
    }

    /// Stand up a cluster from an in-memory sharded sketch by cloning
    /// each shard `replicas` times, all at `generation`. Routing is
    /// round-robin, the only [`RoutePolicy`].
    pub fn new(
        sketch: &ShardedSketch,
        replicas: usize,
        generation: u64,
        _policy: RoutePolicy,
        opts: ClusterOptions,
    ) -> Result<Cluster, ClusterError> {
        if replicas == 0 {
            return Err(ClusterError::BadTopology(
                "a cluster needs at least one replica per shard group".into(),
            ));
        }
        validate_opts(&opts)?;
        let replica_sets = (sketch.shards().iter())
            .map(|shard| vec![Replica::new(shard.clone(), generation, true); replicas])
            .collect();
        let (plan, aggregate) = (sketch.plan(), sketch.aggregate());
        Ok(Cluster::assemble(
            plan,
            aggregate,
            replica_sets,
            opts,
            Vec::new(),
        ))
    }

    /// Stand up a cluster from one NSKM manifest per replica column —
    /// the "each replica has its own disk" topology. Columns whose
    /// manifest is unreadable are rejected (every slot down, a
    /// [`ClusterEvent::ManifestRejected`] logged); individual shard
    /// loads that fail leave just that slot down. Errors, building
    /// nothing, if no manifest is readable, if readable manifests
    /// disagree on plan or aggregate ([`ClusterError::BadTopology`]: no
    /// column outvotes another), or if no replica at all is up.
    pub fn load<P: AsRef<Path>>(
        replica_manifests: &[P],
        _policy: RoutePolicy,
        opts: ClusterOptions,
    ) -> Result<Cluster, ClusterError> {
        validate_opts(&opts)?;
        if replica_manifests.is_empty() {
            return Err(ClusterError::BadTopology(
                "a cluster needs at least one replica manifest".into(),
            ));
        }
        let mut events = Vec::new();
        // One read and one decode per column; every shard of the column
        // then loads against that value.
        let decoded: Vec<Result<ShardManifest, PersistError>> = replica_manifests
            .iter()
            .map(persist::read_manifest)
            .collect();
        let mut readable = decoded.iter().filter_map(|d| d.as_ref().ok());
        let Some((plan, aggregate)) = readable.next().map(|m| (m.plan, m.aggregate)) else {
            // No readable manifest at all: surface the first error.
            let first = decoded.into_iter().next().expect("non-empty").unwrap_err();
            return Err(ClusterError::Persist(first));
        };
        readable.try_for_each(|m| check_manifest(m, plan, aggregate))?;
        let columns: Vec<Option<ShardManifest>> = (decoded.into_iter().enumerate())
            .map(|(r, d)| {
                d.map_err(|e| {
                    let error = e.to_string();
                    events.push(ClusterEvent::ManifestRejected { replica: r, error });
                })
                .ok()
            })
            .collect();
        let replica_sets: Vec<Vec<Replica>> = (0..plan.shards())
            .map(|g| {
                let slots = columns.iter().zip(replica_manifests).enumerate();
                slots
                    .map(|(r, (column, path))| {
                        let Some(manifest) = column else {
                            return Replica::load_failed();
                        };
                        match persist::load_shard(manifest, path, g) {
                            Ok(sketch) => Replica::new(sketch, manifest.generation, true),
                            Err(e) => {
                                events.push(ClusterEvent::ReplicaLoadFailed {
                                    group: g,
                                    replica: r,
                                    error: e.to_string(),
                                });
                                Replica::load_failed()
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        if !replica_sets.iter().flatten().any(|r| r.up) {
            return Err(ClusterError::BadTopology(
                "no replica of any shard group loaded".into(),
            ));
        }
        Ok(Cluster::assemble(
            plan,
            aggregate,
            replica_sets,
            opts,
            events,
        ))
    }

    /// Arm `faults`, in place of any still armed. Each fires at most
    /// once, by batch counter.
    pub fn with_faults(mut self, faults: Vec<Fault>) -> Cluster {
        self.faults = faults;
        self
    }

    /// The current (possibly refined) shard plan.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The shard groups, in gather (merge) order.
    pub fn groups(&self) -> &[ShardGroup] {
        &self.groups
    }

    /// Events logged so far (in deterministic order).
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Drain the event log for assertions.
    pub fn take_events(&mut self) -> Vec<ClusterEvent> {
        std::mem::take(&mut self.events)
    }

    fn quorum_needed(&self) -> usize {
        quorum_needed(self.groups.len(), self.opts.quorum)
    }

    /// Fire, in schedule order, the armed kills whose batch counter has
    /// arrived; each leaves the armed set as it fires.
    fn fire_kills(&mut self, batch: u64) {
        let faults = std::mem::take(&mut self.faults).into_iter();
        let (due, armed): (Vec<Fault>, _) =
            faults.partition(|&Fault::Kill { batch: at, .. }| at <= batch);
        self.faults = armed;
        for Fault::Kill { group, replica, .. } in due {
            let slot = self.groups.get_mut(group);
            let slot = slot.and_then(|g| g.replicas.get_mut(replica));
            if let Some(rep) = slot.filter(|r| r.up) {
                rep.up = false;
                self.events.push(ClusterEvent::ReplicaKilled {
                    batch,
                    group,
                    replica,
                });
            }
        }
    }

    /// Pick the replica of `group` eligible at `generation` that the
    /// group's round-robin cursor points at, and advance the cursor.
    fn pick(group: &mut ShardGroup, generation: u64) -> Option<usize> {
        let eligible: Vec<usize> = (0..group.replicas.len())
            .filter(|&i| group.replicas[i].serves(generation))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let chosen = eligible[group.rr_cursor % eligible.len()];
        group.rr_cursor = group.rr_cursor.wrapping_add(1);
        Some(chosen)
    }

    /// Choose the serving generation and a replica per group for one
    /// batch. Never blends generations: picks the newest generation
    /// with quorum coverage, or fails typed.
    fn select(&mut self, batch: u64) -> Result<(u64, u64, Vec<Option<usize>>), ClusterError> {
        let mut gens: Vec<u64> = self
            .groups
            .iter()
            .flat_map(|g| g.replicas.iter())
            .filter(|r| r.up)
            .map(|r| r.generation)
            .collect();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        gens.dedup();
        let needed = self.quorum_needed();
        let groups = self.groups.len();
        let Some(&latest) = gens.first() else {
            return Err(ClusterError::QuorumLost {
                covered: 0,
                needed,
                groups,
            });
        };
        let mut best_covered = 0usize;
        for &gen in &gens {
            let covered = self
                .groups
                .iter()
                .filter(|g| g.replicas.iter().any(|r| r.serves(gen)))
                .count();
            best_covered = best_covered.max(covered);
            if covered >= needed {
                let chosen: Vec<Option<usize>> = self
                    .groups
                    .iter_mut()
                    .enumerate()
                    .map(|(gi, group)| {
                        let pick = Cluster::pick(group, gen);
                        if pick.is_none() {
                            self.events
                                .push(ClusterEvent::GroupUncovered { batch, group: gi });
                        }
                        pick
                    })
                    .collect();
                return Ok((gen, latest, chosen));
            }
        }
        Err(ClusterError::QuorumLost {
            covered: best_covered,
            needed,
            groups,
        })
    }

    /// Make every routing decision for one batch of `queries` queries —
    /// generation selection, kill firing, failover re-validation, quorum
    /// check, stale event — without touching any query. What is left is pure compute over the report's `chosen`
    /// replicas, deterministic at any thread count.
    fn route_batch(&mut self, queries: usize) -> Result<ClusterBatchReport, ClusterError> {
        let batch = self.batches;
        self.batches += 1;
        let (target, latest, mut chosen) = self.select(batch)?;
        // Kills scheduled at-or-before this batch land *after* routing
        // — the replica dies mid-batch, once already chosen — so the
        // failover pass below re-validates every pick against post-kill
        // health and re-routes the victims.
        self.fire_kills(batch);
        let mut failovers = 0usize;
        for (gi, slot) in chosen.iter_mut().enumerate() {
            if let Some(r) = *slot {
                if !self.groups[gi].replicas[r].serves(target) {
                    let repick = Cluster::pick(&mut self.groups[gi], target);
                    match repick {
                        Some(to) => {
                            failovers += 1;
                            self.events.push(ClusterEvent::Failover {
                                batch,
                                group: gi,
                                from: r,
                                to,
                            });
                            *slot = Some(to);
                        }
                        None => {
                            self.events
                                .push(ClusterEvent::GroupUncovered { batch, group: gi });
                            *slot = None;
                        }
                    }
                }
            }
        }
        let covered = chosen.iter().flatten().count();
        let needed = self.quorum_needed();
        if covered < needed {
            return Err(ClusterError::QuorumLost {
                covered,
                needed,
                groups: self.groups.len(),
            });
        }
        let stale = target < latest;
        if stale {
            self.events.push(ClusterEvent::ServedStale {
                batch,
                served: target,
                latest,
            });
        }
        Ok(ClusterBatchReport {
            queries,
            generation: target,
            latest,
            stale,
            covered,
            groups: self.groups.len(),
            failovers,
            chosen,
        })
    }

    /// Serve a batch: route, then scatter every query to the chosen
    /// replica of every covered group through that selection's
    /// [`ClusterReplicaView`] — [`crate::shard`]'s one scatter/gather,
    /// group moments merged in group order and finished once with the
    /// shared guarded finisher — so a fully-healthy cluster's answers
    /// are bitwise the single-box [`crate::shard::ShardedServer`]
    /// answers.
    ///
    /// Degrades typed: a down replica fails over
    /// ([`ClusterEvent::Failover`]), a generation behind the newest
    /// sets [`ClusterBatchReport::stale`], lost coverage below quorum
    /// is [`ClusterError::QuorumLost`]. Never panics on injected
    /// faults; never blends generations within a batch. The cluster
    /// holds no answer cache: a degraded batch's partial answers have
    /// nowhere to be stored or served from.
    pub fn answer_batch(
        &mut self,
        queries: &[Vec<f64>],
    ) -> Result<(Vec<f64>, ClusterBatchReport), ClusterError> {
        let report = self.route_batch(queries.len())?;
        let (answers, _) = self.view(report.chosen.clone()).answer_batch(queries);
        Ok((answers, report))
    }

    /// Read the manifest at `manifest_path` once, refusing one of
    /// another aggregate or plan: the value every control-plane call
    /// resolves generation and shards against, whatever lands on disk
    /// meanwhile. The plan compared is the one the persistence-backed
    /// groups were built under, so a rebalanced cluster still reloads
    /// from its own manifests.
    fn read_own_manifest(&self, manifest_path: &Path) -> Result<ShardManifest, ClusterError> {
        let manifest = persist::read_manifest(manifest_path)?;
        check_manifest(&manifest, self.backing, self.aggregate)?;
        Ok(manifest)
    }

    /// Advance the rolling upgrade by one replica. `replica_manifests`
    /// holds one manifest per replica column, as [`Cluster::load`]
    /// takes them; each is read once, so the generation a step reports
    /// is the one it installed whatever lands on disk meanwhile. The
    /// first up replica (in group, then replica order) behind its own
    /// column's generation loads its group's shard from that column.
    /// Returns the event the step logged — [`ClusterEvent::UpgradeApplied`],
    /// or [`ClusterEvent::ReplicaLoadFailed`] when the artifact cannot
    /// load (a failed checksum included), taking the replica out of
    /// rotation — or `None` (nothing logged) when no up replica is
    /// behind its column. A column that missed a publish keeps its
    /// replicas at the generation it has.
    ///
    /// Changes nothing and logs nothing on [`ClusterError::BadTopology`]
    /// — a slice of another length than the replica columns, any group
    /// materialized in memory (no roll could reach it, so it would be
    /// stranded at its generation), a column manifest of another
    /// aggregate or plan — or on an unreadable column manifest's
    /// [`ClusterError::Persist`].
    pub fn rolling_upgrade_step<P: AsRef<Path>>(
        &mut self,
        replica_manifests: &[P],
    ) -> Result<Option<ClusterEvent>, ClusterError> {
        if self.groups.iter().any(|g| g.physical.is_none()) {
            return Err(ClusterError::BadTopology(
                "a group is materialized in memory with no persistence backing; no roll can \
                 reach it, so none starts"
                    .into(),
            ));
        }
        let columns = self.groups.first().map_or(0, |g| g.replicas.len());
        if replica_manifests.len() != columns {
            return Err(ClusterError::BadTopology(format!(
                "{} replica manifests for {columns} replica columns",
                replica_manifests.len()
            )));
        }
        let manifests = (replica_manifests.iter())
            .map(|path| self.read_own_manifest(path.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        let candidate = self.groups.iter().enumerate().find_map(|(gi, g)| {
            let behind =
                |(r, rep): &(usize, &Replica)| rep.up && rep.generation < manifests[*r].generation;
            let (ri, _) = g.replicas.iter().enumerate().find(behind)?;
            Some((gi, ri, g.physical?))
        });
        let Some((group, replica, phys)) = candidate else {
            return Ok(None);
        };
        let (manifest, path) = (&manifests[replica], replica_manifests[replica].as_ref());
        let rep = &mut self.groups[group].replicas[replica];
        let event = match persist::load_shard(manifest, path, phys) {
            Ok(sketch) => {
                let from = rep.generation;
                *rep = Replica::new(sketch, manifest.generation, true);
                ClusterEvent::UpgradeApplied {
                    group,
                    replica,
                    from,
                    to: manifest.generation,
                }
            }
            Err(e) => {
                rep.up = false;
                ClusterEvent::ReplicaLoadFailed {
                    group,
                    replica,
                    error: e.to_string(),
                }
            }
        };
        self.events.push(event.clone());
        Ok(Some(event))
    }

    /// Run [`Cluster::rolling_upgrade_step`] to completion and return
    /// the events its steps logged, in order. Replicas whose artifact
    /// fails to load leave rotation and columns that missed the publish
    /// stay behind — the roll completes around them; quorum-checking
    /// their absence is the serving path's job.
    pub fn rolling_upgrade<P: AsRef<Path>>(
        &mut self,
        replica_manifests: &[P],
    ) -> Result<Vec<ClusterEvent>, ClusterError> {
        let cap = self.groups.iter().map(|g| g.replicas.len()).sum::<usize>() + 1;
        let mut steps = Vec::new();
        for _ in 0..cap {
            match self.rolling_upgrade_step(replica_manifests)? {
                Some(event) => steps.push(event),
                None => return Ok(steps),
            }
        }
        Err(ClusterError::BadTopology(
            "rolling upgrade did not converge (a replica re-entered the upgradeable set \
             every step)"
                .into(),
        ))
    }

    /// Bring a downed or lagging replica back: reload its group's shard
    /// from `manifest_path`, put it back in rotation, and
    /// return the generation it now serves. A manifest of another
    /// aggregate or plan is [`ClusterError::BadTopology`], and changes
    /// nothing.
    pub fn repair_replica(
        &mut self,
        group: usize,
        replica: usize,
        manifest_path: impl AsRef<Path>,
    ) -> Result<u64, ClusterError> {
        let Some(phys) = self.groups.get(group).and_then(|g| g.physical) else {
            return Err(ClusterError::BadTopology(format!(
                "group {group} has no persistence backing (materialized in memory) or does \
                 not exist; rebuild it instead of repairing"
            )));
        };
        if self.groups[group].replicas.get(replica).is_none() {
            return Err(ClusterError::BadTopology(format!(
                "group {group} has no replica {replica}"
            )));
        }
        let manifest_path = manifest_path.as_ref();
        let manifest = self.read_own_manifest(manifest_path)?;
        let sketch = persist::load_shard(&manifest, manifest_path, phys)?;
        let generation = manifest.generation;
        self.groups[group].replicas[replica] = Replica::new(sketch, generation, true);
        self.events.push(ClusterEvent::ReplicaRepaired {
            group,
            replica,
            generation,
        });
        Ok(generation)
    }

    /// Refine the plan K → K·`factor` without rebuilding: each group
    /// keeps its models and now *covers* `factor` logical shards of
    /// the refined plan. Row-stable ([`ShardPlan::refine`]) and answer
    /// preserving — every physical model is still evaluated once per
    /// group and groups merge in the same order, so answers are
    /// bitwise unchanged.
    pub fn rebalance(&mut self, factor: usize) -> Result<ShardPlan, ClusterError> {
        let refined = self.plan.refine(factor)?;
        let old_n = self.plan.shards();
        for group in &mut self.groups {
            let mut logical: Vec<usize> = group
                .logical
                .iter()
                .flat_map(|&l| (0..factor).map(move |j| l + j * old_n))
                .collect();
            logical.sort_unstable();
            group.logical = logical;
        }
        self.plan = refined;
        self.events.push(ClusterEvent::Rebalanced {
            factor,
            shards: refined.shards(),
        });
        Ok(refined)
    }

    /// Split a coarse (post-rebalance) group into one group per
    /// logical shard, building each fine shard's models from the data
    /// through the same validation and build step as
    /// [`crate::shard::build_sharded`] (`cfg.threads` wide). Seed
    /// derivation is positional (new-plan shard index), so a
    /// fully materialized K→2K cluster is bitwise a fresh 2K build.
    /// New groups inherit the parent's replica bookkeeping
    /// (generation, up, cursor) and each replica's storage modes, but
    /// have no persistence backing until re-saved, so no roll starts
    /// while one exists. A slot whose artifact never loaded stays
    /// without models.
    /// Any error leaves the group as it was.
    #[allow(clippy::too_many_arguments)]
    pub fn materialize_group(
        &mut self,
        group: usize,
        data: &Dataset,
        measure: usize,
        predicate: &dyn PredicateFn,
        train_queries: &[Vec<f64>],
        cfg: &NeuroSketchConfig,
    ) -> Result<(), ClusterError> {
        let Some(g) = self.groups.get(group) else {
            return Err(ClusterError::BadTopology(format!(
                "group {group} does not exist"
            )));
        };
        if g.logical.len() <= 1 {
            return Ok(());
        }
        let logical = g.logical.clone();
        // `partial`: every other group keeps the models it has.
        let tables = ShardTables::new(&self.plan, self.aggregate, data, &logical, true)?;
        let (fine, _) = tables.build(measure, predicate, train_queries, cfg)?;
        let parent = self.groups.remove(group);
        for (l, sketch) in fine {
            let replicas = parent
                .replicas
                .iter()
                .map(|r| match r.sketch.param_count() {
                    0 => r.clone(),
                    _ => Replica {
                        sketch: sketch.clone().stored_like(&r.sketch),
                        ..*r
                    },
                })
                .collect();
            self.groups.push(ShardGroup {
                logical: vec![l],
                physical: None,
                replicas,
                rr_cursor: parent.rr_cursor,
            });
        }
        // Gather order invariant: groups sorted by lowest logical id.
        // A child's minimum is its single id, and children of shard l
        // under RoundRobin refinement include l itself, so the sort
        // restores exactly the order a fresh fine-grained build has.
        self.groups
            .sort_by_key(|g| g.logical.first().copied().unwrap_or(usize::MAX));
        self.events.push(ClusterEvent::GroupMaterialized {
            group,
            shards: logical,
        });
        Ok(())
    }

    /// A read-only [`Deployment`] view of replica column `replica` —
    /// every group's slot `replica`, bypassing health and routing.
    /// `None` if some group lacks that slot. This is a *diagnostic
    /// instrument*: [`crate::maintenance::DriftMonitor::check_many`]
    /// scores each column against one probe labeling to expose
    /// per-replica drift that whole-cluster checks average away.
    pub fn replica_view(&self, replica: usize) -> Option<ClusterReplicaView<'_>> {
        let has_column = self.groups.iter().all(|g| replica < g.replicas.len());
        (has_column && !self.groups.is_empty())
            .then(|| self.view(vec![Some(replica); self.groups.len()]))
    }

    fn view(&self, chosen: Vec<Option<usize>>) -> ClusterReplicaView<'_> {
        ClusterReplicaView {
            cluster: self,
            chosen,
        }
    }
}

/// One replica per shard group of a [`Cluster`] (`None` = the group is
/// uncovered and contributes nothing to the merge), as a read-only
/// [`Deployment`] — the only thing in this module that scatters a
/// batch. A served batch goes through the view its routing decision
/// selected ([`ClusterBatchReport::chosen`]);
/// [`Cluster::replica_view`] hands out a whole column.
///
/// This, not the [`Cluster`], is what implements [`Deployment`]: every
/// implementor of the trait is a pure function of the batch (which is
/// what lets [`crate::cache::CachedDeployment`] key on a fixed
/// generation and [`crate::deploy::LiveDeployment`] hand out
/// snapshots). A router with a fault clock, cursors and a per-batch
/// serving generation is not, so what a routing decision *selects* is in
/// the trait and the router stays a `&mut self` control plane.
pub struct ClusterReplicaView<'a> {
    cluster: &'a Cluster,
    chosen: Vec<Option<usize>>,
}

impl ClusterReplicaView<'_> {
    /// The selected replicas, in group (merge) order.
    fn replicas(&self) -> impl Iterator<Item = &Replica> + '_ {
        let groups = self.cluster.groups.iter().zip(&self.chosen);
        groups.filter_map(|(g, r)| r.map(|r| &g.replicas[r]))
    }

    /// [`scatter_gather`] over the selected replicas' sketches, fanned
    /// out on the cluster's `threads`.
    fn scatter<T>(
        &self,
        batch: QueryBatch<'_>,
        finish: impl Fn(Moments) -> T,
    ) -> (Vec<T>, DeployStats) {
        let shards: Vec<&ShardSketch> = self.replicas().map(|r| &r.sketch).collect();
        scatter_gather(&shards, batch, self.cluster.opts.threads, finish)
    }
}

impl Deployment for ClusterReplicaView<'_> {
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        let agg = self.cluster.aggregate;
        self.scatter(batch, |m| finish_guarded(agg, m))
    }

    fn moments_flat(&self, batch: QueryBatch<'_>) -> Option<Vec<Moments>> {
        Some(self.scatter(batch, |m| m).0)
    }

    fn describe(&self) -> DeploymentInfo {
        let mut gens = self.replicas().map(|r| r.generation);
        let first = gens.next();
        let generation = match first {
            Some(g) if gens.all(|other| other == g) => Some(g),
            _ => None,
        };
        DeploymentInfo {
            kind: DeployKind::Replicated,
            units: self.chosen.len(),
            param_count: self.replicas().map(|r| r.sketch.param_count()).sum(),
            generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_needed_math() {
        assert_eq!(quorum_needed(4, 1.0), 4);
        assert_eq!(quorum_needed(4, 0.5), 2);
        assert_eq!(quorum_needed(4, 0.51), 3);
        assert_eq!(quorum_needed(1, 0.1), 1);
        assert_eq!(quorum_needed(3, 0.34), 2);
    }

    /// The one validation step in front of every shard build
    /// ([`ShardTables::new`]) refuses the same three things with the same
    /// typed error whichever entry point reaches it, and a refused call
    /// leaves every model bitwise as it was.
    #[test]
    fn every_build_entry_point_shares_one_validation_step() {
        use crate::maintenance::{retrain_shards, DriftMonitor, MaintenancePlan};
        use crate::shard::build_sharded;
        use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

        let data = datagen::simple::uniform(40, 2, 3);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 30,
            seed: 5,
        })
        .unwrap();
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 3;
        let build = |plan: ShardPlan, agg: Aggregate, data: &Dataset| {
            build_sharded(data, 1, &plan, &wl.predicate, agg, &wl.queries, &cfg).map(|(s, _)| s)
        };
        let maintenance = MaintenancePlan::new(
            DriftMonitor::new(wl.queries[..10].to_vec(), 0.05).unwrap(),
            cfg.clone(),
        );
        let cluster_of = |sketch: &ShardedSketch| {
            Cluster::new(
                sketch,
                1,
                0,
                RoutePolicy::RoundRobin,
                ClusterOptions::default(),
            )
            .unwrap()
        };
        let flat = wl.queries.concat();
        let bits = |shards: &[&ShardSketch]| -> Vec<u64> {
            let mut scratch = crate::sketch::BatchScratch::default();
            let batch = QueryBatch::new(&flat, 2);
            let per_shard = shards
                .iter()
                .flat_map(|s| s.moments_batch_with(&mut scratch, batch));
            per_shard.map(|m| m.n.to_bits()).collect()
        };
        let sketch_bits = |s: &ShardedSketch| bits(&s.shards().iter().collect::<Vec<_>>());
        let cluster_bits = |c: &Cluster| {
            let replicas = c.groups.iter().flat_map(|g| &g.replicas);
            bits(&replicas.map(|r| &r.sketch).collect::<Vec<_>>())
        };

        // A hash plan that fills every shard of the 40-row table but
        // leaves one dry on its first 6 rows.
        let tiny = data.select_rows(&[0, 1, 2, 3, 4, 5]);
        let hash = (0..u64::MAX)
            .map(|seed| ShardPlan::Hash { shards: 4, seed })
            .find(|p| {
                p.assignment(6).iter().any(Vec::is_empty)
                    && !p.assignment(40).iter().any(Vec::is_empty)
            })
            .unwrap();
        let round_robin = build(ShardPlan::RoundRobin { shards: 2 }, Aggregate::Count, &data);
        let round_robin = round_robin.unwrap();
        let median = ShardedSketch::from_parts(
            round_robin.plan(),
            Aggregate::Median,
            round_robin.shards().to_vec(),
        );
        // A full build under a non-row-stable plan is fine; only a
        // partial one is refused.
        let blocks = build(ShardPlan::Blocks { shards: 2 }, Aggregate::Count, &data).unwrap();

        // (refusal, deployment, table it is rebuilt against, message)
        let cases = [
            (
                "empty shard",
                build(hash, Aggregate::Count, &data).unwrap(),
                &tiny,
                "no rows",
            ),
            ("MEDIAN", median, &data, "not a function of (n, Σ, Σ²)"),
            (
                "partial refresh under Blocks",
                blocks,
                &data,
                "not row-stable",
            ),
        ];
        for (refusal, sketch, table, message) in cases {
            let before = sketch_bits(&sketch);
            let mut results: Vec<(&str, Result<(), ClusterError>)> = Vec::new();
            if refusal != "partial refresh under Blocks" {
                let rebuilt = build(sketch.plan(), sketch.aggregate(), table);
                results.push(("build_sharded", rebuilt.map(|_| ()).map_err(Into::into)));
            }
            let mut retrained = sketch.clone();
            let r = retrain_shards(
                &mut retrained,
                table,
                1,
                &wl.predicate,
                &wl.queries,
                &cfg,
                &[0],
            );
            results.push(("retrain_shards", r.map_err(Into::into)));
            assert_eq!(sketch_bits(&retrained), before, "{refusal}: retrain_shards");
            let mut refreshed = sketch.clone();
            let r =
                maintenance.refresh_sharded(&mut refreshed, table, 1, &wl.predicate, &wl.queries);
            results.push(("refresh_sharded", r.map(|_| ()).map_err(Into::into)));
            assert_eq!(
                sketch_bits(&refreshed),
                before,
                "{refusal}: refresh_sharded"
            );
            for (entry, result) in results {
                assert!(
                    matches!(&result, Err(ClusterError::Sketch(SketchError::BadConfig(m))) if m.contains(message)),
                    "{refusal}: {entry} returned {result:?}"
                );
            }

            // A coarse group to materialize. Only round-robin plans
            // refine, and round-robin leaves a shard empty only when
            // there are fewer rows than shards — which the plan
            // pre-check inside the same step reports; no public path
            // reaches a coarse group under Blocks, so that one is
            // hand-built to show the step itself refuses it.
            let (mut cluster, table, message) = match refusal {
                "empty shard" => {
                    let mut c = cluster_of(&round_robin);
                    c.rebalance(2).unwrap();
                    (c, data.select_rows(&[0, 1, 2]), "every shard needs data")
                }
                "MEDIAN" => {
                    let mut c = cluster_of(&sketch);
                    c.rebalance(2).unwrap();
                    (c, table.clone(), message)
                }
                _ => {
                    let mut c = cluster_of(&sketch);
                    c.groups[0].logical = vec![0, 1];
                    (c, table.clone(), message)
                }
            };
            let cluster_before = cluster_bits(&cluster);
            let r = cluster.materialize_group(0, &table, 1, &wl.predicate, &wl.queries, &cfg);
            assert_eq!(cluster_bits(&cluster), cluster_before, "{refusal}: cluster");
            assert!(
                matches!(&r, Err(ClusterError::Sketch(SketchError::BadConfig(m))) if m.contains(message)),
                "{refusal}: materialize_group returned {r:?}"
            );
        }
    }

    #[test]
    fn cluster_options_validation_is_typed() {
        for quorum in [0.0, -1.0, 1.5, f64::NAN] {
            let opts = ClusterOptions {
                quorum,
                ..ClusterOptions::default()
            };
            assert!(matches!(
                validate_opts(&opts),
                Err(ClusterError::BadTopology(_))
            ));
        }
        assert!(validate_opts(&ClusterOptions::default()).is_ok());
    }
}
