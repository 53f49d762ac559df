//! Replicated shard serving over a simulated cluster, with a
//! deterministic fault-injection harness.
//!
//! [`crate::shard`] answers a batch by scattering to K shard sketches
//! on one box. This module extends that to a *cluster*: every shard
//! group holds N [`Replica`]s behind a pluggable [`RoutePolicy`], a
//! rolling upgrade walks replicas generation-by-generation using the
//! NSKM generation counter from [`crate::persist`], and a round-robin
//! plan can be [rebalanced](Cluster::rebalance) K → K·f *row-stably* —
//! answers stay bitwise identical because each physical model is still
//! evaluated exactly once per group and groups merge in the same order.
//!
//! Correctness under failure is carried by [`FaultPlan`]: a seeded,
//! serializable schedule of replica kills, stale generations, torn
//! manifests, and checksum-corrupt artifacts. Every fault produces a
//! typed outcome — a degraded [`ClusterBatchReport`] (quorum answer
//! with a staleness flag) or a [`ClusterError`] — never a panic, and
//! never a silent blend of generations: one batch is served entirely
//! from one generation.
//!
//! A batch is route → scatter → finish, and the cluster holds no answer
//! cache: a degraded batch's partial answers (uncovered groups fold
//! zero moments into every query) have nowhere to be stored or served
//! from.
//!
//! Determinism contract: with the same cluster state, fault plan, and
//! batch sequence, answers **and the event log** are bitwise identical
//! at any thread count. All routing and fault decisions are made on
//! the coordinator before the parallel scatter; workers only run
//! pre-assigned `(group, replica)` jobs.

use crate::deploy::{DeployKind, DeployStats, Deployment, DeploymentInfo};
use crate::persist::{self, PersistError};
use crate::shard::{
    build_shard_sketch, finish_guarded, splitmix64, ShardPlan, ShardSketch, ShardedSketch,
};
use crate::sketch::{BatchScratch, NeuroSketchConfig};
use crate::SketchError;
use datagen::Dataset;
use query::aggregate::{Aggregate, Moments};
use query::predicate::PredicateFn;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// How the coordinator picks which healthy replica of a group serves a
/// batch. All policies are deterministic functions of cluster state, so
/// a replayed batch sequence routes identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Cycle through eligible replicas per group; each group keeps its
    /// own cursor, advanced once per served batch.
    RoundRobin,
    /// Pick the eligible replica that has served the fewest queries
    /// (ties broken by lowest replica index).
    LeastLoaded,
    /// Prefer the most recently upgraded eligible replica (highest
    /// upgrade sequence number, ties broken by lowest replica index) —
    /// drains traffic onto fresh artifacts during a rolling upgrade.
    GenerationAware,
}

/// Cluster serving knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterOptions {
    /// Worker threads for the cross-group scatter (≥ 1).
    pub threads: usize,
    /// Per-GEMM sub-batch cap, as in [`crate::serve::ServeOptions`].
    pub max_shard: usize,
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
            max_shard: 1024,
            quorum: 1.0,
        }
    }
}

/// A replica's serving state. Only `Healthy` replicas are routable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// In rotation.
    Healthy,
    /// Killed by a [`Fault::Kill`] (process loss); needs
    /// [`Cluster::repair_replica`].
    Killed,
    /// Its artifact failed a checksum during upgrade — the bytes on
    /// its disk are untrustworthy.
    CorruptArtifact,
    /// Its artifact could not be loaded (missing file, decode error).
    LoadFailed,
}

/// One copy of a shard group's sketch, with the bookkeeping the router
/// and the rolling upgrade read.
#[derive(Debug, Clone)]
pub struct Replica {
    sketch: ShardSketch,
    generation: u64,
    health: ReplicaHealth,
    pinned: bool,
    served: u64,
    upgrade_seq: u64,
}

impl Replica {
    /// NSKM generation of the artifact this replica serves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current health.
    pub fn health(&self) -> ReplicaHealth {
        self.health
    }

    /// Whether a fault pinned this replica to its generation (it will
    /// be skipped by rolling upgrades until repaired).
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Total queries this replica has served.
    pub fn served(&self) -> u64 {
        self.served
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

    /// Manifest shard index backing this group, if any.
    pub fn physical(&self) -> Option<usize> {
        self.physical
    }

    /// The replica set.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }
}

/// One injected fault. `group`/`replica` address a replica slot;
/// faults addressing slots that do not exist are ignored (fired but
/// harmless), so a plan generated for one topology replays safely on
/// another.
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
    /// During a rolling upgrade, this replica's refresh silently never
    /// happens: it keeps serving its old generation (pinned) while
    /// peers advance — the "stale generation" production failure.
    StaleGeneration {
        /// Target group index.
        group: usize,
        /// Target replica index within the group.
        replica: usize,
    },
    /// During a rolling upgrade, this replica's manifest rename never
    /// lands (torn at the atomic-rename boundary): it stays loadable at
    /// its old generation, pinned until repaired.
    TornManifest {
        /// Target group index.
        group: usize,
        /// Target replica index within the group.
        replica: usize,
    },
    /// During a rolling upgrade, this replica's new artifact fails its
    /// checksum: the replica is taken out of rotation
    /// ([`ReplicaHealth::CorruptArtifact`]).
    CorruptArtifact {
        /// Target group index.
        group: usize,
        /// Target replica index within the group.
        replica: usize,
    },
}

/// A seeded, serializable, replayable schedule of injected faults.
///
/// Serialize a plan into a regression test and replay it later: the
/// same plan against the same cluster state produces the same typed
/// failure sequence — same events, same answers — at any thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed this plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// The fault schedule. Kills fire by batch counter; upgrade faults
    /// fire when the rolling upgrade reaches their target replica.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Derive `count` faults from `seed` over a `groups × replicas`
    /// topology and a horizon of `batches` serve batches. Pure function
    /// of its arguments (splitmix64 counter stream), so two calls with
    /// equal inputs yield equal plans.
    pub fn generate(
        seed: u64,
        groups: usize,
        replicas: usize,
        batches: u64,
        count: usize,
    ) -> FaultPlan {
        let mut ctr = 0u64;
        let mut next = move || {
            ctr += 1;
            splitmix64(seed.wrapping_add(ctr))
        };
        let faults = (0..count)
            .map(|_| {
                let group = (next() % groups.max(1) as u64) as usize;
                let replica = (next() % replicas.max(1) as u64) as usize;
                match next() % 4 {
                    0 => Fault::Kill {
                        batch: next() % batches.max(1),
                        group,
                        replica,
                    },
                    1 => Fault::StaleGeneration { group, replica },
                    2 => Fault::TornManifest { group, replica },
                    _ => Fault::CorruptArtifact { group, replica },
                }
            })
            .collect();
        FaultPlan { seed, faults }
    }
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
    /// A [`Fault::StaleGeneration`] pinned a replica at its old
    /// generation instead of upgrading it.
    UpgradePinnedStale {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// Generation it is pinned at.
        generation: u64,
    },
    /// A [`Fault::TornManifest`] tore a replica's upgrade at the
    /// rename boundary; it stays at its old generation, pinned.
    UpgradeTorn {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// Generation it remains loadable at.
        generation: u64,
    },
    /// A [`Fault::CorruptArtifact`] failed a replica's upgrade
    /// checksum; the replica left rotation.
    UpgradeCorrupt {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
    },
    /// A replica's artifact could not be loaded (at cluster load or
    /// during an upgrade step).
    ReplicaLoadFailed {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// The typed persistence error, rendered.
        error: String,
    },
    /// A whole replica column's manifest was rejected at
    /// [`Cluster::load`] (unreadable, torn, or disagreeing on
    /// plan/aggregate); every slot in the column is down.
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
    /// (zero replicas, bad quorum, aggregate mismatch, …).
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

/// Every decision [`Cluster::route_batch`] made for one batch, enough
/// to scatter the queries and to assemble the batch report.
struct RouteDecision {
    target: u64,
    latest: u64,
    stale: bool,
    chosen: Vec<Option<usize>>,
    covered: usize,
    failovers: usize,
}

impl RouteDecision {
    fn into_report(self, queries: usize, groups: usize) -> ClusterBatchReport {
        ClusterBatchReport {
            queries,
            generation: self.target,
            latest: self.latest,
            stale: self.stale,
            covered: self.covered,
            groups,
            failovers: self.failovers,
            chosen: self.chosen,
        }
    }
}

/// Outcome of one [`Cluster::rolling_upgrade_step`].
#[derive(Debug, Clone, PartialEq)]
pub enum UpgradeStep {
    /// A replica was swapped to the manifest's generation.
    Upgraded {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// Generation before.
        from: u64,
        /// Generation after.
        to: u64,
    },
    /// A [`Fault::StaleGeneration`] pinned the replica instead.
    PinnedStale {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// Generation it is pinned at.
        generation: u64,
    },
    /// A [`Fault::TornManifest`] tore the upgrade; the replica stays
    /// at its old generation, pinned.
    Torn {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// Generation it remains at.
        generation: u64,
    },
    /// A [`Fault::CorruptArtifact`] corrupted the new artifact; the
    /// replica left rotation.
    Corrupt {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
    },
    /// Loading the new artifact failed with a typed persistence error.
    LoadFailed {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
        /// The typed error, rendered.
        error: String,
    },
    /// Every upgradeable replica is at the manifest's generation.
    Done {
        /// The generation the cluster converged to.
        generation: u64,
    },
}

/// A replicated scatter/gather deployment over shard groups, plus the
/// control plane (rolling upgrades, repair, rebalance) and the fault
/// harness. See the [module docs](crate::cluster) for the determinism
/// contract.
pub struct Cluster {
    plan: ShardPlan,
    aggregate: Aggregate,
    groups: Vec<ShardGroup>,
    policy: RoutePolicy,
    opts: ClusterOptions,
    batches: u64,
    upgrade_seq: u64,
    faults: Vec<Fault>,
    fired: Vec<bool>,
    events: Vec<ClusterEvent>,
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
    /// Stand up a cluster from an in-memory sharded sketch by cloning
    /// each shard `replicas` times, all at `generation`.
    pub fn new(
        sketch: &ShardedSketch,
        replicas: usize,
        generation: u64,
        policy: RoutePolicy,
        opts: ClusterOptions,
    ) -> Result<Cluster, ClusterError> {
        if replicas == 0 {
            return Err(ClusterError::BadTopology(
                "a cluster needs at least one replica per shard group".into(),
            ));
        }
        validate_opts(&opts)?;
        let groups = sketch
            .shards()
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardGroup {
                logical: vec![i],
                physical: Some(i),
                replicas: (0..replicas)
                    .map(|_| Replica {
                        sketch: shard.clone(),
                        generation,
                        health: ReplicaHealth::Healthy,
                        pinned: false,
                        served: 0,
                        upgrade_seq: 0,
                    })
                    .collect(),
                rr_cursor: 0,
            })
            .collect();
        Ok(Cluster {
            plan: sketch.plan(),
            aggregate: sketch.aggregate(),
            groups,
            policy,
            opts,
            batches: 0,
            upgrade_seq: 0,
            faults: Vec::new(),
            fired: Vec::new(),
            events: Vec::new(),
        })
    }

    /// Stand up a cluster from one NSKM manifest per replica column —
    /// the "each replica has its own disk" topology. Columns whose
    /// manifest is unreadable or disagrees with the first readable one
    /// on plan/aggregate are rejected (every slot down, a
    /// [`ClusterEvent::ManifestRejected`] logged); individual shard
    /// loads that fail leave just that slot down. Errors only if no
    /// manifest is readable or no replica at all is healthy.
    pub fn load<P: AsRef<Path>>(
        replica_manifests: &[P],
        policy: RoutePolicy,
        opts: ClusterOptions,
    ) -> Result<Cluster, ClusterError> {
        validate_opts(&opts)?;
        if replica_manifests.is_empty() {
            return Err(ClusterError::BadTopology(
                "a cluster needs at least one replica manifest".into(),
            ));
        }
        let mut events = Vec::new();
        let decoded: Vec<Result<persist::ShardManifest, PersistError>> = replica_manifests
            .iter()
            .map(|p| {
                let raw = std::fs::read(p.as_ref()).map_err(|e| PersistError::Io(e.to_string()))?;
                persist::decode_manifest(bytes::Bytes::from(raw))
            })
            .collect();
        let base = match decoded.iter().find_map(|d| d.as_ref().ok()) {
            Some(m) => m.clone(),
            None => {
                // No readable manifest at all: surface the first error.
                let first = decoded.into_iter().next().expect("non-empty").unwrap_err();
                return Err(ClusterError::Persist(first));
            }
        };
        let mut usable: Vec<bool> = Vec::with_capacity(decoded.len());
        for (r, d) in decoded.iter().enumerate() {
            match d {
                Ok(m) if m.plan == base.plan && m.aggregate == base.aggregate => usable.push(true),
                Ok(m) => {
                    events.push(ClusterEvent::ManifestRejected {
                        replica: r,
                        error: format!(
                            "replica manifest disagrees with the cluster: plan {:?} vs {:?}, \
                             aggregate {} vs {}",
                            m.plan,
                            base.plan,
                            m.aggregate.name(),
                            base.aggregate.name()
                        ),
                    });
                    usable.push(false);
                }
                Err(e) => {
                    events.push(ClusterEvent::ManifestRejected {
                        replica: r,
                        error: e.to_string(),
                    });
                    usable.push(false);
                }
            }
        }
        let shards = base.plan.shards();
        let mut healthy_total = 0usize;
        let groups: Vec<ShardGroup> = (0..shards)
            .map(|g| {
                let replicas = replica_manifests
                    .iter()
                    .enumerate()
                    .map(|(r, path)| {
                        if !usable[r] {
                            return Replica {
                                sketch: ShardSketch::from_models([None, None, None]),
                                generation: 0,
                                health: ReplicaHealth::LoadFailed,
                                pinned: false,
                                served: 0,
                                upgrade_seq: 0,
                            };
                        }
                        match persist::load_shard(path.as_ref(), g) {
                            Ok((sketch, manifest)) => {
                                healthy_total += 1;
                                Replica {
                                    sketch,
                                    generation: manifest.generation,
                                    health: ReplicaHealth::Healthy,
                                    pinned: false,
                                    served: 0,
                                    upgrade_seq: 0,
                                }
                            }
                            Err(e) => {
                                events.push(ClusterEvent::ReplicaLoadFailed {
                                    group: g,
                                    replica: r,
                                    error: e.to_string(),
                                });
                                Replica {
                                    sketch: ShardSketch::from_models([None, None, None]),
                                    generation: 0,
                                    health: ReplicaHealth::LoadFailed,
                                    pinned: false,
                                    served: 0,
                                    upgrade_seq: 0,
                                }
                            }
                        }
                    })
                    .collect();
                ShardGroup {
                    logical: vec![g],
                    physical: Some(g),
                    replicas,
                    rr_cursor: 0,
                }
            })
            .collect();
        if healthy_total == 0 {
            return Err(ClusterError::BadTopology(
                "no replica of any shard group loaded healthy".into(),
            ));
        }
        Ok(Cluster {
            plan: base.plan,
            aggregate: base.aggregate,
            groups,
            policy,
            opts,
            batches: 0,
            upgrade_seq: 0,
            faults: Vec::new(),
            fired: Vec::new(),
            events,
        })
    }

    /// Arm a fault plan. Each fault fires at most once; kills fire by
    /// batch counter, upgrade faults when the rolling upgrade reaches
    /// their target.
    pub fn with_faults(mut self, plan: FaultPlan) -> Cluster {
        self.fired = vec![false; plan.faults.len()];
        self.faults = plan.faults;
        self
    }

    /// The current (possibly refined) shard plan.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The aggregate this cluster answers.
    pub fn aggregate(&self) -> Aggregate {
        self.aggregate
    }

    /// The routing policy.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The serving options.
    pub fn options(&self) -> ClusterOptions {
        self.opts
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

    /// Batches served so far (the kill-fault clock).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    fn quorum_needed(&self) -> usize {
        let groups = self.groups.len();
        ((self.opts.quorum * groups as f64).ceil() as usize).clamp(1, groups.max(1))
    }

    /// Fire pending kill faults whose batch counter has arrived.
    fn fire_kills(&mut self, batch: u64) {
        for (i, fault) in self.faults.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if let Fault::Kill {
                batch: at,
                group,
                replica,
            } = *fault
            {
                if at <= batch {
                    self.fired[i] = true;
                    if let Some(rep) = self
                        .groups
                        .get_mut(group)
                        .and_then(|g| g.replicas.get_mut(replica))
                    {
                        if rep.health == ReplicaHealth::Healthy {
                            rep.health = ReplicaHealth::Killed;
                            self.events.push(ClusterEvent::ReplicaKilled {
                                batch,
                                group,
                                replica,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Pick a replica of `group` eligible at `generation` under the
    /// routing policy. Advances the group's round-robin cursor.
    fn pick(group: &mut ShardGroup, policy: RoutePolicy, generation: u64) -> Option<usize> {
        let eligible: Vec<usize> = group
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.health == ReplicaHealth::Healthy && r.generation == generation)
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        match policy {
            RoutePolicy::RoundRobin => {
                let chosen = eligible[group.rr_cursor % eligible.len()];
                group.rr_cursor = group.rr_cursor.wrapping_add(1);
                Some(chosen)
            }
            RoutePolicy::LeastLoaded => eligible
                .into_iter()
                .min_by_key(|&i| (group.replicas[i].served, i)),
            RoutePolicy::GenerationAware => eligible
                .into_iter()
                .max_by_key(|&i| (group.replicas[i].upgrade_seq, std::cmp::Reverse(i))),
        }
    }

    /// Choose the serving generation and a replica per group for one
    /// batch. Never blends generations: picks the newest generation
    /// with quorum coverage, or fails typed.
    fn select(&mut self, batch: u64) -> Result<(u64, u64, Vec<Option<usize>>), ClusterError> {
        let mut gens: Vec<u64> = self
            .groups
            .iter()
            .flat_map(|g| g.replicas.iter())
            .filter(|r| r.health == ReplicaHealth::Healthy)
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
                .filter(|g| {
                    g.replicas
                        .iter()
                        .any(|r| r.health == ReplicaHealth::Healthy && r.generation == gen)
                })
                .count();
            best_covered = best_covered.max(covered);
            if covered >= needed {
                let policy = self.policy;
                let chosen: Vec<Option<usize>> = self
                    .groups
                    .iter_mut()
                    .enumerate()
                    .map(|(gi, group)| {
                        let pick = Cluster::pick(group, policy, gen);
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

    /// Serve a batch at the moment level: scatter each query to the
    /// chosen replica of every covered group, gather by merging group
    /// moments in group order. Same merge order and finisher as
    /// [`crate::shard::ShardedServer`], so a fully-healthy cluster's
    /// answers are bitwise the single-box answers.
    ///
    /// Degrades typed: a down replica fails over
    /// ([`ClusterEvent::Failover`]), a generation behind the newest
    /// sets [`ClusterBatchReport::stale`], lost coverage below quorum
    /// is [`ClusterError::QuorumLost`]. Never panics on injected
    /// faults; never blends generations within a batch.
    pub fn moments_batch(
        &mut self,
        queries: &[Vec<f64>],
    ) -> Result<(Vec<Moments>, ClusterBatchReport), ClusterError> {
        let route = self.route_batch()?;
        let merged = self.scatter_chosen(&route.chosen, queries);
        let report = route.into_report(queries.len(), self.groups.len());
        Ok((merged, report))
    }

    /// Make every routing decision for one batch — generation
    /// selection, kill firing, failover re-validation, quorum check,
    /// stale event — without touching any query.
    fn route_batch(&mut self) -> Result<RouteDecision, ClusterError> {
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
                let healthy = self.groups[gi].replicas[r].health == ReplicaHealth::Healthy
                    && self.groups[gi].replicas[r].generation == target;
                if !healthy {
                    let repick = Cluster::pick(&mut self.groups[gi], self.policy, target);
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
        let covered = chosen.iter().filter(|c| c.is_some()).count();
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
        Ok(RouteDecision {
            target,
            latest,
            stale,
            chosen,
            covered,
            failovers,
        })
    }

    /// Fan a batch out over pre-assigned (group, replica) jobs and
    /// merge per-group moments in group order. All decisions were made
    /// by [`Cluster::route_batch`]; this is pure compute —
    /// deterministic at any thread count.
    fn scatter_chosen(&mut self, chosen: &[Option<usize>], queries: &[Vec<f64>]) -> Vec<Moments> {
        let jobs: Vec<(usize, usize)> = chosen
            .iter()
            .enumerate()
            .filter_map(|(g, r)| r.map(|r| (g, r)))
            .collect();
        let merged = self.gather(&jobs, queries);
        for &(g, r) in &jobs {
            self.groups[g].replicas[r].served += queries.len() as u64;
        }
        merged
    }

    /// Serve a batch of final answers: [`Cluster::moments_batch`]
    /// finished per query with the shared guarded finisher, so a
    /// healthy cluster is bitwise a [`crate::shard::ShardedServer`].
    /// The cluster holds no answer cache: a degraded batch's partial
    /// answers have nowhere to be stored or served from.
    pub fn answer_batch(
        &mut self,
        queries: &[Vec<f64>],
    ) -> Result<(Vec<f64>, ClusterBatchReport), ClusterError> {
        let (moments, report) = self.moments_batch(queries)?;
        let agg = self.aggregate;
        let answers = moments
            .into_iter()
            .map(|m| finish_guarded(agg, m))
            .collect();
        Ok((answers, report))
    }

    /// Find the first unfired upgrade fault targeting `(group,
    /// replica)` and mark it fired.
    fn take_upgrade_fault(&mut self, group: usize, replica: usize) -> Option<Fault> {
        for (i, fault) in self.faults.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            let hit = matches!(
                *fault,
                Fault::StaleGeneration { group: g, replica: r }
                | Fault::TornManifest { group: g, replica: r }
                | Fault::CorruptArtifact { group: g, replica: r }
                    if g == group && r == replica
            );
            if hit {
                self.fired[i] = true;
                return Some(self.faults[i]);
            }
        }
        None
    }

    /// Advance the rolling upgrade by one replica: find the first
    /// healthy, unpinned replica behind the manifest's generation (in
    /// group, then replica order) and swap its artifact in. Armed
    /// upgrade faults intercept the swap with their typed outcome.
    /// Returns [`UpgradeStep::Done`] when no replica is upgradeable.
    pub fn rolling_upgrade_step(
        &mut self,
        manifest_path: impl AsRef<Path>,
    ) -> Result<UpgradeStep, ClusterError> {
        let manifest_path = manifest_path.as_ref();
        let raw = std::fs::read(manifest_path).map_err(|e| PersistError::Io(e.to_string()))?;
        let manifest = persist::decode_manifest(bytes::Bytes::from(raw))?;
        if manifest.aggregate != self.aggregate {
            return Err(ClusterError::BadTopology(format!(
                "manifest aggregate {} does not match cluster aggregate {}",
                manifest.aggregate.name(),
                self.aggregate.name()
            )));
        }
        let target = manifest.generation;
        let candidate = self.groups.iter().enumerate().find_map(|(gi, g)| {
            g.physical.and_then(|phys| {
                g.replicas
                    .iter()
                    .position(|r| {
                        r.health == ReplicaHealth::Healthy && !r.pinned && r.generation < target
                    })
                    .map(|ri| (gi, ri, phys))
            })
        });
        let Some((gi, ri, phys)) = candidate else {
            return Ok(UpgradeStep::Done { generation: target });
        };
        if phys >= manifest.shards.len() {
            return Err(ClusterError::BadTopology(format!(
                "group {gi} is backed by manifest shard {phys}, but the manifest has only {} shards",
                manifest.shards.len()
            )));
        }
        match self.take_upgrade_fault(gi, ri) {
            Some(Fault::StaleGeneration { .. }) => {
                let gen = self.groups[gi].replicas[ri].generation;
                self.groups[gi].replicas[ri].pinned = true;
                self.events.push(ClusterEvent::UpgradePinnedStale {
                    group: gi,
                    replica: ri,
                    generation: gen,
                });
                Ok(UpgradeStep::PinnedStale {
                    group: gi,
                    replica: ri,
                    generation: gen,
                })
            }
            Some(Fault::TornManifest { .. }) => {
                let gen = self.groups[gi].replicas[ri].generation;
                self.groups[gi].replicas[ri].pinned = true;
                self.events.push(ClusterEvent::UpgradeTorn {
                    group: gi,
                    replica: ri,
                    generation: gen,
                });
                Ok(UpgradeStep::Torn {
                    group: gi,
                    replica: ri,
                    generation: gen,
                })
            }
            Some(Fault::CorruptArtifact { .. }) => {
                self.groups[gi].replicas[ri].health = ReplicaHealth::CorruptArtifact;
                self.events.push(ClusterEvent::UpgradeCorrupt {
                    group: gi,
                    replica: ri,
                });
                Ok(UpgradeStep::Corrupt {
                    group: gi,
                    replica: ri,
                })
            }
            _ => match persist::load_shard(manifest_path, phys) {
                Ok((sketch, m)) => {
                    let from = self.groups[gi].replicas[ri].generation;
                    self.upgrade_seq += 1;
                    let rep = &mut self.groups[gi].replicas[ri];
                    rep.sketch = sketch;
                    rep.generation = m.generation;
                    rep.upgrade_seq = self.upgrade_seq;
                    self.events.push(ClusterEvent::UpgradeApplied {
                        group: gi,
                        replica: ri,
                        from,
                        to: m.generation,
                    });
                    Ok(UpgradeStep::Upgraded {
                        group: gi,
                        replica: ri,
                        from,
                        to: m.generation,
                    })
                }
                Err(e) => {
                    self.groups[gi].replicas[ri].health = ReplicaHealth::LoadFailed;
                    let error = e.to_string();
                    self.events.push(ClusterEvent::ReplicaLoadFailed {
                        group: gi,
                        replica: ri,
                        error: error.clone(),
                    });
                    Ok(UpgradeStep::LoadFailed {
                        group: gi,
                        replica: ri,
                        error,
                    })
                }
            },
        }
    }

    /// Run [`Cluster::rolling_upgrade_step`] to completion. Returns
    /// the step log ending in [`UpgradeStep::Done`]. Faulted replicas
    /// stay behind or out of rotation — the roll completes around
    /// them; quorum-checking their absence is the serving path's job.
    pub fn rolling_upgrade(
        &mut self,
        manifest_path: impl AsRef<Path>,
    ) -> Result<Vec<UpgradeStep>, ClusterError> {
        let manifest_path = manifest_path.as_ref();
        let cap = self.groups.iter().map(|g| g.replicas.len()).sum::<usize>() + 1;
        let mut steps = Vec::new();
        for _ in 0..cap {
            let step = self.rolling_upgrade_step(manifest_path)?;
            let done = matches!(step, UpgradeStep::Done { .. });
            steps.push(step);
            if done {
                return Ok(steps);
            }
        }
        Err(ClusterError::BadTopology(
            "rolling upgrade did not converge (a replica re-entered the upgradeable set \
             every step)"
                .into(),
        ))
    }

    /// Bring a downed or pinned replica back: reload its group's shard
    /// from `manifest_path`, clear pin and health, and return the
    /// generation it now serves.
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
        let (sketch, m) = persist::load_shard(manifest_path.as_ref(), phys)?;
        self.upgrade_seq += 1;
        let rep = &mut self.groups[group].replicas[replica];
        rep.sketch = sketch;
        rep.generation = m.generation;
        rep.health = ReplicaHealth::Healthy;
        rep.pinned = false;
        rep.upgrade_seq = self.upgrade_seq;
        self.events.push(ClusterEvent::ReplicaRepaired {
            group,
            replica,
            generation: m.generation,
        });
        Ok(m.generation)
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
    /// logical shard, building each fine shard's models from the data.
    /// Seed derivation is positional (new-plan shard index), so a
    /// fully materialized K→2K cluster is bitwise a fresh 2K build.
    /// New groups inherit the parent's replica bookkeeping
    /// (generation, health, pin, served, cursor) but have no
    /// persistence backing until re-saved.
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
        let kinds = self.aggregate.required_moments().ok_or_else(|| {
            ClusterError::BadTopology(format!(
                "aggregate {} is not moment-composable",
                self.aggregate.name()
            ))
        })?;
        self.plan.validate(data.rows())?;
        let assignment = self.plan.assignment(data.rows());
        let logical = g.logical.clone();
        let tables: Vec<(usize, Dataset)> = logical
            .iter()
            .map(|&l| {
                let rows = assignment.get(l).map(Vec::as_slice).unwrap_or(&[]);
                if rows.is_empty() {
                    return Err(ClusterError::Sketch(SketchError::BadConfig(format!(
                        "logical shard {l} owns no rows; materialization would build an \
                         untrained model"
                    ))));
                }
                Ok((l, data.select_rows(rows)))
            })
            .collect::<Result<_, _>>()?;
        let built: Vec<Result<(usize, ShardSketch), SketchError>> = par::par_map_init(
            &tables,
            self.opts.threads.max(1),
            || (),
            |_, _, (l, table)| {
                build_shard_sketch(*l, table, measure, predicate, kinds, train_queries, cfg)
                    .map(|(sketch, _, _)| (*l, sketch))
            },
        );
        let mut fine: Vec<(usize, ShardSketch)> = Vec::with_capacity(built.len());
        for r in built {
            fine.push(r?);
        }
        let parent = self.groups.remove(group);
        for (l, sketch) in fine {
            let replicas = parent
                .replicas
                .iter()
                .map(|r| Replica {
                    sketch: sketch.clone(),
                    generation: r.generation,
                    health: r.health,
                    pinned: r.pinned,
                    served: r.served,
                    upgrade_seq: r.upgrade_seq,
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
        if self.groups.iter().all(|g| replica < g.replicas.len()) && !self.groups.is_empty() {
            Some(ClusterReplicaView {
                cluster: self,
                replica,
            })
        } else {
            None
        }
    }

    /// Evaluate pre-assigned `(group, replica)` jobs over a query batch
    /// on the worker pool and merge each query's moments in job order
    /// (ascending group), so the merge order is fixed before any thread
    /// runs.
    fn gather(&self, jobs: &[(usize, usize)], queries: &[Vec<f64>]) -> Vec<Moments> {
        if queries.is_empty() {
            return Vec::new();
        }
        let max_chunk = self.opts.max_shard.max(1);
        let per_job = par::par_map_init(
            jobs,
            self.opts.threads.max(1),
            BatchScratch::default,
            |scratch, _, &(g, r)| {
                let rep = &self.groups[g].replicas[r];
                let mut moments = Vec::with_capacity(queries.len());
                for chunk in queries.chunks(max_chunk) {
                    moments.extend(rep.sketch.moments_batch_with(scratch, chunk));
                }
                moments
            },
        );
        (0..queries.len())
            .map(|i| {
                per_job
                    .iter()
                    .map(|job| job[i])
                    .fold(Moments::ZERO, Moments::merge)
            })
            .collect()
    }
}

/// Read-only [`Deployment`] over one replica column of a [`Cluster`].
/// See [`Cluster::replica_view`].
pub struct ClusterReplicaView<'a> {
    cluster: &'a Cluster,
    replica: usize,
}

impl ClusterReplicaView<'_> {
    fn column(&self) -> impl Iterator<Item = &Replica> {
        self.cluster
            .groups
            .iter()
            .map(move |g| &g.replicas[self.replica])
    }

    fn scatter(&self, queries: &[Vec<f64>]) -> Vec<Moments> {
        let jobs: Vec<(usize, usize)> = (0..self.cluster.groups.len())
            .map(|g| (g, self.replica))
            .collect();
        self.cluster.gather(&jobs, queries)
    }
}

impl Deployment for ClusterReplicaView<'_> {
    fn answer_batch(&self, queries: &[Vec<f64>]) -> (Vec<f64>, DeployStats) {
        let agg = self.cluster.aggregate;
        let answers = self
            .scatter(queries)
            .into_iter()
            .map(|m| finish_guarded(agg, m))
            .collect();
        let max_chunk = self.cluster.opts.max_shard.max(1);
        let total_kinds: usize = self.column().map(|r| r.sketch.kinds().count()).sum();
        let stats = DeployStats {
            queries: queries.len(),
            sketch: queries.len(),
            shard_count: self.cluster.groups.len(),
            model_batches: total_kinds * queries.len().div_ceil(max_chunk),
            ..DeployStats::default()
        };
        (answers, stats)
    }

    fn moments_batch(&self, queries: &[Vec<f64>]) -> Option<Vec<Moments>> {
        Some(self.scatter(queries))
    }

    fn describe(&self) -> DeploymentInfo {
        let mut gens = self.column().map(|r| r.generation);
        let first = gens.next();
        let generation = match first {
            Some(g) if gens.all(|other| other == g) => Some(g),
            _ => None,
        };
        DeploymentInfo {
            kind: DeployKind::Replicated,
            units: self.cluster.groups.len(),
            param_count: self.column().map(|r| r.sketch.param_count()).sum(),
            generation,
        }
    }

    fn storage_bytes(&self) -> usize {
        self.column().map(|r| r.sketch.artifact_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_generation_is_deterministic_and_serde_roundtrips() {
        let a = FaultPlan::generate(42, 4, 3, 16, 8);
        let b = FaultPlan::generate(42, 4, 3, 16, 8);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 4, 3, 16, 8);
        assert_ne!(a, c, "different seeds should give different plans");
        assert_eq!(a.faults.len(), 8);
        for f in &a.faults {
            match *f {
                Fault::Kill {
                    batch,
                    group,
                    replica,
                } => {
                    assert!(batch < 16 && group < 4 && replica < 3);
                }
                Fault::StaleGeneration { group, replica }
                | Fault::TornManifest { group, replica }
                | Fault::CorruptArtifact { group, replica } => {
                    assert!(group < 4 && replica < 3);
                }
            }
        }
        let json = serde_json::to_string(&a).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn quorum_needed_math() {
        fn needed(groups: usize, quorum: f64) -> usize {
            ((quorum * groups as f64).ceil() as usize).clamp(1, groups.max(1))
        }
        assert_eq!(needed(4, 1.0), 4);
        assert_eq!(needed(4, 0.5), 2);
        assert_eq!(needed(4, 0.51), 3);
        assert_eq!(needed(1, 0.1), 1);
        assert_eq!(needed(3, 0.34), 2);
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
