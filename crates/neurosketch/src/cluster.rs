//! Replicated shard serving over a simulated cluster.
//!
//! [`crate::shard`] answers a batch by scattering to K shard sketches
//! on one box. This module extends that to a *cluster*: every shard
//! group holds N [`Replica`]s, routed round-robin, a rolling upgrade
//! walks replicas generation-by-generation using the NSKM generation
//! counter from [`crate::persist`], each replica reading its own
//! column's manifest. Group `g` serves manifest shard `g`. Re-sharding
//! to K′ shards is a persisted operation: build and save the K′
//! deployment, publish it into every replica column, and
//! [`Cluster::load`] the columns; a running cluster refuses a manifest
//! of another plan.
//!
//! Failures are real disk states — a replica column that missed a
//! publish, a checksum-corrupt or missing artifact, an unreadable
//! manifest — plus replica kills, a control-plane call
//! ([`Cluster::kill_replica`]) that takes effect before the next batch
//! is routed. Every failure produces a typed outcome — a degraded
//! [`ClusterBatchReport`] (quorum answer with a staleness flag), a
//! [`ClusterError`], or for a change to the cluster itself a logged
//! [`ClusterEvent`] — never a panic, and never a silent blend of
//! generations: one batch is served entirely from one generation.
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
//! Determinism contract: with the same cluster state and the same
//! sequence of batches and control-plane calls, answers, reports
//! **and the event log** are bitwise identical at any thread count.
//! Every routing decision is made on the coordinator before the
//! parallel scatter; workers only evaluate the sketches they were
//! handed, and the merge order is group order.

use crate::deploy::{DeployKind, DeployStats, Deployment, DeploymentInfo, QueryBatch};
use crate::persist::{self, PersistError, ShardManifest};
use crate::shard::{finish_guarded, scatter_gather, ShardPlan, ShardSketch, ShardedSketch};
use crate::SketchError;
use query::aggregate::{Aggregate, Moments};
use std::path::Path;

/// How the coordinator picks which up replica of a group serves a
/// batch: a deterministic function of cluster state, so a replayed
/// batch sequence routes identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cycle through eligible replicas per group; each group keeps its
    /// own cursor, advanced once per pick.
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

/// A shard group: group `g` holds shard `g` of the plan, and its
/// replica set.
#[derive(Debug, Clone)]
pub struct ShardGroup {
    replicas: Vec<Replica>,
    rr_cursor: usize,
}

impl ShardGroup {
    /// The replica set.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }
}

/// A change to the cluster's replicas or directories — what a batch
/// was served from is its [`ClusterBatchReport`]'s, not an event.
/// Events are appended in deterministic order; [`Cluster::take_events`]
/// drains them for assertions.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterEvent {
    /// [`Cluster::kill_replica`] took an up replica out of rotation.
    ReplicaKilled {
        /// Group index.
        group: usize,
        /// Replica index.
        replica: usize,
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
    /// plan, …).
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

/// How one batch was served: the one account of its generation,
/// staleness and coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBatchReport {
    /// Generation every contributing replica served (never blended).
    pub generation: u64,
    /// Newest generation present on any up replica.
    pub latest: u64,
    /// Replica chosen per group, in group order (`None` = uncovered
    /// this batch, contributing nothing to the merge).
    pub chosen: Vec<Option<usize>>,
}

impl ClusterBatchReport {
    /// Shard groups that contributed to the merge.
    pub fn covered(&self) -> usize {
        self.chosen.iter().flatten().count()
    }

    /// The batch was served behind the newest generation.
    pub fn stale(&self) -> bool {
        self.generation < self.latest
    }
}

/// A replicated scatter/gather deployment over shard groups, plus the
/// control plane (kills, rolling upgrades, repair). See the
/// [module docs](crate::cluster) for the determinism contract.
pub struct Cluster {
    plan: ShardPlan,
    aggregate: Aggregate,
    groups: Vec<ShardGroup>,
    opts: ClusterOptions,
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
    /// replicas `replica_sets[i]` and `events` logged.
    fn assemble(
        plan: ShardPlan,
        aggregate: Aggregate,
        replica_sets: Vec<Vec<Replica>>,
        opts: ClusterOptions,
        events: Vec<ClusterEvent>,
    ) -> Cluster {
        let groups = replica_sets
            .into_iter()
            .map(|replicas| ShardGroup {
                replicas,
                rr_cursor: 0,
            })
            .collect();
        Cluster {
            plan,
            aggregate,
            groups,
            opts,
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

    /// The shard plan.
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

    /// Route one batch: the newest generation whose up replicas cover
    /// a quorum of groups, and at it one pick per group (`None` where
    /// none serves it) — or [`ClusterError::QuorumLost`]. Touches no
    /// query, so what is left is pure compute over the report's
    /// `chosen` replicas, deterministic at any thread count. Never
    /// blends generations.
    fn route(&mut self) -> Result<ClusterBatchReport, ClusterError> {
        let replicas = self.groups.iter().flat_map(|g| &g.replicas);
        let mut gens: Vec<u64> = replicas.filter(|r| r.up).map(|r| r.generation).collect();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        gens.dedup();
        let coverage = |gen: u64| {
            let serves = |g: &&ShardGroup| g.replicas.iter().any(|r| r.serves(gen));
            self.groups.iter().filter(serves).count()
        };
        let needed = self.quorum_needed();
        let Some(&generation) = gens.iter().find(|&&gen| coverage(gen) >= needed) else {
            return Err(ClusterError::QuorumLost {
                covered: gens.iter().map(|&gen| coverage(gen)).max().unwrap_or(0),
                needed,
                groups: self.groups.len(),
            });
        };
        let groups = self.groups.iter_mut();
        let chosen = groups.map(|g| Cluster::pick(g, generation)).collect();
        Ok(ClusterBatchReport {
            generation,
            latest: gens[0],
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
    /// Degrades typed: a down replica is routed around, a generation
    /// behind the newest is [`ClusterBatchReport::stale`], lost coverage
    /// below quorum is [`ClusterError::QuorumLost`]. Never panics on a
    /// failure; never blends generations within a batch. The cluster
    /// holds no answer cache: a degraded batch's partial answers have
    /// nowhere to be stored or served from.
    pub fn answer_batch(
        &mut self,
        queries: &[Vec<f64>],
    ) -> Result<(Vec<f64>, ClusterBatchReport), ClusterError> {
        let report = self.route()?;
        let (answers, _) = self.view(report.chosen.clone()).answer_batch(queries);
        Ok((answers, report))
    }

    /// Read the manifest at `manifest_path` once, refusing one of
    /// another aggregate or plan: the value every control-plane call
    /// resolves generation and shards against, whatever lands on disk
    /// meanwhile.
    fn read_own_manifest(&self, manifest_path: &Path) -> Result<ShardManifest, ClusterError> {
        let manifest = persist::read_manifest(manifest_path)?;
        check_manifest(&manifest, self.plan, self.aggregate)?;
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
    /// — a slice of another length than the replica columns, a column
    /// manifest of another aggregate or plan (a re-sharded deployment
    /// is [`Cluster::load`]ed, not rolled) — or on an unreadable column
    /// manifest's [`ClusterError::Persist`].
    pub fn rolling_upgrade_step<P: AsRef<Path>>(
        &mut self,
        replica_manifests: &[P],
    ) -> Result<Option<ClusterEvent>, ClusterError> {
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
            Some((gi, ri))
        });
        let Some((group, replica)) = candidate else {
            return Ok(None);
        };
        let (manifest, path) = (&manifests[replica], replica_manifests[replica].as_ref());
        let rep = &mut self.groups[group].replicas[replica];
        let event = match persist::load_shard(manifest, path, group) {
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

    /// Group `group`'s replica `replica`, or [`ClusterError::BadTopology`]
    /// if there is no such slot.
    fn replica_mut(&mut self, group: usize, replica: usize) -> Result<&mut Replica, ClusterError> {
        let slot = self.groups.get_mut(group);
        let slot = slot.and_then(|g| g.replicas.get_mut(replica));
        slot.ok_or_else(|| {
            ClusterError::BadTopology(format!("group {group} has no replica {replica}"))
        })
    }

    /// Take a replica out of rotation: every batch routed after the call
    /// goes around it, until [`Cluster::repair_replica`]. Killing a
    /// replica already down changes and logs nothing. A group or
    /// replica that does not exist is [`ClusterError::BadTopology`], and
    /// changes nothing.
    pub fn kill_replica(&mut self, group: usize, replica: usize) -> Result<(), ClusterError> {
        let rep = self.replica_mut(group, replica)?;
        if std::mem::replace(&mut rep.up, false) {
            self.events
                .push(ClusterEvent::ReplicaKilled { group, replica });
        }
        Ok(())
    }

    /// Bring a downed or lagging replica back: reload its group's shard
    /// from `manifest_path`, put it back in rotation, and
    /// return the generation it now serves. A group or replica that
    /// does not exist, or a manifest of another aggregate or plan, is
    /// [`ClusterError::BadTopology`], and changes nothing.
    pub fn repair_replica(
        &mut self,
        group: usize,
        replica: usize,
        manifest_path: impl AsRef<Path>,
    ) -> Result<u64, ClusterError> {
        self.replica_mut(group, replica)?;
        let manifest_path = manifest_path.as_ref();
        let manifest = self.read_own_manifest(manifest_path)?;
        let sketch = persist::load_shard(&manifest, manifest_path, group)?;
        let generation = manifest.generation;
        self.groups[group].replicas[replica] = Replica::new(sketch, generation, true);
        self.events.push(ClusterEvent::ReplicaRepaired {
            group,
            replica,
            generation,
        });
        Ok(generation)
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
/// snapshots). A router with cursors and a per-batch serving
/// generation is not, so what a routing decision *selects* is in the
/// trait and the router stays a `&mut self` control plane.
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
    /// ([`ShardTables::new`]) refuses the same things with the same typed
    /// error whichever entry point reaches it, and a refused call leaves
    /// every model bitwise as it was.
    #[test]
    fn every_build_entry_point_shares_one_validation_step() {
        use crate::maintenance::{retrain_shards, DriftMonitor, MaintenancePlan};
        use crate::shard::build_sharded;
        use datagen::Dataset;
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
        let mut cfg = crate::sketch::NeuroSketchConfig::small();
        cfg.train.epochs = 3;
        let build = |plan: ShardPlan, agg: Aggregate, data: &Dataset| {
            build_sharded(data, 1, &plan, &wl.predicate, agg, &wl.queries, &cfg).map(|(s, _)| s)
        };
        let maintenance = MaintenancePlan::new(
            DriftMonitor::new(wl.queries[..10].to_vec(), 0.05).unwrap(),
            cfg.clone(),
        );
        let flat = wl.queries.concat();
        let sketch_bits = |s: &ShardedSketch| -> Vec<u64> {
            let mut scratch = crate::sketch::BatchScratch::default();
            let batch = QueryBatch::new(&flat, 2);
            let per_shard =
                (s.shards().iter()).flat_map(|s| s.moments_batch_with(&mut scratch, batch));
            per_shard.map(|m| m.n.to_bits()).collect()
        };

        let round_robin = build(ShardPlan::RoundRobin { shards: 2 }, Aggregate::Count, &data);
        let round_robin = round_robin.unwrap();
        let median = ShardedSketch::from_parts(
            round_robin.plan(),
            Aggregate::Median,
            round_robin.shards().to_vec(),
        );
        // (refusal, deployment, table it is rebuilt against, message)
        let cases = [
            (
                "empty shard",
                round_robin.clone(),
                data.select_rows(&[0]),
                "every shard needs data",
            ),
            (
                "MEDIAN",
                median,
                data.clone(),
                "not a function of (n, Σ, Σ²)",
            ),
        ];
        for (refusal, sketch, table, message) in cases {
            let before = sketch_bits(&sketch);
            let mut results: Vec<(&str, Result<(), ClusterError>)> = Vec::new();
            let rebuilt = build(sketch.plan(), sketch.aggregate(), &table);
            results.push(("build_sharded", rebuilt.map(|_| ()).map_err(Into::into)));
            let mut retrained = sketch.clone();
            let r = retrain_shards(
                &mut retrained,
                &table,
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
                maintenance.refresh_sharded(&mut refreshed, &table, 1, &wl.predicate, &wl.queries);
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
