//! # neurosketch — learned range-aggregate query answering
//!
//! Rust implementation of **NeuroSketch** (Zeighami, Shahabi, Sharan;
//! SIGMOD 2023): answer range aggregate queries (RAQs) with a forward pass
//! of a small neural network instead of touching the data.
//!
//! The pipeline (paper Fig. 4):
//!
//! 1. sample a training workload and label it with the exact
//!    [`query::QueryEngine`],
//! 2. partition the query space with a median-split kd-tree
//!    ([`spatial::KdTree`], Alg. 2),
//! 3. merge leaves that are *easy* — low [`aqc`](mod@aqc) (Average Query function
//!    Change, the practical proxy for the LDQ complexity measure of the
//!    paper's DQD bound) — until `s` partitions remain (Alg. 3),
//! 4. train an independent MLP per partition (Alg. 4),
//! 5. answer queries by kd-tree descent + one forward pass (Alg. 5).
//!
//! The theory side of the paper is implemented too: [`ldq`] gives
//! closed-form LDQ constants for the distributions of Examples 3.2/3.3 and
//! [`dqd`] evaluates the DQD bound (Theorems 3.1/3.4/3.5, Lemma 3.6).
//!
//! ```
//! use datagen::simple::uniform;
//! use query::{Aggregate, QueryEngine, Workload, WorkloadConfig, ActiveMode};
//! use query::workload::RangeMode;
//! use neurosketch::{NeuroSketch, NeuroSketchConfig};
//!
//! let data = uniform(2000, 2, 0);
//! let engine = QueryEngine::new(&data, 1);
//! let wl = Workload::generate(&WorkloadConfig {
//!     dims: 2,
//!     active: ActiveMode::Fixed(vec![0]),
//!     range: RangeMode::Uniform,
//!     count: 400,
//!     seed: 1,
//! }).unwrap();
//! let cfg = NeuroSketchConfig::small();
//! let (sketch, _report) =
//!     NeuroSketch::build(&engine, &wl.predicate, Aggregate::Count, &wl.queries, &cfg).unwrap();
//! let approx = sketch.answer(&wl.queries[0]);
//! let exact = engine.answer(&wl.predicate, Aggregate::Count, &wl.queries[0]);
//! assert!((approx - exact).abs() / 2000.0 < 0.2);
//! ```

#![deny(missing_docs)]

pub mod aqc;
pub mod arch_search;
pub mod cache;
pub mod cluster;
pub mod deploy;
pub mod dqd;
pub mod ldq;
pub mod maintenance;
pub mod net;
pub mod persist;
pub mod router;
pub mod serve;
pub mod shard;
pub mod sketch;

pub use aqc::{aqc, normalized_aqc_std};
pub use cache::{AnswerCache, CacheStats, CachedDeployment};
pub use cluster::{
    Cluster, ClusterBatchReport, ClusterError, ClusterEvent, ClusterOptions, ClusterReplicaView,
    RoutePolicy,
};
pub use deploy::{DeployKind, DeployStats, Deployment, DeploymentInfo, LiveDeployment};
pub use maintenance::{DriftMonitor, DriftReport, MaintenancePlan, MaintenanceReport};
pub use net::{
    Frame, NetAnswer, NetClient, NetError, NetOptions, NetResponse, NetServer, NetStats,
    RejectCode, ServerInfo,
};
pub use persist::{Artifact, PersistError};
pub use serve::{ServeOptions, SketchServer};
pub use shard::{build_sharded, ShardPlan, ShardedServer, ShardedSketch};
pub use sketch::{BatchScratch, BuildReport, NeuroSketch, NeuroSketchConfig};

/// Errors produced while building or using a NeuroSketch.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchError {
    /// The training workload was empty or inconsistent.
    BadWorkload(String),
    /// Invalid hyperparameter combination.
    BadConfig(String),
    /// Query vector does not match the sketch's input dimensionality.
    BadQueryDim {
        /// Dimensionality the sketch was trained for.
        expected: usize,
        /// Dimensionality of the offending query vector.
        got: usize,
    },
    /// Drift monitoring was configured with an empty probe workload —
    /// there is nothing to test the deployment against.
    EmptyProbe,
    /// Drift monitoring was configured with a staleness threshold that
    /// can never fire meaningfully (non-positive or NaN).
    BadThreshold {
        /// The offending threshold value.
        got: f64,
    },
    /// A maintenance operation addressed a refreshable unit — a kd-tree
    /// partition (monolithic) or a data shard (sharded) — that the
    /// deployment does not have.
    NoSuchUnit {
        /// The offending unit index.
        unit: usize,
        /// Number of units the deployment actually has.
        units: usize,
    },
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::BadWorkload(s) => write!(f, "bad workload: {s}"),
            SketchError::BadConfig(s) => write!(f, "bad config: {s}"),
            SketchError::BadQueryDim { expected, got } => {
                write!(f, "query vector length {got}, sketch expects {expected}")
            }
            SketchError::EmptyProbe => write!(f, "probe workload must be nonempty"),
            SketchError::BadThreshold { got } => {
                write!(f, "staleness threshold must be positive, got {got}")
            }
            SketchError::NoSuchUnit { unit, units } => {
                write!(f, "no refreshable unit {unit}: deployment has {units}")
            }
        }
    }
}

impl std::error::Error for SketchError {}
