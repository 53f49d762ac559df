//! Shared by the wire-protocol test targets (`mod common;`).

use neurosketch::deploy::{DeployKind, DeployStats, DeploymentInfo, QueryBatch};
use neurosketch::Deployment;

/// A deployment of any dimensionality with answers a test can predict:
/// the sum of the query's coordinates. One `Vec` per batch, nothing per
/// query.
pub struct SumDeployment;

impl Deployment for SumDeployment {
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        let answers = batch.rows().map(|q| q.iter().sum()).collect();
        (answers, DeployStats::default())
    }

    fn moments_flat(&self, _: QueryBatch<'_>) -> Option<Vec<query::aggregate::Moments>> {
        None
    }

    fn describe(&self) -> DeploymentInfo {
        DeploymentInfo {
            kind: DeployKind::Monolithic,
            units: 1,
            param_count: 0,
            generation: None,
        }
    }
}
