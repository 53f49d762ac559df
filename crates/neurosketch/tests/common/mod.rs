//! Shared by the wire-protocol test targets (`mod common;`).

use neurosketch::deploy::{DeployKind, DeployStats, DeploymentInfo};
use neurosketch::Deployment;

/// A deployment of any dimensionality with answers a test can predict:
/// the sum of the query's coordinates. One `Vec` per batch, nothing per
/// query.
pub struct SumDeployment;

impl Deployment for SumDeployment {
    fn answer_batch(&self, queries: &[Vec<f64>]) -> (Vec<f64>, DeployStats) {
        let answers = queries.iter().map(|q| q.iter().sum()).collect();
        (answers, DeployStats::default())
    }

    fn moments_batch(&self, _: &[Vec<f64>]) -> Option<Vec<query::aggregate::Moments>> {
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

    fn storage_bytes(&self) -> usize {
        0
    }
}
