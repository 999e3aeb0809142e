//! Behavioural models of the managed systems.
//!
//! The paper evaluates Acto on operators managing nine real cloud systems.
//! Acto's oracles observe those systems only through state objects (pod
//! phases, runtime status), so the reproduction substitutes each system
//! with a deterministic behavioural model that:
//!
//! 1. computes system-level **health** (quorum, primary election, component
//!    completeness) from the pods and configuration the operator created;
//! 2. injects **semantic failures** the real systems exhibit — e.g. TiDB
//!    replicas crash-looping when binlog is enabled without a pump cluster,
//!    or MongoDB going down on an invalid `featureCompatibilityVersion` —
//!    by marking pods as crash-looping in the cluster.
//!
//! Every model implements [`SystemModel`] and reads the cluster through a
//! [`SystemView`], which also carries the conventions operators follow
//! (instance-labelled pods, an `{instance}-config` config map).
//!
//! A model ticks once per simulated second while the operator converges,
//! so the view copies nothing it hands out for reading. Each pod is a
//! [`PodView`]: a shared handle on the stored pod, read through accessors
//! (`name()`, `ready()`, `phase()`, `labels()`, ...) that borrow from it.
//! The config map is borrowed in place ([`SystemView::config_data`]); only
//! [`SystemView::config_value`] clones, and only the one entry it returns.

pub mod cassandra;
pub mod cockroach;
pub mod knative;
pub mod mongodb;
pub mod rabbitmq;
pub mod redis;
pub mod testkit;
pub mod tidb;
pub mod view;
pub mod xtradb;
pub mod zookeeper;

pub use view::{Health, PodView, SystemModel, SystemView};

/// Instantiates the model for a managed-system name, as used by the
/// operator registry.
///
/// # Panics
///
/// Panics on an unknown system name; the set of systems is closed.
pub fn model_for(system: &str) -> Box<dyn SystemModel> {
    match system {
        "zookeeper" => Box::new(zookeeper::ZooKeeperModel),
        "redis" => Box::new(redis::RedisModel),
        "mongodb" => Box::new(mongodb::MongoDbModel),
        "cassandra" => Box::new(cassandra::CassandraModel),
        "cockroachdb" => Box::new(cockroach::CockroachModel),
        "tidb" => Box::new(tidb::TiDbModel),
        "rabbitmq" => Box::new(rabbitmq::RabbitMqModel),
        "xtradb" => Box::new(xtradb::XtraDbModel),
        "knative" => Box::new(knative::KnativeModel),
        other => panic!("unknown managed system {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_registry_covers_all_nine_systems() {
        for system in [
            "zookeeper",
            "redis",
            "mongodb",
            "cassandra",
            "cockroachdb",
            "tidb",
            "rabbitmq",
            "xtradb",
            "knative",
        ] {
            let model = model_for(system);
            assert_eq!(model.name(), system);
        }
    }

    #[test]
    #[should_panic(expected = "unknown managed system")]
    fn unknown_system_panics() {
        let _ = model_for("oracle-db");
    }
}
