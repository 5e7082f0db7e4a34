//! Network-level [`Metric`] implementations.
//!
//! Each metric wraps a [`NetSpec`] — a template [`Deployment`] carrying
//! the calibrated link table and the MAC/energy knobs a [`Scenario`]
//! does not — and measures one aspect of the deployment
//! [`Deployment::for_scenario`] derives from each scenario. Because
//! they implement the ordinary [`Metric`] trait, the existing
//! [`fmbs_core::sim::sweep::SweepBuilder`] engine sweeps network axes
//! (`n_tags`, `mac_slot_counts`, `f_backs_hz`, power, radius) exactly
//! like physics axes, with the same parallel == serial bit-identity.
//!
//! The `sim: &dyn Simulator` argument every metric receives is unused
//! here by design: the per-packet physics was pre-sampled into the
//! [`crate::link::BerTable`] at calibration time — that substitution
//! *is* the link abstraction.

use crate::engine::NetStats;
use crate::topology::Deployment;
use fmbs_core::sim::metric::Metric;
use fmbs_core::sim::scenario::Scenario;
use fmbs_core::sim::Simulator;

/// Shared setup for the network metrics: a validated template
/// [`Deployment`] with its link table attached. Each scenario runs as
/// `template.for_scenario(scenario)` through the one
/// `build` → [`crate::topology::CitySim`] path.
#[derive(Debug, Clone)]
pub struct NetSpec(Deployment);

impl NetSpec {
    /// Wraps a template deployment.
    ///
    /// # Panics
    /// On an invalid deployment (the
    /// [`crate::topology::DeploymentError`] message is included) or
    /// when no `.link(..)` table was attached — `Deployment::build` is
    /// the non-panicking path.
    pub fn new(template: Deployment) -> Self {
        if let Err(e) = template.build() {
            panic!("invalid Deployment: {e}");
        }
        assert!(
            template.link.is_some(),
            "NetSpec needs a template with .link(table)"
        );
        NetSpec(template)
    }

    /// The template every scenario is applied to.
    pub fn template(&self) -> &Deployment {
        &self.0
    }

    /// Runs the deployment the scenario describes and returns its
    /// statistics.
    ///
    /// # Panics
    /// When the scenario turns the template into an invalid deployment
    /// (e.g. a nominal bitrate at or below the template's explicit ARQ
    /// fallback rate).
    pub fn run(&self, scenario: &Scenario) -> NetStats {
        self.0
            .for_scenario(scenario)
            .build()
            .unwrap_or_else(|e| panic!("invalid scenario deployment: {e}"))
            .sim()
            .run()
            .stats
    }
}

/// Aggregate network goodput in bits per second.
#[derive(Debug, Clone)]
pub struct NetGoodput(pub NetSpec);

impl Metric for NetGoodput {
    fn name(&self) -> &'static str {
        "net_goodput"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.0.run(scenario).goodput_bps()
    }
}

/// Fraction of transmission attempts lost to collisions.
#[derive(Debug, Clone)]
pub struct NetCollisionRate(pub NetSpec);

impl Metric for NetCollisionRate {
    fn name(&self) -> &'static str {
        "net_collision_rate"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.0.run(scenario).collision_rate()
    }
}

/// Jain's fairness index over per-tag delivered packets.
#[derive(Debug, Clone)]
pub struct NetFairness(pub NetSpec);

impl Metric for NetFairness {
    fn name(&self) -> &'static str {
        "net_fairness"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.0.run(scenario).jain_fairness()
    }
}

/// A packet-latency percentile in seconds (contention delay from a
/// packet's first attempt to its delivery).
#[derive(Debug, Clone)]
pub struct NetLatency {
    /// Shared setup.
    pub spec: NetSpec,
    /// Percentile in [0, 1] (e.g. 0.95).
    pub percentile: f64,
}

impl NetLatency {
    /// The 95th-percentile latency metric.
    pub fn p95(spec: NetSpec) -> Self {
        NetLatency {
            spec,
            percentile: 0.95,
        }
    }
}

impl Metric for NetLatency {
    fn name(&self) -> &'static str {
        "net_latency"
    }

    fn evaluate(&self, _sim: &dyn Simulator, scenario: &Scenario) -> f64 {
        self.spec
            .run(scenario)
            .latency_percentile_secs(self.percentile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::BerTable;
    use fmbs_audio::program::ProgramKind;
    use fmbs_core::modem::Bitrate;
    use fmbs_core::sim::fast::FastSim;
    use fmbs_core::sim::scenario::Workload;
    use std::sync::Arc;

    fn spec() -> NetSpec {
        NetSpec::new(Deployment::city(1).link(Arc::new(BerTable::from_grid(
            vec![-60.0, -20.0],
            vec![1.0, 30.0],
            vec![Bitrate::Kbps1_6],
            vec![1e-4, 5e-4, 2e-4, 1e-3],
        ))))
    }

    fn net_scenario(n_tags: u32, mac_slots: u32) -> Scenario {
        let mut s = Scenario::bench(-40.0, 14.0, ProgramKind::News)
            .with_workload(Workload::data(Bitrate::Kbps1_6, 256));
        s.n_tags = n_tags;
        s.mac_slots = mac_slots;
        s
    }

    #[test]
    fn goodput_and_collisions_respond_to_density() {
        let sparse = net_scenario(4, 300);
        let dense = net_scenario(600, 300);
        let g = NetGoodput(spec());
        let c = NetCollisionRate(spec());
        assert!(g.evaluate(&FastSim, &dense) > g.evaluate(&FastSim, &sparse));
        assert!(c.evaluate(&FastSim, &dense) > c.evaluate(&FastSim, &sparse));
    }

    #[test]
    fn fairness_and_latency_are_sane() {
        let s = net_scenario(60, 400);
        let f = NetFairness(spec()).evaluate(&FastSim, &s);
        assert!(f > 0.3 && f <= 1.0, "fairness {f}");
        let l = NetLatency::p95(spec()).evaluate(&FastSim, &s);
        assert!(l >= 0.0);
    }
}
