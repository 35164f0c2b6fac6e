//! Reactive deadlock recovery — the §1 mechanisms the paper sets aside as
//! "inelegant, disruptive, and ... a last resort", implemented so their
//! disruption can be *measured*.
//!
//! A watchdog runs the fixpoint detector periodically; when a permanent
//! deadlock is confirmed, the recovery strategy force-drains buffered
//! packets from frozen ingress queues (the simulation analogue of
//! resetting a port), sacrificing losslessness to restore motion. The
//! run report then shows the cost: packets destroyed per action, and how
//! quickly the deadlock re-forms while its root cause persists.

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::time::SimDuration;

/// What the watchdog does when it confirms a deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryStrategy {
    /// Drain the single frozen ingress queue holding the most bytes — the
    /// minimal intervention that provably breaks the cycle it belongs to.
    DrainOneQueue,
    /// Drain every frozen queue in the detector's witness at once —
    /// faster recovery, proportionally more loss.
    DrainWitness,
}

/// Watchdog configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Detector period. Real systems take seconds; simulations use
    /// sub-millisecond periods to exercise repeated re-formation.
    pub check_interval: SimDuration,
    /// Action on confirmation.
    pub strategy: RecoveryStrategy,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            check_interval: SimDuration::from_us(100),
            strategy: RecoveryStrategy::DrainOneQueue,
        }
    }
}

impl RecoveryConfig {
    /// Validate parameters: a zero check interval would schedule the
    /// watchdog at the current instant forever.
    pub fn validate(&self) -> Result<(), Error> {
        if self.check_interval.is_zero() {
            return Err("recovery check_interval must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::flow::FlowSpec;
    use crate::sim::{NetSim, RunReport, SimBuilder};
    use pfcsim_simcore::time::SimTime;
    use pfcsim_simcore::units::BitRate;
    use pfcsim_topo::builders::{square, two_switch_loop, LinkSpec};
    use pfcsim_topo::routing::{install_cycle_route, shortest_path_tables};

    fn fig4_sim(recovery: Option<RecoveryConfig>) -> NetSim {
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let mut cfg = SimConfig::default();
        cfg.stop_on_deadlock = false;
        let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
        sim.add_flow(
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        );
        sim.add_flow(
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        );
        sim.add_flow(FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]));
        if let Some(rc) = recovery {
            sim.try_enable_recovery(rc).expect("enable_recovery");
        }
        sim
    }

    #[test]
    fn recovery_restores_motion_at_a_price() {
        let horizon = SimTime::from_ms(5);
        // Without recovery: deadlock freezes deliveries early.
        let frozen = fig4_sim(None).run(horizon);
        assert!(frozen.verdict.is_deadlock());
        let frozen_delivered: u64 = frozen
            .stats
            .flows
            .values()
            .map(|f| f.delivered_packets)
            .sum();

        // With recovery: deliveries continue, but packets are destroyed
        // and the deadlock keeps re-forming.
        let recovered = fig4_sim(Some(RecoveryConfig::default())).run(horizon);
        let rec_delivered: u64 = recovered
            .stats
            .flows
            .values()
            .map(|f| f.delivered_packets)
            .sum();
        assert!(
            recovered.stats.recovery_actions >= 2,
            "the deadlock must re-form while its cause persists: {} actions",
            recovered.stats.recovery_actions
        );
        assert!(recovered.stats.drops_recovery > 0, "recovery is lossy");
        assert!(
            rec_delivered > frozen_delivered * 3,
            "recovery must restore goodput: {rec_delivered} vs {frozen_delivered}"
        );
    }

    #[test]
    fn drain_witness_recovers_with_fewer_actions() {
        let horizon = SimTime::from_ms(5);
        let one = fig4_sim(Some(RecoveryConfig {
            strategy: RecoveryStrategy::DrainOneQueue,
            ..RecoveryConfig::default()
        }))
        .run(horizon);
        let all = fig4_sim(Some(RecoveryConfig {
            strategy: RecoveryStrategy::DrainWitness,
            ..RecoveryConfig::default()
        }))
        .run(horizon);
        assert!(one.stats.recovery_actions > 0);
        assert!(all.stats.recovery_actions > 0);
        // Draining the whole witness destroys at least as many packets
        // per action on average.
        let per_action_one = one.stats.drops_recovery as f64 / one.stats.recovery_actions as f64;
        let per_action_all = all.stats.drops_recovery as f64 / all.stats.recovery_actions as f64;
        assert!(
            per_action_all >= per_action_one,
            "witness drain {per_action_all:.1} vs single {per_action_one:.1}"
        );
    }

    /// Two switches joined by two 40 G links, and an 8 Gbps TTL-16 flow
    /// whose route loops over link `link` (port `link` at both ends):
    /// above Eq. 3's 2 · 40 / 16 = 5 Gbps, so it deadlocks.
    fn parallel_loop(link: u16, strategy: RecoveryStrategy) -> RunReport {
        use pfcsim_simcore::time::SimDuration;
        use pfcsim_topo::graph::Topology;
        use pfcsim_topo::ids::PortNo;
        let mut topo = Topology::new();
        let (a, b) = (topo.add_switch("A"), topo.add_switch("B"));
        let (ha, hb) = (topo.add_host("hA"), topo.add_host("hB"));
        let (rate, delay) = (BitRate::from_gbps(40), SimDuration::from_us(1));
        topo.connect(a, b, rate, delay);
        topo.connect(a, b, rate, delay);
        topo.connect(ha, a, rate, delay);
        topo.connect(hb, b, rate, delay);
        let mut tables = shortest_path_tables(&topo);
        tables.set(a, hb, vec![PortNo(link)]);
        tables.set(b, hb, vec![PortNo(link)]);
        let mut cfg = SimConfig::default();
        cfg.stop_on_deadlock = false;
        let mut sim = SimBuilder::new(&topo).config(cfg).tables(tables).build();
        sim.add_flow(FlowSpec::cbr(0, ha, hb, BitRate::from_gbps(8)).with_ttl(16));
        sim.try_enable_recovery(RecoveryConfig {
            strategy,
            ..RecoveryConfig::default()
        })
        .expect("enable_recovery");
        sim.run(SimTime::from_ms(3))
    }

    /// Recovery drains the queues the detector froze, whichever of two
    /// parallel links they sit on: a loop on the second link loses what
    /// the same loop on the first does.
    #[test]
    fn recovery_drains_a_loop_on_either_parallel_link() {
        for strategy in [
            RecoveryStrategy::DrainOneQueue,
            RecoveryStrategy::DrainWitness,
        ] {
            let first = parallel_loop(0, strategy);
            let second = parallel_loop(1, strategy);
            let losses = |r: &RunReport| (r.stats.recovery_actions, r.stats.drops_recovery);
            assert!(
                first.stats.drops_recovery > 0,
                "{strategy:?}: nothing drained"
            );
            assert_eq!(losses(&second), losses(&first), "{strategy:?}");
        }
    }

    #[test]
    fn recovery_is_idle_on_healthy_networks() {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .tables(tables)
            .build();
        // Below the Eq. 3 threshold: loop but no deadlock.
        sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(3)).with_ttl(16));
        sim.try_enable_recovery(RecoveryConfig::default())
            .expect("enable_recovery");
        let report = sim.run(SimTime::from_ms(10));
        assert_eq!(report.stats.recovery_actions, 0);
        assert_eq!(report.stats.drops_recovery, 0);
    }
}
