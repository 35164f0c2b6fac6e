//! Human-readable run summaries.

use core::fmt;

use pfcsim_simcore::time::SimTime;

use crate::sim::{RunReport, Verdict};

/// A compact, display-ready digest of a [`RunReport`].
pub struct Summary<'a>(&'a RunReport);

impl RunReport {
    /// A one-screen digest: verdict, traffic totals, PFC activity, drops.
    pub fn summary(&self) -> Summary<'_> {
        Summary(self)
    }
}

impl fmt::Display for Summary<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        match &r.verdict {
            Verdict::Deadlock {
                detected_at,
                witness,
            } => writeln!(
                f,
                "verdict: DEADLOCK at {detected_at} ({} frozen channels)",
                witness.len()
            )?,
            Verdict::NoDeadlock => writeln!(f, "verdict: no deadlock")?,
        }
        writeln!(
            f,
            "simulated: {} ({} events{})",
            r.end_time,
            r.events,
            if r.quiesced { ", quiesced" } else { "" }
        )?;
        let (mut inj, mut del) = (0u64, 0u64);
        for fs in r.stats.flows.values() {
            inj += fs.injected_packets;
            del += fs.delivered_packets;
        }
        writeln!(f, "packets: {inj} injected, {del} delivered")?;
        if r.fluid_flows > 0 {
            writeln!(
                f,
                "hybrid: {} fluid flows elided {} events",
                r.fluid_flows, r.events_elided
            )?;
        }
        writeln!(
            f,
            "pfc: {} PAUSE / {} RESUME frames on {} channels",
            r.stats.pause_frames,
            r.stats.resume_frames,
            r.stats.pause.len()
        )?;
        let dropped = r.stats.drops_ttl
            + r.stats.drops_no_route
            + r.stats.drops_overflow
            + r.stats.drops_link_down
            + r.stats.drops_pause_loss;
        if dropped > 0 {
            writeln!(
                f,
                "drops: {} ttl, {} no-route, {} overflow, {} link-down, {} pause-loss",
                r.stats.drops_ttl,
                r.stats.drops_no_route,
                r.stats.drops_overflow,
                r.stats.drops_link_down,
                r.stats.drops_pause_loss
            )?;
        }
        if r.stats.pause_frames_lost > 0 {
            writeln!(
                f,
                "pfc lost: {} frames destroyed",
                r.stats.pause_frames_lost
            )?;
        }
        if r.stats.recovery_actions > 0 {
            writeln!(
                f,
                "recovery: {} interventions destroyed {} packets",
                r.stats.recovery_actions, r.stats.drops_recovery
            )?;
        }
        if !r.buffered.is_zero() {
            writeln!(f, "buffered at end: {}", r.buffered)?;
        }
        if !r.stats.faults.is_empty() {
            // A typed fault timeline, correlated against the deadlock
            // verdict: every entry before `detected_at` is a candidate
            // cause; entries after it show what the failure went on to do.
            writeln!(f, "faults: {} events", r.stats.faults.len())?;
            let deadlock_at = match &r.verdict {
                Verdict::Deadlock { detected_at, .. } => Some(*detected_at),
                Verdict::NoDeadlock => None,
            };
            const SHOWN: usize = 20;
            for rec in r.stats.faults.iter().take(SHOWN) {
                let marker = match deadlock_at {
                    Some(d) if rec.at <= d => " [pre-deadlock]",
                    _ => "",
                };
                writeln!(f, "  {} {}{marker}", rec.at, rec.action)?;
            }
            if r.stats.faults.len() > SHOWN {
                writeln!(f, "  … and {} more", r.stats.faults.len() - SHOWN)?;
            }
        }
        for (id, fs) in &r.stats.flows {
            let gbps = fs
                .meter
                .average_bps(SimTime::ZERO, r.end_time)
                .unwrap_or(0.0)
                / 1e9;
            writeln!(
                f,
                "  flow {id}: {gbps:.2} Gbps, {}/{} delivered",
                fs.delivered_packets, fs.injected_packets
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::flow::FlowSpec;
    use crate::sim::SimBuilder;
    use pfcsim_simcore::time::SimTime;
    use pfcsim_topo::builders::{line, LinkSpec};

    #[test]
    fn summary_renders_key_facts() {
        let b = line(2, LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
        let report = sim.run(SimTime::from_us(100));
        let s = report.summary().to_string();
        assert!(s.contains("verdict: no deadlock"));
        assert!(s.contains("packets:"));
        assert!(s.contains("flow f0:"));
        assert!(!s.contains("recovery:"), "no recovery ran");
    }

    #[test]
    fn summary_shows_hybrid_counters_only_when_live() {
        use crate::hybrid::HybridConfig;
        use pfcsim_simcore::units::BitRate;
        let b = line(2, LinkSpec::default());
        let mut cfg = SimConfig::default();
        cfg.sample_interval = None; // occupancy sampling gates hybrid
        cfg.hybrid = Some(HybridConfig::default());
        let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
        sim.add_flow(
            FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(8))
                .stopping_at(SimTime::from_us(400)),
        );
        let report = sim.run(SimTime::from_ms(1));
        assert!(report.fluid_flows > 0 && report.events_elided > 0);
        let s = report.summary().to_string();
        assert!(s.contains("hybrid: 1 fluid flows elided"), "{s}");
        // A full-packet run must not mention the hybrid backend at all.
        let b2 = line(2, LinkSpec::default());
        let mut sim2 = SimBuilder::new(&b2.topo)
            .config(SimConfig::default())
            .build();
        sim2.add_flow(FlowSpec::infinite(0, b2.hosts[0], b2.hosts[1]));
        let s2 = sim2.run(SimTime::from_us(100)).summary().to_string();
        assert!(!s2.contains("hybrid:"), "{s2}");
    }

    #[test]
    fn summary_shows_fault_timeline() {
        use crate::faults::FaultPlan;
        use pfcsim_simcore::units::BitRate;
        let b = line(2, LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::cbr(
            0,
            b.hosts[0],
            b.hosts[1],
            BitRate::from_gbps(10),
        ));
        sim.set_fault_plan(
            FaultPlan::new()
                .link_down(SimTime::from_us(20), b.switches[0], b.switches[1])
                .link_up(SimTime::from_us(60), b.switches[0], b.switches[1]),
        )
        .unwrap();
        let report = sim.run(SimTime::from_us(200));
        let s = report.summary().to_string();
        assert!(s.contains("faults: 2 events"), "{s}");
        assert!(s.contains("DOWN") && s.contains("UP"), "{s}");
        assert!(s.contains("link-down"), "drops line must attribute: {s}");
    }

    #[test]
    fn summary_shows_deadlock() {
        use pfcsim_topo::routing::{install_cycle_route, shortest_path_tables};
        let b = pfcsim_topo::builders::two_switch_loop(LinkSpec::default());
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
        sim.add_flow(
            FlowSpec::cbr(
                0,
                b.hosts[0],
                b.hosts[1],
                pfcsim_simcore::units::BitRate::from_gbps(10),
            )
            .with_ttl(16),
        );
        let report = sim.run(SimTime::from_ms(30));
        let s = report.summary().to_string();
        assert!(s.contains("DEADLOCK"), "{s}");
        assert!(s.contains("frozen channels"));
        assert!(s.contains("buffered at end:"));
    }
}
