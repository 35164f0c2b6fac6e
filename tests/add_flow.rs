//! `NetSim::try_add_flow` refuses a flow that names a node outside the
//! topology — as its source, its destination or a node of its pinned
//! path — with a typed error, and leaves the simulator as it was.

use pfcsim::net::flow::FlowSpec;
use pfcsim::net::golden;
use pfcsim::net::sim::SimBuilder;
use pfcsim::simcore::time::SimTime;
use pfcsim::topo::builders::{line, LinkSpec};
use pfcsim::topo::ids::NodeId;
use pfcsim::Error;

#[test]
fn a_flow_naming_an_unknown_node_is_refused() {
    let b = line(2, LinkSpec::default());
    let (h0, h1) = (b.hosts[0], b.hosts[1]);
    let far = NodeId(999);
    let mut sim = SimBuilder::new(&b.topo).build();
    let path = vec![h0, b.switches[0], far, h1];
    for spec in [
        FlowSpec::infinite(0, far, h1),
        FlowSpec::infinite(0, h0, far),
        FlowSpec::infinite(0, h0, h1).pinned(path),
    ] {
        match sim.try_add_flow(spec) {
            Err(Error::Config(msg)) => assert_eq!(msg, "unknown node 999"),
            other => panic!("want a config error, got {other:?}"),
        }
    }
    // Nothing was registered: the same id is still free, and the run
    // equals one that never saw the refused flows.
    sim.try_add_flow(FlowSpec::infinite(0, h0, h1))
        .expect("flow 0 is still free");
    let mut clean = SimBuilder::new(&b.topo).build();
    clean.add_flow(FlowSpec::infinite(0, h0, h1));
    let horizon = SimTime::from_us(100);
    assert_eq!(
        golden::digest(&sim.run(horizon)),
        golden::digest(&clean.run(horizon))
    );
}
