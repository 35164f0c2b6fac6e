//! # pfcsim-simcore — deterministic discrete-event simulation core
//!
//! The foundation of the `pfcsim` workspace: integer picosecond time
//! ([`time`]), exact data-size/rate units ([`units`]), a deterministic
//! future-event list ([`event`]), seeded randomness ([`rng`]) and
//! measurement recorders ([`series`]).
//!
//! Everything here is purely computational and deterministic by design:
//! a packet-level simulator must be bit-reproducible to debug deadlock
//! formation, so no wall-clock time, OS entropy, or thread scheduling may
//! leak into results.
//!
//! ```
//! use pfcsim_simcore::prelude::*;
//!
//! // 40 KB at 40 Gbps serializes in exactly 8 us.
//! let t = BitRate::from_gbps(40).serialization_time(Bytes::from_kb(40));
//! assert_eq!(t, SimDuration::from_us(8));
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_ns(10), "arrive");
//! assert_eq!(q.pop(), Some((SimTime::from_ns(10), "arrive")));
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod rng;
pub mod scratch;
pub mod series;
pub mod snap;
pub mod time;
pub mod units;
pub mod wheel;

/// One-stop import for downstream crates.
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::event::{Backend, EventId, EventQueue};
    pub use crate::rng::SimRng;
    pub use crate::series::{
        EventLog, Histogram, IntervalLog, RingSeries, ThroughputMeter, TimeSeries,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::units::{BitRate, Bytes};
}
