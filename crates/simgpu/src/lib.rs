//! # mimose-simgpu
//!
//! The simulated GPU substrate: a deterministic virtual clock, a V100-class
//! device cost profile (roofline FLOPs/bandwidth → ns), and a byte-addressed
//! memory arena with first-fit allocation, coalescing frees, OOM signalling
//! and fragmentation accounting.

#![warn(missing_docs)]

mod arena;
mod arena_reference;
mod clock;
mod device;

pub use arena::{align_up, AllocId, AllocPolicy, Arena, ArenaStats, OomError, ARENA_ALIGN};
#[doc(hidden)]
pub use arena_reference::ArenaReference;
pub use clock::{VirtualClock, VirtualTime};
pub use device::DeviceProfile;
