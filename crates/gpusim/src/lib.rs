//! # glp-gpusim — a deterministic software model of a CUDA-class GPU
//!
//! The GLP paper runs on an NVIDIA Titan V. This reproduction has no GPU, so
//! every "GPU" kernel in the workspace executes against this crate instead:
//! plain Rust code structured warp-centrically, with every architecturally
//! significant event **accounted** — and a calibrated cost model that turns
//! event counts into modeled elapsed time.
//!
//! What is modeled (because the paper's results hinge on it):
//!
//! * **Warp lock-step execution** — 32 lanes issue together; a warp that
//!   keeps only 3 lanes busy still pays full warp-instruction cost. This is
//!   what makes one-warp-one-vertex wasteful on road networks (§4.2).
//! * **Global-memory coalescing** — a warp-wide access is charged one
//!   32-byte sector per distinct sector touched. 32 random 4-byte reads cost
//!   8x the bytes of one contiguous 128-byte read. This is what punishes
//!   per-vertex global hash tables (§4.1).
//! * **Shared memory** — a small per-block arena with capacity enforcement
//!   and bank-conflict accounting; accesses cost ~1 cycle instead of ~400.
//! * **Atomics** — within-warp address conflicts serialize.
//! * **Warp intrinsics** — `__ballot_sync`, `__match_any_sync`, `__popc`
//!   and block-wide reduction, all a few cycles (§4.2's mechanism).
//! * **PCIe transfers** — for the hybrid out-of-core mode (§3.1, §5.4).
//! * **Host hardware** — CPU and cluster cost models for the CPU baselines
//!   and the simulated in-house distributed solution (§5.4), so every
//!   reported time is in the same modeled unit.
//!
//! What is *not* modeled: instruction pipelines, caches beyond an L2 proxy
//! for the G-Hash baseline, and warp scheduling order. The cost model is a
//! roofline — `max(compute, memory) + launch overhead` — which preserves
//! the relative behavior the paper measures. Its weights are constants of
//! [`cost`], with datasheet citations.

pub mod config;
pub mod cost;
pub mod counters;
pub mod device;
pub mod error;
pub mod fanout;
pub mod faults;
pub mod host;
pub mod kernel;
pub mod multi;
pub mod profile;
pub mod shared;
pub mod warp;

pub use config::DeviceConfig;
pub use cost::SECTOR_BYTES;
pub use counters::KernelCounters;
pub use device::{Device, KernelRecord};
pub use error::DeviceError;
pub use fanout::{fan_out, host_cores};
pub use kernel::KernelCtx;
pub use multi::MultiGpu;
pub use profile::DeviceProfile;
pub use shared::SharedMem;
pub use warp::{ballot_sync, match_any_sync, popc, WARP_SIZE};
