//! The engine-layer fault taxonomy.
//!
//! [`Engine::run`](super::Engine::run) returns `Result<LpRunReport,
//! EngineError>`: every way a simulated device can die mid-run maps onto
//! one variant here, converted from the device-layer
//! [`DeviceError`](glp_gpusim::DeviceError) at the engine boundary. The
//! split into *transient* and *persistent* faults is what the BSP driver's
//! recovery policy ([`ResilientEngine`](super::ResilientEngine)) keys on: a
//! transient fault re-drives the failed iteration on the same tier, a
//! persistent one on the next tier of the ladder.

use glp_gpusim::DeviceError;
use std::fmt;

/// Why an engine run failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The device fell off the bus mid-run. Persistent: the same engine
    /// instance cannot finish the job (its device stays lost).
    DeviceLost {
        /// Simulator device id.
        device: u32,
    },
    /// A kernel launch was rejected by the driver. Transient: the next
    /// attempt may succeed.
    KernelLaunchFailed {
        /// Kernel name.
        kernel: &'static str,
    },
    /// The watchdog killed a kernel. Transient: a relaunch gets a fresh
    /// time budget.
    KernelTimeout {
        /// Kernel name.
        kernel: &'static str,
    },
    /// Device memory was exhausted. Persistent for the engine that needs
    /// the whole working set resident — the ladder's next tier (hybrid
    /// streaming, then the host) needs less or no device memory.
    OutOfMemory {
        /// Bytes the failing allocation requested.
        requested: u64,
        /// Device memory capacity.
        capacity: u64,
    },
    /// A harness shard of a parallel kernel panicked. Transient from the
    /// scheduler's point of view: the device is healthy and the iteration's
    /// device phase can be re-driven.
    ShardPanicked {
        /// Index of the first panicked shard.
        shard: usize,
    },
}

impl EngineError {
    /// Whether a retry on the *same* engine tier is worth attempting.
    /// Transient faults (rejected launch, watchdog timeout, panicked
    /// shard) are; a lost device or exhausted memory will fail the same
    /// way again.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            EngineError::KernelLaunchFailed { .. }
                | EngineError::KernelTimeout { .. }
                | EngineError::ShardPanicked { .. }
        )
    }
}

impl From<DeviceError> for EngineError {
    fn from(e: DeviceError) -> Self {
        match e {
            DeviceError::Lost { device } => EngineError::DeviceLost { device },
            DeviceError::LaunchFailed { kernel, .. } => EngineError::KernelLaunchFailed { kernel },
            DeviceError::Timeout { kernel, .. } => EngineError::KernelTimeout { kernel },
            DeviceError::OutOfMemory {
                requested,
                capacity,
                ..
            } => EngineError::OutOfMemory {
                requested,
                capacity,
            },
            DeviceError::ShardPanicked { shard, .. } => EngineError::ShardPanicked { shard },
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EngineError::DeviceLost { device } => write!(f, "device {device} lost"),
            EngineError::KernelLaunchFailed { kernel } => {
                write!(f, "kernel `{kernel}` launch failed")
            }
            EngineError::KernelTimeout { kernel } => {
                write!(f, "kernel `{kernel}` hit the watchdog timeout")
            }
            EngineError::OutOfMemory {
                requested,
                capacity,
            } => write!(
                f,
                "device out of memory ({requested} B requested, {capacity} B capacity)"
            ),
            EngineError::ShardPanicked { shard } => write!(f, "kernel shard {shard} panicked"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(EngineError::KernelLaunchFailed { kernel: "k" }.is_transient());
        assert!(EngineError::KernelTimeout { kernel: "k" }.is_transient());
        assert!(EngineError::ShardPanicked { shard: 3 }.is_transient());
        assert!(!EngineError::DeviceLost { device: 0 }.is_transient());
        assert!(!EngineError::OutOfMemory {
            requested: 1,
            capacity: 1
        }
        .is_transient());
    }

    #[test]
    fn device_errors_convert() {
        let e: EngineError = DeviceError::LaunchFailed {
            device: 7,
            kernel: "pick_label",
        }
        .into();
        assert_eq!(
            e,
            EngineError::KernelLaunchFailed {
                kernel: "pick_label"
            }
        );
        let e: EngineError = DeviceError::Lost { device: 7 }.into();
        assert_eq!(e, EngineError::DeviceLost { device: 7 });
    }
}
