//! Typed device faults surfaced at the launch/transfer boundaries.
//!
//! Real LP fleets lose cards, trip kernel watchdogs, and run out of device
//! memory. Every fallible entry point of [`Device`](crate::Device) —
//! [`launch`](crate::Device::launch),
//! [`launch_parallel`](crate::Device::launch_parallel) and
//! [`upload`](crate::Device::upload) — returns one of these errors, which
//! the engine layer converts into its own `EngineError`. A fault plan
//! attached to the device (`Device::set_faults`) raises them on a
//! deterministic schedule, so the whole recovery path can be rehearsed.

use std::fmt;

/// A fault raised by one simulated device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The device fell off the bus. Sticky: every later operation on the
    /// same device fails with `Lost` until the device object is dropped —
    /// a lost card does not come back.
    Lost {
        /// Process-unique device id ([`Device::id`](crate::Device::id)).
        device: u32,
    },
    /// One kernel launch was rejected (driver error, transient). The next
    /// launch may succeed.
    LaunchFailed {
        /// Device the launch targeted.
        device: u32,
        /// Kernel name as passed to `launch`.
        kernel: &'static str,
    },
    /// The watchdog killed a kernel that ran too long (transient: the
    /// relaunched kernel gets a fresh budget).
    Timeout {
        /// Device the kernel ran on.
        device: u32,
        /// Kernel name as passed to `launch`.
        kernel: &'static str,
    },
    /// An allocation did not fit in device memory.
    OutOfMemory {
        /// Device the upload targeted.
        device: u32,
        /// Bytes the failing upload requested.
        requested: u64,
        /// Bytes resident before the upload.
        resident: u64,
        /// Device memory capacity.
        capacity: u64,
    },
    /// A harness shard of a parallel launch panicked; the launch produced
    /// no result (transient from the device's point of view — the card
    /// itself is fine).
    ShardPanicked {
        /// Device the launch targeted.
        device: u32,
        /// Index of the first shard that panicked.
        shard: usize,
    },
}

impl DeviceError {
    /// The id of the device that raised the fault.
    pub fn device(&self) -> u32 {
        match *self {
            DeviceError::Lost { device }
            | DeviceError::LaunchFailed { device, .. }
            | DeviceError::Timeout { device, .. }
            | DeviceError::OutOfMemory { device, .. }
            | DeviceError::ShardPanicked { device, .. } => device,
        }
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeviceError::Lost { device } => write!(f, "device {device} lost"),
            DeviceError::LaunchFailed { device, kernel } => {
                write!(f, "kernel `{kernel}` launch failed on device {device}")
            }
            DeviceError::Timeout { device, kernel } => {
                write!(
                    f,
                    "kernel `{kernel}` hit the watchdog timeout on device {device}"
                )
            }
            DeviceError::OutOfMemory {
                device,
                requested,
                resident,
                capacity,
            } => write!(
                f,
                "device {device} out of memory: {requested} B requested, \
                 {resident}/{capacity} B resident"
            ),
            DeviceError::ShardPanicked { device, shard } => {
                write!(f, "kernel shard {shard} panicked on device {device}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_device() {
        let e = DeviceError::Lost { device: 3 };
        assert_eq!(e.to_string(), "device 3 lost");
        assert_eq!(e.device(), 3);
        let e = DeviceError::OutOfMemory {
            device: 1,
            requested: 10,
            resident: 5,
            capacity: 12,
        };
        assert!(e.to_string().contains("10 B requested"));
        assert_eq!(e.device(), 1);
    }
}
