//! Multiple simulated GPUs in one machine (§5.4's two-Titan-V setup).
//!
//! Devices execute independently; at iteration barriers the modeled clocks
//! align to the slowest device plus a synchronization overhead (peer label
//! exchange goes over PCIe and is charged explicitly by the engine).

use crate::config::DeviceConfig;
use crate::device::Device;

/// Fixed per-barrier overhead in seconds (driver + event sync).
const SYNC_OVERHEAD_S: f64 = 10e-6;

/// A set of simulated GPUs with barrier-style synchronization.
#[derive(Debug)]
pub struct MultiGpu {
    devices: Vec<Device>,
}

impl MultiGpu {
    /// `n` identical devices.
    pub fn new(n: usize, cfg: DeviceConfig) -> Self {
        assert!(n >= 1, "need at least one device");
        Self {
            devices: (0..n).map(|_| Device::new(cfg.clone())).collect(),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices are present (never for constructed values).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Mutable access to device `i`.
    pub fn device_mut(&mut self, i: usize) -> &mut Device {
        &mut self.devices[i]
    }

    /// Shared access to device `i`.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Iterates over devices.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.iter()
    }

    /// Mutable iteration over devices.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Device> {
        self.devices.iter_mut()
    }

    /// Barrier: every *surviving* device's modeled clock advances to the
    /// set's clock plus the sync overhead. Lost devices are skipped — their
    /// clocks froze when they fell off the bus.
    pub fn sync(&mut self) {
        let max = self.elapsed_seconds();
        for d in &mut self.devices {
            if d.is_lost() {
                continue;
            }
            let behind = max - d.elapsed_seconds();
            d.advance_clock(behind + SYNC_OVERHEAD_S);
        }
    }

    /// The set's modeled elapsed time: the slowest device's clock. A lost
    /// card's clock froze when it fell off the bus, at the end of the last
    /// kernel it completed, so the set's clock never ends before that one.
    pub fn elapsed_seconds(&self) -> f64 {
        self.devices
            .iter()
            .map(Device::elapsed_seconds)
            .fold(0.0, f64::max)
    }

    /// Indices of devices still on the bus.
    pub fn survivors(&self) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_lost())
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of devices still on the bus.
    pub fn alive(&self) -> usize {
        self.devices.iter().filter(|d| !d.is_lost()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_aligns_clocks_to_slowest() {
        let mut m = MultiGpu::new(2, DeviceConfig::titan_v());
        m.device_mut(0)
            .launch("big", |ctx| ctx.alu(1_000_000_000))
            .unwrap();
        m.device_mut(1)
            .launch("small", |ctx| ctx.alu(1_000))
            .unwrap();
        let slow = m.device(0).elapsed_seconds();
        m.sync();
        let expect = slow + SYNC_OVERHEAD_S;
        assert!((m.device(0).elapsed_seconds() - expect).abs() < 1e-12);
        assert!((m.device(1).elapsed_seconds() - expect).abs() < 1e-12);
    }

    #[test]
    fn elapsed_is_max_over_devices() {
        let mut m = MultiGpu::new(3, DeviceConfig::titan_v());
        m.device_mut(2)
            .launch("k", |ctx| ctx.alu(5_000_000))
            .unwrap();
        assert_eq!(m.elapsed_seconds(), m.device(2).elapsed_seconds());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        MultiGpu::new(0, DeviceConfig::titan_v());
    }

    #[test]
    fn sync_skips_lost_devices_and_elapsed_keeps_their_kernels() {
        let mut m = MultiGpu::new(3, DeviceConfig::titan_v());
        m.device_mut(0)
            .launch("big", |ctx| ctx.alu(1_000_000_000))
            .unwrap();
        let frozen = m.device(0).elapsed_seconds();
        m.device_mut(0).mark_lost();
        m.device_mut(1)
            .launch("small", |ctx| ctx.alu(1_000))
            .unwrap();
        assert_eq!(m.survivors(), vec![1, 2]);
        assert_eq!(m.alive(), 2);
        // The lost card's big kernel ran before it fell off the bus: the
        // set's clock does not end before it.
        assert!(frozen > m.device(1).elapsed_seconds());
        assert_eq!(m.elapsed_seconds(), frozen);
        m.sync();
        // Lost clock untouched; survivors aligned past it.
        assert_eq!(m.device(0).elapsed_seconds(), frozen);
        for i in [1, 2] {
            let expect = frozen + SYNC_OVERHEAD_S;
            assert!((m.device(i).elapsed_seconds() - expect).abs() < 1e-12);
        }
    }
}
