//! Profiler-style reporting: aggregate a device's kernel log into the
//! per-kernel table an `nvprof`/`nsys` run would show — the tool one uses
//! to see *where* an LP iteration's modeled time goes (gather vs count vs
//! update, §5.3's discussion). Its launches and seconds are the run
//! report's `glp_trace::KernelProfile` rows for the same device, bit for
//! bit; its counter columns (lane utilization, bytes moved) are its own.

use crate::counters::KernelCounters;
use crate::device::Device;
use std::collections::HashMap;
use std::fmt;

/// Aggregated statistics for one kernel name.
#[derive(Clone, Debug)]
pub struct KernelTotals {
    /// Kernel name.
    pub name: &'static str,
    /// Number of launches.
    pub launches: u64,
    /// Total modeled seconds.
    pub seconds: f64,
    /// Summed event counts.
    pub counters: KernelCounters,
}

/// A whole device's profile: per-kernel aggregates, sorted by total time.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    /// Per-kernel rows, descending by time.
    pub kernels: Vec<KernelTotals>,
    /// Total modeled kernel seconds (excludes transfers).
    pub kernel_seconds: f64,
    /// Modeled transfer seconds.
    pub transfer_seconds: f64,
}

impl DeviceProfile {
    /// Builds the profile from a device's kernel log.
    pub fn of(device: &Device) -> Self {
        let mut by_name: HashMap<&'static str, KernelTotals> = HashMap::new();
        let mut kernel_seconds = 0.0;
        for rec in device.kernel_log() {
            let e = by_name.entry(rec.name).or_insert_with(|| KernelTotals {
                name: rec.name,
                launches: 0,
                seconds: 0.0,
                counters: KernelCounters::default(),
            });
            e.launches += 1;
            e.seconds += rec.seconds;
            e.counters.merge(&rec.counters);
            kernel_seconds += rec.seconds;
        }
        let mut kernels: Vec<KernelTotals> = by_name.into_values().collect();
        // total_cmp: a NaN in a cost model (e.g. a corrupted calibration
        // constant) must not panic the profiler that would diagnose it.
        kernels.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        Self {
            kernels,
            kernel_seconds,
            transfer_seconds: device.transfer_seconds(),
        }
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<22} {:>9} {:>12} {:>8} {:>12} {:>12} {:>6}",
            "kernel", "launches", "time", "share", "GB moved", "warps", "util"
        )?;
        for k in &self.kernels {
            let util = k.counters.warp_utilization();
            writeln!(
                f,
                "{:<22} {:>9} {:>9.3} ms {:>7.1}% {:>12.4} {:>12} {:>5.0}%",
                k.name,
                k.launches,
                k.seconds * 1e3,
                100.0 * k.seconds / self.kernel_seconds.max(f64::MIN_POSITIVE),
                k.counters.global_bytes() as f64 / 1e9,
                k.counters.warps_launched,
                100.0 * util,
            )?;
        }
        writeln!(
            f,
            "kernels {:.3} ms + transfers {:.3} ms",
            self.kernel_seconds * 1e3,
            self.transfer_seconds * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_device() -> Device {
        let mut d = Device::titan_v();
        d.launch("gather", |ctx| {
            ctx.global_read_seq(0, 1 << 20, 4);
            ctx.warps_launched(100);
        })
        .unwrap();
        d.launch("gather", |ctx| {
            ctx.global_read_seq(0, 1 << 20, 4);
            ctx.warps_launched(100);
        })
        .unwrap();
        d.launch("update", |ctx| {
            ctx.alu(1000);
        })
        .unwrap();
        d.upload(1 << 20).unwrap();
        d
    }

    #[test]
    fn aggregates_by_name_sorted_by_time() {
        let d = sample_device();
        let p = DeviceProfile::of(&d);
        let rows: Vec<_> = p.kernels.iter().map(|k| (k.name, k.launches)).collect();
        assert_eq!(rows, [("gather", 2), ("update", 1)]);
        assert_eq!(p.kernels[0].counters.warps_launched, 200);
        assert!(p.kernels[0].seconds >= p.kernels[1].seconds);
        let total: f64 = p.kernels.iter().map(|k| k.seconds).sum();
        assert_eq!(total, p.kernel_seconds);
    }

    #[test]
    fn display_renders_every_kernel() {
        let d = sample_device();
        let text = DeviceProfile::of(&d).to_string();
        assert!(text.contains("gather"));
        assert!(text.contains("update"));
        assert!(text.contains("transfers"));
    }

    #[test]
    fn transfer_time_captured() {
        let d = sample_device();
        let p = DeviceProfile::of(&d);
        assert!(p.transfer_seconds > 0.0);
    }
}
