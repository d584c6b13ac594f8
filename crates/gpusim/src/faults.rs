//! Deterministic fault injection for the simulated device (feature
//! `fault-injection` only).
//!
//! Two injector families live here:
//!
//! * **Stalls** — kernels get *slow* (a thermally throttled card, a
//!   congested PCIe link, a noisy neighbour on a shared GPU). Armed with
//!   [`inject_kernel_stall`] for the launches of the arming thread;
//!   served at the kernel-launch boundary every engine funnels through
//!   ([`KernelCtx::new`](crate::KernelCtx::new)).
//!   Stalls perturb *time only* — counters and results are untouched, so
//!   determinism assertions hold across stalled and unstalled runs.
//! * **Failures** — kernels *die* ([`FaultKind`]): a launch is rejected, a
//!   watchdog fires, a device falls off the bus, an upload exhausts device
//!   memory, a harness shard panics. Armed per device with
//!   [`inject_fault`] (or derived from a seed with [`seeded_fault`]);
//!   consumed by [`Device`](crate::Device) at its fallible launch/upload
//!   boundaries and surfaced as
//!   [`DeviceError`](crate::DeviceError) `Result`s, so the whole path
//!   above (engine retry, degradation ladder, recluster worker, health
//!   reporting) experiences the fault exactly as it would experience real
//!   failing hardware.
//!
//! Plans target a specific [`Device::id`](crate::Device::id), so
//! concurrently running tests do not trip each other's faults. Always
//! [`clear`] (or [`clear_device`]) in tests that arm anything.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

thread_local! {
    /// The calling thread's armed stall: (launches left, microseconds
    /// each). Per thread, like [`faults_served`]: an engine launches its
    /// kernels on the thread that drives it, and a stall armed by one
    /// test must not be consumed by the launches of its siblings.
    static ARMED_STALL: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}
static STALLS_SERVED: AtomicU64 = AtomicU64::new(0);

/// Arms the injector for the calling thread: the next `launches` kernel
/// launches *it* issues each sleep for `micros` microseconds before
/// executing.
pub fn inject_kernel_stall(launches: u32, micros: u64) {
    ARMED_STALL.set((launches, micros));
}

/// Disarms every injector: the calling thread's pending stalls and every
/// armed failure plan.
pub fn clear() {
    ARMED_STALL.set((0, 0));
    PLANS.lock().expect("fault registry").clear();
}

/// Stalls served since process start, on any thread (diagnostic; lets
/// tests assert the hook actually fired).
pub fn stalls_served() -> u64 {
    STALLS_SERVED.load(Ordering::Acquire)
}

/// Called by [`KernelCtx::new`](crate::KernelCtx::new) on every kernel
/// launch; sleeps if the launching thread armed a stall.
pub(crate) fn on_kernel_launch() {
    let (left, micros) = ARMED_STALL.get();
    if left == 0 {
        return;
    }
    ARMED_STALL.set((left - 1, micros));
    if micros > 0 {
        std::thread::sleep(Duration::from_micros(micros));
    }
    STALLS_SERVED.fetch_add(1, Ordering::AcqRel);
}

/// The failing-fault taxonomy. `LaunchFail`, `Timeout` and `ShardPanic`
/// are transient (the next attempt may succeed); `DeviceLost` is sticky on
/// the targeted device; `Oom` is consumed by the next upload instead of
/// the next launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The Nth kernel launch is rejected.
    LaunchFail,
    /// The Nth kernel launch trips the watchdog timeout.
    Timeout,
    /// The Nth kernel launch finds the device gone; the device stays lost.
    DeviceLost,
    /// One harness shard of the Nth (parallel) kernel launch panics.
    ShardPanic,
    /// The Nth *upload* on the device exceeds simulated device memory.
    Oom,
}

/// One armed failure: fires on the `after`-th subsequent launch (or
/// upload, for [`FaultKind::Oom`]) observed on `device`, 0-based — i.e.
/// `after` operations succeed first.
#[derive(Clone, Copy, Debug)]
struct Plan {
    device: u32,
    kind: FaultKind,
    after: u32,
}

static PLANS: Mutex<Vec<Plan>> = Mutex::new(Vec::new());
thread_local! {
    static FAULTS_SERVED: Cell<u64> = const { Cell::new(0) };
}

/// Arms one failure against device `device`
/// ([`Device::id`](crate::Device::id)): `after` launches (uploads for
/// [`FaultKind::Oom`]) succeed, then the next one fails with `kind`.
/// One-shot — the plan is removed when it fires.
pub fn inject_fault(device: u32, kind: FaultKind, after: u32) {
    PLANS.lock().expect("fault registry").push(Plan {
        device,
        kind,
        after,
    });
}

/// Derives a failure deterministically from `seed` — the kind from the
/// low bits, the launch index uniformly in `0..window` — arms it against
/// `device`, and returns it so the test can assert against the drawn plan.
pub fn seeded_fault(device: u32, seed: u64, window: u32) -> (FaultKind, u32) {
    // splitmix64: the workspace's stateless mixing function of choice.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let kind = match z % 4 {
        0 => FaultKind::LaunchFail,
        1 => FaultKind::Timeout,
        2 => FaultKind::DeviceLost,
        _ => FaultKind::ShardPanic,
    };
    let after = ((z >> 32) % u64::from(window.max(1))) as u32;
    inject_fault(device, kind, after);
    (kind, after)
}

/// Removes every armed failure against `device` (stalls are per thread,
/// not per device, and unaffected).
pub fn clear_device(device: u32) {
    PLANS
        .lock()
        .expect("fault registry")
        .retain(|p| p.device != device);
}

/// Failures fired at launches and uploads the *calling thread* issued
/// (diagnostic; lets tests assert the injection actually happened). Per
/// thread because an engine run faults on the thread that drives it, and
/// tests running in parallel must not see each other's injections.
pub fn faults_served() -> u64 {
    FAULTS_SERVED.get()
}

/// Consumes the first due launch-boundary failure for `device`, advancing
/// every other armed launch plan on that device by one observed launch.
pub(crate) fn take_launch_fault(device: u32) -> Option<FaultKind> {
    take_fault(device, false)
}

/// Consumes the first due upload-boundary ([`FaultKind::Oom`]) failure for
/// `device`, advancing other armed upload plans on that device.
pub(crate) fn take_upload_fault(device: u32) -> Option<FaultKind> {
    take_fault(device, true)
}

fn take_fault(device: u32, upload: bool) -> Option<FaultKind> {
    let mut plans = PLANS.lock().expect("fault registry");
    let mut fired: Option<FaultKind> = None;
    let mut fired_at: Option<usize> = None;
    for (i, p) in plans.iter_mut().enumerate() {
        if p.device != device || (p.kind == FaultKind::Oom) != upload {
            continue;
        }
        if p.after == 0 {
            if fired.is_none() {
                fired = Some(p.kind);
                fired_at = Some(i);
            }
        } else {
            p.after -= 1;
        }
    }
    if let Some(i) = fired_at {
        plans.remove(i);
        FAULTS_SERVED.set(FAULTS_SERVED.get() + 1);
    }
    fired
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::KernelCtx;
    use std::time::Instant;

    #[test]
    fn armed_stall_delays_exactly_n_launches() {
        let cfg = DeviceConfig::default();
        inject_kernel_stall(2, 20_000);
        let before = stalls_served();
        let t0 = Instant::now();
        let _a = KernelCtx::new(&cfg);
        let _b = KernelCtx::new(&cfg);
        let stalled = t0.elapsed();
        assert!(stalled >= Duration::from_millis(30), "stalls not served");
        assert_eq!(stalls_served() - before, 2);
        // Disarmed now: further launches are unaffected.
        let t1 = Instant::now();
        let _c = KernelCtx::new(&cfg);
        assert!(t1.elapsed() < Duration::from_millis(15));
        // A repeated launch serves the hook exactly when its original did:
        // a launch does, a fused fragment does not.
        let mut d = crate::Device::titan_v();
        d.launch("k", |ctx| ctx.alu(1)).unwrap();
        d.launch_fused("fragment", |ctx| ctx.alu(1)).unwrap();
        inject_kernel_stall(5, 0);
        let before = stalls_served();
        d.relaunch(0).unwrap();
        d.relaunch(1).unwrap();
        assert_eq!(stalls_served() - before, 1);
        // Disarm this thread only: `clear` would also drop the plans sibling
        // tests hold armed.
        inject_kernel_stall(0, 0);
    }

    #[test]
    fn an_armed_plan_counts_a_relaunch_and_fires_on_one() {
        let mut d = crate::Device::titan_v();
        d.launch("k", |ctx| ctx.alu(1)).unwrap();
        inject_fault(d.id(), FaultKind::LaunchFail, 1);
        d.relaunch(0).unwrap();
        let (device, kernel) = (d.id(), "k");
        assert_eq!(
            d.relaunch(0),
            Err(crate::DeviceError::LaunchFailed { device, kernel })
        );
        assert_eq!(
            d.kernel_log().len(),
            2,
            "the rejected repeat charged nothing"
        );
    }

    #[test]
    fn plan_fires_on_the_nth_launch_and_only_there() {
        // Use an id far outside what Device's counter hands out in any
        // realistic test run so concurrent tests never observe this plan.
        let dev = 0xFAB0_0001;
        inject_fault(dev, FaultKind::LaunchFail, 2);
        assert_eq!(take_launch_fault(dev), None);
        assert_eq!(take_launch_fault(dev), None);
        let before = faults_served();
        assert_eq!(take_launch_fault(dev), Some(FaultKind::LaunchFail));
        assert_eq!(faults_served(), before + 1);
        // One-shot: the plan is gone.
        assert_eq!(take_launch_fault(dev), None);
    }

    #[test]
    fn plans_are_per_device_and_per_boundary() {
        let a = 0xFAB0_0002;
        let b = 0xFAB0_0003;
        inject_fault(a, FaultKind::Oom, 0);
        inject_fault(b, FaultKind::Timeout, 0);
        // Launches never consume OOM plans; uploads never consume launch
        // plans; device a never sees device b's plan.
        assert_eq!(take_launch_fault(a), None);
        assert_eq!(take_upload_fault(b), None);
        assert_eq!(take_upload_fault(a), Some(FaultKind::Oom));
        assert_eq!(take_launch_fault(b), Some(FaultKind::Timeout));
    }

    #[test]
    fn seeded_fault_is_deterministic() {
        let dev = 0xFAB0_0004;
        let (k1, n1) = seeded_fault(dev, 42, 10);
        clear_device(dev);
        let (k2, n2) = seeded_fault(dev, 42, 10);
        assert_eq!((k1, n1), (k2, n2));
        assert!(n1 < 10);
        clear_device(dev);
        assert_eq!(take_launch_fault(dev), None);
        assert_eq!(take_upload_fault(dev), None);
    }
}
