//! One simulated GPU: kernel launches, transfers, and the modeled clock.

use crate::config::DeviceConfig;
use crate::cost::CostModel;
use crate::counters::KernelCounters;
use crate::error::DeviceError;
use crate::faults::{FaultKind, FaultPlan};
use crate::kernel::KernelCtx;
use glp_trace::{Category, Clock, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Process-unique device ids, so error reports can name a specific card
/// even when tests construct devices concurrently.
static NEXT_DEVICE_ID: AtomicU32 = AtomicU32::new(0);

/// A simulated GPU accumulating modeled time and event totals.
///
/// Every launch and upload is fallible: faults read from an attached
/// [`FaultPlan`](crate::faults::FaultPlan), a
/// natural device-memory overflow, a panicking kernel shard, or a device
/// already marked lost all surface as [`DeviceError`]s instead of panics,
/// so the engine layer above can retry, resume, or degrade.
///
/// ```
/// use glp_gpusim::Device;
/// let mut device = Device::titan_v();
/// let sum = device
///     .launch("reduce", |ctx| {
///         ctx.global_read_seq(0, 1 << 20, 4); // stream 4 MiB
///         ctx.alu(1 << 15);
///         42u64
///     })
///     .expect("healthy device");
/// assert_eq!(sum, 42);
/// assert!(device.elapsed_seconds() > 0.0);
/// ```
#[derive(Debug)]
pub struct Device {
    id: u32,
    cfg: DeviceConfig,
    cost: CostModel,
    totals: KernelCounters,
    elapsed_s: f64,
    transfer_s: f64,
    resident_bytes: u64,
    lost: bool,
    kernel_log: Vec<KernelRecord>,
    tracer: Option<Tracer>,
    /// The attached plan and this device's launches and uploads since.
    faults: Option<(Arc<FaultPlan>, [u64; 2])>,
}

/// One entry of the per-device kernel log.
#[derive(Clone, Debug)]
pub struct KernelRecord {
    /// Kernel name as passed to [`Device::launch`].
    pub name: &'static str,
    /// Modeled seconds this launch took.
    pub seconds: f64,
    /// Event counts of this launch.
    pub counters: KernelCounters,
}

impl Device {
    /// A device with the given configuration and the default cost model.
    pub fn new(cfg: DeviceConfig) -> Self {
        Self {
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            cfg,
            cost: CostModel::default(),
            totals: KernelCounters::default(),
            elapsed_s: 0.0,
            transfer_s: 0.0,
            resident_bytes: 0,
            lost: false,
            kernel_log: Vec::new(),
            tracer: None,
            faults: None,
        }
    }

    /// The paper's device: a modeled Titan V.
    pub fn titan_v() -> Self {
        Self::new(DeviceConfig::titan_v())
    }

    /// Process-unique device id (what errors reference).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Whether the device has fallen off the bus. Sticky: lost devices
    /// fail every later launch/upload with [`DeviceError::Lost`].
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Marks the device lost (what a `DeviceLost` fault does at the launch
    /// boundary; exposed so tests and simulations can force a loss
    /// directly).
    pub fn mark_lost(&mut self) {
        self.lost = true;
    }

    /// Attaches (or detaches, with `None`) a tracer. While attached, every
    /// committed kernel launch and every modeled transfer records a
    /// [`Clock::Modeled`] span whose duration is the cost model's charge —
    /// simulated time, not wall time. Tracing only *observes* the clock:
    /// modeled seconds, counters, and the kernel log are byte-identical
    /// with and without a tracer.
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    /// Attaches (or detaches, with `None`) a fault plan. The launch
    /// boundary — plain, fused, sharded and repeated launches alike — and
    /// [`Self::upload`] read it: a
    /// [`Fault::Device`](crate::faults::Fault::Device) fires at this
    /// device's `at`-th launch (upload, for `Oom`) counted from here.
    /// With no plan attached each boundary is one `Option` test.
    pub fn set_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan.map(|plan| (plan, [0, 0]));
    }

    /// Counts one launch (`upload`: one upload) against the attached plan
    /// and returns the failure due there, if any.
    fn fault_due(&mut self, upload: bool) -> Option<FaultKind> {
        let (plan, seen) = self.faults.as_mut()?;
        let index = seen[usize::from(upload)];
        seen[usize::from(upload)] += 1;
        plan.device_fault_due(index, upload)
    }

    /// Rendering track for this device's spans (0 is the host/engine
    /// thread, so devices are offset by one).
    fn track(&self) -> u32 {
        self.id + 1
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Replaces the cost model (for calibration experiments).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Checks the launch boundary: lost devices and faults the attached
    /// plan has due turn into errors before any kernel code runs.
    fn pre_launch(&mut self, kernel: &'static str) -> Result<(), DeviceError> {
        if self.lost {
            return Err(DeviceError::Lost { device: self.id });
        }
        if let Some(kind) = self.fault_due(false) {
            return Err(match kind {
                FaultKind::LaunchFail => DeviceError::LaunchFailed {
                    device: self.id,
                    kernel,
                },
                FaultKind::Timeout => DeviceError::Timeout {
                    device: self.id,
                    kernel,
                },
                FaultKind::DeviceLost => {
                    self.lost = true;
                    DeviceError::Lost { device: self.id }
                }
                FaultKind::ShardPanic => DeviceError::ShardPanicked {
                    device: self.id,
                    shard: 0,
                },
                FaultKind::Oom => unreachable!("OOM faults fire at the upload boundary"),
            });
        }
        Ok(())
    }

    /// Runs one kernel: `f` executes immediately on the calling thread with
    /// a fresh [`KernelCtx`]; its counters are charged to this device's
    /// modeled clock. A panic inside `f` is captured and surfaced as
    /// [`DeviceError::ShardPanicked`] — no time is charged for a launch
    /// that produced no result.
    pub fn launch<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut KernelCtx) -> R,
    ) -> Result<R, DeviceError> {
        self.launch_inline(name, |cfg| KernelCtx::new(cfg), f)
    }

    /// Runs a kernel *fragment* fused into an adjacent launch: `f`'s
    /// counters are charged to the modeled clock (memory traffic, ALU,
    /// reductions) but no per-launch overhead is added — the fragment
    /// rides in a kernel that was already going to launch. This models
    /// the standard direction-optimization trick of computing frontier
    /// statistics as a byproduct of the pass that produces the frontier
    /// flags, rather than paying a dedicated launch for a tiny
    /// reduction. The fragment still appears in the kernel log under its
    /// own name so traces and profiles can attribute its cost.
    pub fn launch_fused<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut KernelCtx) -> R,
    ) -> Result<R, DeviceError> {
        self.launch_inline(name, |cfg| KernelCtx::shard(cfg), f)
    }

    /// [`Self::launch`] with the context `ctx` makes: one that charges the
    /// launch overhead, or a fused fragment's that does not.
    fn launch_inline<R>(
        &mut self,
        name: &'static str,
        ctx: fn(&DeviceConfig) -> KernelCtx,
        f: impl FnOnce(&mut KernelCtx) -> R,
    ) -> Result<R, DeviceError> {
        self.pre_launch(name)?;
        let cfg = &self.cfg;
        match catch_unwind(AssertUnwindSafe(move || {
            let mut ctx = ctx(cfg);
            let r = f(&mut ctx);
            (ctx.counters, r)
        })) {
            Ok((counters, r)) => {
                self.commit(name, counters);
                Ok(r)
            }
            Err(_) => Err(DeviceError::ShardPanicked {
                device: self.id,
                shard: 0,
            }),
        }
    }

    /// Runs one kernel with one harness OS thread per element of `parts`
    /// (harness-side parallelism only: the shards' counters are summed into
    /// one launch), handing each shard its element *by value* — so a shard
    /// can own a `&mut` sub-slice of the launch's output and write results
    /// in place instead of returning them. A single part runs on the
    /// calling thread; with no parts the launch still happens (and charges
    /// its overhead) but runs nothing. The per-shard return values come back
    /// in shard order. A panic in any shard is captured at the join
    /// boundary and surfaced as [`DeviceError::ShardPanicked`] carrying the
    /// first panicked shard's index; the launch then charges nothing.
    pub fn launch_sharded<S, R, F>(
        &mut self,
        name: &'static str,
        mut parts: Vec<S>,
        f: F,
    ) -> Result<Vec<R>, DeviceError>
    where
        S: Send,
        R: Send,
        F: Fn(S, &mut KernelCtx) -> R + Sync,
    {
        self.pre_launch(name)?;
        let cfg = &self.cfg;
        let run = |part: S| {
            let mut ctx = KernelCtx::shard(cfg);
            let r = f(part, &mut ctx);
            (ctx.counters, r)
        };
        // The shards' contexts charge no overhead; the merge base, one launch.
        let mut merged = KernelCounters {
            kernel_launches: 1,
            ..KernelCounters::default()
        };
        let results: Vec<std::thread::Result<(KernelCounters, R)>> = if parts.len() == 1 {
            let part = parts.pop().expect("one part");
            vec![catch_unwind(AssertUnwindSafe(|| run(part)))]
        } else {
            let run = &run;
            std::thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .into_iter()
                    .map(|part| scope.spawn(move || run(part)))
                    .collect();
                // The join boundary is the panic-capture point: a panicking
                // shard surfaces as Err here instead of tearing the process
                // down.
                handles.into_iter().map(|h| h.join()).collect()
            })
        };
        let mut out = Vec::with_capacity(results.len());
        for (shard, res) in results.into_iter().enumerate() {
            match res {
                Ok((c, r)) => {
                    merged.merge(&c);
                    out.push(r);
                }
                Err(_) => {
                    return Err(DeviceError::ShardPanicked {
                        device: self.id,
                        shard,
                    })
                }
            }
        }
        self.commit(name, merged);
        Ok(out)
    }

    /// Repeats the launch logged at `logged` (an index into
    /// [`Self::kernel_log`]) without running its kernel code: the caller
    /// holds the results already and warrants the kernel would compute and
    /// count exactly what it did then. The repeat passes the same launch
    /// boundary — a lost device and an attached fault plan both apply — and
    /// is charged and logged from the recorded counters as a fresh launch,
    /// so the clock, totals, log and trace cannot tell it from one that ran.
    pub fn relaunch(&mut self, logged: usize) -> Result<(), DeviceError> {
        let KernelRecord { name, counters, .. } = self.kernel_log[logged];
        self.pre_launch(name)?;
        self.commit(name, counters);
        Ok(())
    }

    fn commit(&mut self, name: &'static str, counters: KernelCounters) {
        let seconds = self.cost.kernel_seconds(&self.cfg, &counters);
        self.totals.merge(&counters);
        if let Some(t) = &self.tracer {
            // Commit runs once per launch on the calling thread (even for
            // sharded launches), so span order is deterministic and the
            // span nests under whatever the engine thread has open.
            t.complete_on(
                Category::Kernel,
                name,
                Clock::Modeled,
                self.track(),
                self.elapsed_s,
                seconds,
            );
        }
        self.elapsed_s += seconds;
        self.kernel_log.push(KernelRecord {
            name,
            seconds,
            counters,
        });
    }

    /// Models a host→device copy: charges PCIe time and tracks residency.
    ///
    /// Fails with [`DeviceError::OutOfMemory`] when the copy would exceed
    /// device memory — callers should fall back to the hybrid out-of-core
    /// mode (that is the paper's own rule) — and with
    /// [`DeviceError::Lost`] on a lost device. An `Oom` fault the attached
    /// plan has due fails the upload even when the bytes would fit
    /// (simulated fragmentation / exhaustion by a co-tenant).
    pub fn upload(&mut self, bytes: u64) -> Result<(), DeviceError> {
        if self.lost {
            return Err(DeviceError::Lost { device: self.id });
        }
        if self.fault_due(true).is_some() {
            return Err(DeviceError::OutOfMemory {
                device: self.id,
                requested: bytes,
                resident: self.resident_bytes,
                capacity: self.cfg.global_mem_bytes,
            });
        }
        if self.resident_bytes + bytes > self.cfg.global_mem_bytes {
            return Err(DeviceError::OutOfMemory {
                device: self.id,
                requested: bytes,
                resident: self.resident_bytes,
                capacity: self.cfg.global_mem_bytes,
            });
        }
        self.resident_bytes += bytes;
        let s = self.cost.transfer_seconds(&self.cfg, bytes);
        if let Some(t) = &self.tracer {
            t.complete_on(
                Category::Transfer,
                "upload",
                Clock::Modeled,
                self.track(),
                self.elapsed_s,
                s,
            );
        }
        self.elapsed_s += s;
        self.transfer_s += s;
        Ok(())
    }

    /// Models a device→host copy (no residency change).
    pub fn download(&mut self, bytes: u64) {
        let s = self.cost.transfer_seconds(&self.cfg, bytes);
        if let Some(t) = &self.tracer {
            t.complete_on(
                Category::Transfer,
                "download",
                Clock::Modeled,
                self.track(),
                self.elapsed_s,
                s,
            );
        }
        self.elapsed_s += s;
        self.transfer_s += s;
    }

    /// Frees `bytes` of device residency (chunk eviction in hybrid mode).
    pub fn free(&mut self, bytes: u64) {
        assert!(bytes <= self.resident_bytes, "freeing more than resident");
        self.resident_bytes -= bytes;
    }

    /// Frees everything resident (engine cleanup after a failed run).
    pub fn free_all(&mut self) {
        self.resident_bytes = 0;
    }

    /// Whether `bytes` more would still fit in device memory.
    pub fn fits(&self, bytes: u64) -> bool {
        self.resident_bytes + bytes <= self.cfg.global_mem_bytes
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Total modeled elapsed seconds (kernels + transfers).
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_s
    }

    /// Modeled seconds spent on PCIe transfers alone (the paper reports
    /// transfer overhead is <10% of hybrid-mode runtime — we verify that).
    pub fn transfer_seconds(&self) -> f64 {
        self.transfer_s
    }

    /// Aggregated event counts across all launches.
    pub fn totals(&self) -> &KernelCounters {
        &self.totals
    }

    /// Per-launch log.
    pub fn kernel_log(&self) -> &[KernelRecord] {
        &self.kernel_log
    }

    /// Advances the modeled clock without events (used by multi-GPU sync).
    pub fn advance_clock(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot rewind the modeled clock");
        self.elapsed_s += seconds;
    }

    /// Clears clock, counters, log, and residency. Does *not* revive a
    /// lost device — a card that fell off the bus stays gone.
    pub fn reset(&mut self) {
        self.totals = KernelCounters::default();
        self.elapsed_s = 0.0;
        self.transfer_s = 0.0;
        self.resident_bytes = 0;
        self.kernel_log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    #[test]
    fn launch_accumulates_time_and_counters() {
        let mut d = Device::titan_v();
        let out = d
            .launch("k", |ctx| {
                ctx.alu(1000);
                ctx.global_read_seq(0, 1 << 20, 4);
                42
            })
            .unwrap();
        assert_eq!(out, 42);
        assert!(d.elapsed_seconds() > 0.0);
        assert_eq!(d.totals().kernel_launches, 1);
        assert_eq!(d.kernel_log().len(), 1);
        assert_eq!(d.kernel_log()[0].name, "k");
    }

    #[test]
    fn parallel_launch_counts_once() {
        let mut serial = Device::titan_v();
        serial
            .launch("k", |ctx| {
                for i in 0..8u64 {
                    ctx.alu(100);
                    ctx.global_read_seq(i * 4096, 64, 4);
                }
            })
            .unwrap();
        let mut par = Device::titan_v();
        par.launch_sharded("k", (0..4).collect(), |shard: u64, ctx| {
            for i in (shard..8).step_by(4) {
                ctx.alu(100);
                ctx.global_read_seq(i * 4096, 64, 4);
            }
        })
        .unwrap();
        assert_eq!(serial.totals(), par.totals());
        assert!((serial.elapsed_seconds() - par.elapsed_seconds()).abs() < 1e-15);
    }

    #[test]
    fn sharded_launch_writes_in_place_and_counts_once() {
        let mut out = vec![0u64; 10];
        let mut d = Device::titan_v();
        let parts: Vec<(u64, &mut [u64])> = out
            .chunks_mut(4)
            .enumerate()
            .map(|(i, c)| (i as u64 * 4, c))
            .collect();
        let lens = d
            .launch_sharded("fill", parts, |(start, chunk), ctx| {
                ctx.alu(chunk.len() as u64);
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x = (start + k as u64) * 10;
                }
                chunk.len()
            })
            .unwrap();
        assert_eq!(lens, [4, 4, 2], "results come back in shard order");
        assert_eq!(out, (0..10).map(|i| i * 10).collect::<Vec<u64>>());
        assert_eq!(d.totals().alu_instructions, 10);
        assert_eq!(d.totals().kernel_launches, 1);

        // One part runs inline and no part at all is still one launch;
        // both charge the launch overhead exactly once.
        let mut one = Device::titan_v();
        one.launch_sharded("k", vec![()], |(), ctx| ctx.alu(10))
            .unwrap();
        assert_eq!(one.totals(), d.totals());
        let mut none = Device::titan_v();
        let ran: Vec<()> = none
            .launch_sharded("k", Vec::<()>::new(), |(), _| ())
            .unwrap();
        assert!(ran.is_empty());
        assert_eq!(none.totals().kernel_launches, 1);
        assert_eq!(none.kernel_log().len(), 1);
    }

    #[test]
    fn device_ids_are_unique() {
        let a = Device::titan_v();
        let b = Device::titan_v();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn upload_charges_pcie_and_residency() {
        let mut d = Device::new(DeviceConfig::tiny(1000));
        d.upload(600).unwrap();
        assert!(!d.fits(600));
        assert!(d.fits(400));
        assert!(d.transfer_seconds() > 0.0);
        d.free(600);
        assert!(d.fits(1000));
    }

    #[test]
    fn oversized_upload_is_out_of_memory() {
        let mut d = Device::new(DeviceConfig::tiny(100));
        let err = d.upload(101).unwrap_err();
        match err {
            DeviceError::OutOfMemory {
                requested,
                capacity,
                ..
            } => {
                assert_eq!(requested, 101);
                assert_eq!(capacity, 100);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        // The failed upload charged nothing and left no residency.
        assert_eq!(d.resident_bytes(), 0);
        assert_eq!(d.transfer_seconds(), 0.0);
    }

    #[test]
    fn lost_device_fails_everything_and_stays_lost() {
        let mut d = Device::titan_v();
        d.mark_lost();
        assert!(d.is_lost());
        assert_eq!(
            d.launch("k", |_| 1).unwrap_err(),
            DeviceError::Lost { device: d.id() }
        );
        assert_eq!(
            d.upload(4).unwrap_err(),
            DeviceError::Lost { device: d.id() }
        );
        d.reset();
        assert!(d.is_lost(), "reset must not revive a lost card");
    }

    #[test]
    fn panicking_kernel_is_captured_not_fatal() {
        let mut d = Device::titan_v();
        let err = d
            .launch("boom", |_ctx| -> u32 { panic!("injected kernel bug") })
            .unwrap_err();
        assert_eq!(
            err,
            DeviceError::ShardPanicked {
                device: d.id(),
                shard: 0
            }
        );
        // Nothing was charged for the failed launch, and the device is
        // still usable afterwards.
        assert_eq!(d.kernel_log().len(), 0);
        assert_eq!(d.launch("ok", |_| 7).unwrap(), 7);
    }

    #[test]
    fn panicking_shard_reports_its_index() {
        let mut d = Device::titan_v();
        let err = d
            .launch_sharded("boom", (0..4).collect(), |shard: usize, ctx| {
                ctx.alu(10);
                assert!(shard != 2, "shard 2 panics");
                shard
            })
            .unwrap_err();
        assert_eq!(
            err,
            DeviceError::ShardPanicked {
                device: d.id(),
                shard: 2
            }
        );
        assert_eq!(d.kernel_log().len(), 0, "failed launch charges nothing");
    }

    #[test]
    fn tracer_observes_without_changing_the_clock() {
        let run = |tracer: Option<Tracer>| {
            let mut d = Device::titan_v();
            d.set_tracer(tracer);
            d.upload(1 << 20).unwrap();
            d.launch("k", |ctx| ctx.alu(1000)).unwrap();
            d.download(1 << 10);
            (
                d.elapsed_seconds(),
                d.transfer_seconds(),
                d.kernel_log().len(),
            )
        };
        let tracer = Tracer::new();
        let traced = run(Some(tracer.clone()));
        let bare = run(None);
        assert_eq!(traced, bare, "tracing must not perturb the cost model");
        let trace = tracer.finish();
        assert_eq!(trace.events.len(), 3, "upload + kernel + download");
        let spans =
            trace.category_seconds(Category::Kernel) + trace.category_seconds(Category::Transfer);
        assert!(
            (spans - traced.0).abs() < 1e-12,
            "span seconds {spans} vs clock {}",
            traced.0
        );
    }

    #[test]
    fn relaunch_repeats_a_logged_launch_exactly() {
        let tracer = Tracer::new();
        let mut d = Device::titan_v();
        d.set_tracer(Some(tracer.clone()));
        d.launch("k", |ctx| {
            ctx.alu(1000);
            ctx.global_read_seq(0, 1 << 16, 4);
        })
        .unwrap();
        d.launch_fused("fragment", |ctx| ctx.alu(7)).unwrap();
        let (clock, once) = (d.elapsed_seconds(), *d.totals());

        d.relaunch(0).unwrap();
        d.relaunch(1).unwrap();
        let log = d.kernel_log();
        assert_eq!(log.len(), 4);
        for (first, again) in log[..2].iter().zip(&log[2..]) {
            assert_eq!(first.name, again.name);
            assert_eq!(first.seconds.to_bits(), again.seconds.to_bits());
            assert_eq!(first.counters, again.counters);
        }
        // The clock took the same two additions in the same order.
        let want = (clock + log[0].seconds) + log[1].seconds;
        assert_eq!(d.elapsed_seconds().to_bits(), want.to_bits());
        let mut twice = once;
        twice.merge(&once);
        assert_eq!(*d.totals(), twice);

        // A lost device refuses the repeat at the boundary; nothing moves.
        d.mark_lost();
        assert_eq!(d.relaunch(0), Err(DeviceError::Lost { device: d.id() }));
        assert_eq!(d.kernel_log().len(), 4);
        assert_eq!(d.elapsed_seconds().to_bits(), want.to_bits());
        assert_eq!(*d.totals(), twice);

        // Four kernel spans; each repeat starts where the clock then stood.
        let trace = tracer.finish();
        let spans: Vec<_> = trace.events.iter().collect();
        assert_eq!(spans.len(), 4);
        for (first, again) in spans[..2].iter().zip(&spans[2..]) {
            assert_eq!((first.cat, first.name), (again.cat, again.name));
            assert_eq!(first.dur_s.to_bits(), again.dur_s.to_bits());
        }
        assert_eq!(spans[2].start_s.to_bits(), clock.to_bits());
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = Device::titan_v();
        d.launch("k", |ctx| ctx.alu(5)).unwrap();
        d.upload(100).unwrap();
        d.reset();
        assert_eq!(d.elapsed_seconds(), 0.0);
        assert_eq!(d.resident_bytes(), 0);
        assert!(d.kernel_log().is_empty());
    }
}
