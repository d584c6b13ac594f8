//! The benchmark's own spans, recorded from outside the program.
//!
//! Every call into a layer goes through [`Spans::time`], which always
//! measures the call's wall time and — in a traced pass — also records a
//! span around it on a [`glp_trace::Tracer`]. The same tracer is attached
//! to the program through its existing hooks (`RunOptions::with_tracer`,
//! `ServiceCore::with_tracer`), so the program's iteration, kernel and
//! serve-stage spans nest under the benchmark's. Spans stay in memory and
//! are written once, as Chrome-trace JSON, when the run ends.

use glp_trace::{Category, Clock, Kind, Trace, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Tolerance of the containment check on the benchmark's own spans.
const SKEW_EPS_S: f64 = 1e-6;
/// Every span the benchmark records itself is named `bench.*`.
const OWN_PREFIX: &str = "bench.";

pub struct Spans {
    tracer: Option<Tracer>,
    epoch: Instant,
}

impl Spans {
    /// Tracing off: `time` only measures.
    pub fn off() -> Self {
        Self {
            tracer: None,
            epoch: Instant::now(),
        }
    }

    /// Tracing on, recording into `tracer`. Create it right after the
    /// tracer is attached to the program so both epochs agree.
    pub fn on(tracer: Tracer) -> Self {
        Self {
            tracer: Some(tracer),
            epoch: Instant::now(),
        }
    }

    /// Runs `f`, returning its result and wall seconds; with tracing on,
    /// the call is also a span named `name` carrying `arg` (the workload's
    /// rep or round index, which ties the spans of one request together).
    pub fn time<R>(&self, name: &'static str, arg: u64, f: impl FnOnce() -> R) -> (R, f64) {
        debug_assert!(name.starts_with(OWN_PREFIX), "{name}");
        if let Some(t) = &self.tracer {
            t.begin_arg(
                Category::Run,
                name,
                Clock::Wall,
                self.epoch.elapsed().as_secs_f64(),
                arg,
            );
        }
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed().as_secs_f64();
        if let Some(t) = &self.tracer {
            t.end(self.epoch.elapsed().as_secs_f64());
        }
        (out, wall)
    }

    /// Ends the recording: checks the trace is well formed, writes it
    /// under `benchmark/out/` and summarizes it. An error with tracing off.
    pub fn finish(self, file_stem: &str) -> Result<TraceSummary, String> {
        let tracer = self.tracer.ok_or("tracing was off")?;
        if tracer.open_spans() != 0 {
            return Err(format!("{} spans still open at exit", tracer.open_spans()));
        }
        let trace = tracer.finish();
        check(&trace).map_err(|e| format!("trace is not well formed: {e}"))?;
        let path = out_dir().join(format!("{file_stem}.trace.json"));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, trace.chrome_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(TraceSummary::of(&trace, path))
    }
}

/// `Trace::check_well_formed`, in two passes. The whole trace must be
/// structurally sound (unique ids, span parents, consistent depths,
/// parents begun first). Interval containment is then checked on the
/// benchmark's own spans only: the program stamps some of its wall spans
/// against run-local epochs (`ResilientEngine` starts its span at 0, the
/// serving core counts from when the tracer was attached), so a
/// containment check across that boundary would compare unrelated clocks.
fn check(trace: &Trace) -> Result<(), String> {
    trace.check_well_formed(f64::INFINITY)?;
    let own = Trace {
        events: trace
            .events
            .iter()
            .filter(|e| e.name.starts_with(OWN_PREFIX))
            .cloned()
            .collect(),
        dropped: trace.dropped,
    };
    own.check_well_formed(SKEW_EPS_S)
}

/// Where traces, result documents and scratch state go: `out/` beside
/// this package's manifest, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// What a finished trace says about where the time went.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    pub spans: u64,
    pub dropped: u64,
    /// Wall-clock self seconds of the benchmark's own spans, by name: a
    /// span's duration minus the part of it its wall-clock children cover
    /// — what a call cost outside the program's own span for it.
    pub wall_self_s: BTreeMap<&'static str, f64>,
    /// Modeled-clock seconds of leaf kernel and transfer spans — summed
    /// apart from wall time; the two clocks never mix.
    pub modeled_leaf_s: f64,
    pub path: PathBuf,
}

impl TraceSummary {
    fn of(trace: &Trace, path: PathBuf) -> Self {
        // Children grouped under their parent, same clock only.
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for e in &trace.events {
            if e.kind != Kind::Span || e.parent == 0 {
                continue;
            }
            if trace.event(e.parent).is_some_and(|p| p.clock == e.clock) {
                children
                    .entry(e.parent)
                    .or_default()
                    .push((e.start_s, e.end_s()));
            }
        }
        let mut wall_self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut modeled_leaf_s = 0.0;
        let mut spans = 0u64;
        for e in &trace.events {
            if e.kind != Kind::Span {
                continue;
            }
            spans += 1;
            match e.clock {
                // Own spans only: the program's wall spans may count from
                // run-local epochs (see `check`), which would make their
                // children's intervals meaningless to subtract.
                Clock::Wall if e.name.starts_with(OWN_PREFIX) => {
                    let covered = children
                        .get_mut(&e.id)
                        .map_or(0.0, |kids| covered_length(kids, e.start_s, e.end_s()));
                    *wall_self_s.entry(e.name).or_default() += (e.dur_s - covered).max(0.0);
                }
                Clock::Wall => {}
                Clock::Modeled => {
                    if matches!(e.cat, Category::Kernel | Category::Transfer) {
                        modeled_leaf_s += e.dur_s;
                    }
                }
            }
        }
        Self {
            spans,
            dropped: trace.dropped,
            wall_self_s,
            modeled_leaf_s,
            path,
        }
    }

    pub fn wall_self_total(&self) -> f64 {
        self.wall_self_s.values().sum()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_length(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_length_merges_overlaps_and_clips() {
        let mut iv = vec![(0.5, 1.5), (1.0, 2.0), (3.0, 9.0), (-1.0, 0.25)];
        // Union within [0, 4]: [0, 0.25] + [0.5, 2.0] + [3.0, 4.0].
        assert!((covered_length(&mut iv, 0.0, 4.0) - 2.75).abs() < 1e-12);
        assert_eq!(covered_length(&mut [], 0.0, 1.0), 0.0);
    }

    #[test]
    fn time_measures_with_tracing_off_and_nests_with_it_on() {
        let off = Spans::off();
        let (v, wall) = off.time("bench.call", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(wall >= 0.0);
        assert!(off.finish("unused").is_err());

        let tracer = Tracer::new();
        let on = Spans::on(tracer.clone());
        on.time("bench.outer", 3, || {
            on.time("bench.inner", 3, || std::hint::black_box(1));
            tracer.complete(Category::Kernel, "k", Clock::Modeled, 0.0, 0.25);
        });
        let summary = on.finish("spans-selftest").unwrap();
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.modeled_leaf_s, 0.25);
        assert!(summary.wall_self_s.contains_key("bench.outer"));
        assert!(summary.path.exists());
        std::fs::remove_file(summary.path).unwrap();
    }
}
