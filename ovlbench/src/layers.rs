//! The traced run: per-layer timers and counters, kept in memory and
//! folded into per-layer metrics when the run ends.
//!
//! Layer calls are timed from the benchmark's side of the program's
//! public API. [`TimedPipeline`] wraps a [`Session`] at the
//! `ArtifactPipeline` seam, so every bundle, variant, index and compile
//! request a campaign or a tune search makes is timed where it happens.
//! Calls that sit inside another public function with no seam (the
//! replay engines, attribution) are timed beside the operation on the
//! same inputs, by the workloads.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ovlsim_apps::registry::AppOverrides;
use ovlsim_apps::ProblemClass;
use ovlsim_core::{CompiledTrace, Platform, TraceIndex, TraceSet};
use ovlsim_lab::{ArtifactPipeline, Engine, EngineInput, LabError};
use ovlsim_session::{CacheStats, Session};
use ovlsim_tracer::{OverlapMode, TraceBundle};

/// Time and work of one layer, summed over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    /// Calls that did the layer's work (cache hits excluded where the
    /// session's counters tell them apart).
    pub calls: u64,
    /// Trace records the layer processed in those calls.
    pub records: u64,
    /// Wall time of every call into the layer, hits included.
    pub secs: f64,
}

impl Stage {
    fn add(&mut self, calls: u64, records: u64, secs: f64) {
        self.calls += calls;
        self.records += records;
        self.secs += secs;
    }

    fn rate(&self) -> f64 {
        if self.secs > 0.0 {
            self.records as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// Everything a traced run records, summed over its timed operations.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// `tracer`: app tracing (bundle builds).
    pub trace: Stage,
    /// `tracer`: overlap transform (variant synthesis).
    pub transform: Stage,
    /// `core`: validate + channel index.
    pub index: Stage,
    /// `core`: compile to the flat replay program.
    pub compile: Stage,
    /// `dimemas`: every replay, whatever the engine.
    pub replay: Stage,
    /// `dimemas`: replays on the fast-forward engine.
    pub ff_replay: Stage,
    /// `dimemas`: replays on perturbed platforms.
    pub perturbed_replay: Stage,
    /// `lab`: attribution and critical-path analysis.
    pub attribution: Stage,
    /// `lab`: report rendering.
    pub render: Stage,
    /// `lab`: campaign runner self time (operation minus its children).
    pub campaign_self_secs: f64,
    /// `lab`: tune search self time (operation minus its children).
    pub tune_self_secs: f64,
    /// `lab`: candidate evaluations of tune searches.
    pub tune_evals: u64,
    /// `lab`: accepted candidates of tune searches (baseline excluded).
    pub tune_accepted: u64,
    /// `session`: request time outside replay and attribution.
    pub request_overhead_secs: f64,
    /// `session`: artifact-cache hits.
    pub cache_hits: u64,
    /// `session`: artifact builds.
    pub builds: u64,
}

/// The in-memory trace of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    totals: Mutex<Totals>,
    /// Traces handed to `compiled_standalone` since the last take: one
    /// per candidate a tune search scores.
    programs: Mutex<Vec<Arc<TraceSet>>>,
}

impl Layers {
    /// Takes the traces whose programs were asked for since the last
    /// call.
    pub fn take_programs(&self) -> Vec<Arc<TraceSet>> {
        std::mem::take(
            &mut *self
                .programs
                .lock()
                .expect("a layer timer panicked while holding the program list"),
        )
    }

    /// Locks the running totals.
    pub fn totals(&self) -> MutexGuard<'_, Totals> {
        self.totals
            .lock()
            .expect("a layer timer panicked while holding the totals")
    }

    /// Times one replay on `engine` beside the operation, charging it to
    /// `dimemas` (and to the engine's and platform's own rows).
    pub fn replay(
        &self,
        input: &EngineInput,
        engine: Engine,
        platform: &Platform,
        records: usize,
    ) -> Result<ovlsim_dimemas::ReplayResult, String> {
        let t = Instant::now();
        let result = std::hint::black_box(input.replay(engine, platform))
            .map_err(|e| format!("replay: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let records = records as u64;
        let mut tot = self.totals();
        tot.replay.add(1, records, secs);
        if engine == Engine::Fastforward {
            tot.ff_replay.add(1, records, secs);
        }
        if !platform.perturbation().is_identity() {
            tot.perturbed_replay.add(1, records, secs);
        }
        Ok(result)
    }

    /// Adds one operation's session counters.
    pub fn cache(&self, before: CacheStats, after: CacheStats) {
        let mut tot = self.totals();
        tot.cache_hits += hits(after) - hits(before);
        tot.builds += builds(after) - builds(before);
    }

    /// The per-layer metrics of a run of `ops` operations, in the order
    /// `BENCHMARK.json` lists them.
    pub fn metrics(&self, ops: usize) -> Vec<(&'static str, f64, &'static str)> {
        let t = self.totals();
        let n = ops.max(1) as f64;
        let ms = |secs: f64| secs * 1e3 / n;
        let per_op = |count: u64| count as f64 / n;
        let accept_ratio = if t.tune_evals > 0 {
            // Evaluation 0 of every search is the baseline, accepted by
            // definition; the ratio counts proposals only.
            let proposals = t.tune_evals.saturating_sub(ops as u64);
            if proposals > 0 {
                t.tune_accepted as f64 / proposals as f64
            } else {
                0.0
            }
        } else {
            0.0
        };
        vec![
            ("tracer.trace_ms", ms(t.trace.secs), "ms"),
            ("tracer.trace_calls", per_op(t.trace.calls), "count"),
            ("tracer.trace_records_per_s", t.trace.rate(), "1/s"),
            ("tracer.transform_ms", ms(t.transform.secs), "ms"),
            ("tracer.transform_records_per_s", t.transform.rate(), "1/s"),
            ("core.index_ms", ms(t.index.secs), "ms"),
            ("core.index_calls", per_op(t.index.calls), "count"),
            ("core.compile_ms", ms(t.compile.secs), "ms"),
            ("core.compile_calls", per_op(t.compile.calls), "count"),
            ("core.compile_records_per_s", t.compile.rate(), "1/s"),
            ("dimemas.replay_ms", ms(t.replay.secs), "ms"),
            ("dimemas.replays", per_op(t.replay.calls), "count"),
            ("dimemas.records_per_s", t.replay.rate(), "1/s"),
            (
                "dimemas.fastforward_records_per_s",
                t.ff_replay.rate(),
                "1/s",
            ),
            (
                "dimemas.perturbed_records_per_s",
                t.perturbed_replay.rate(),
                "1/s",
            ),
            ("lab.attribution_ms", ms(t.attribution.secs), "ms"),
            ("lab.campaign_self_ms", ms(t.campaign_self_secs), "ms"),
            ("lab.render_ms", ms(t.render.secs), "ms"),
            ("lab.tune_evals", per_op(t.tune_evals), "count"),
            ("lab.tune_accept_ratio", accept_ratio, "ratio"),
            ("lab.tune_self_ms", ms(t.tune_self_secs), "ms"),
            (
                "session.request_overhead_ms",
                ms(t.request_overhead_secs),
                "ms",
            ),
            ("session.cache_hits", per_op(t.cache_hits), "count"),
            ("session.builds", per_op(t.builds), "count"),
        ]
    }
}

fn hits(s: CacheStats) -> u64 {
    s.bundles.hits + s.traces.hits + s.indexes.hits + s.programs.hits
}

fn builds(s: CacheStats) -> u64 {
    s.bundles.builds + s.traces.builds + s.indexes.builds + s.programs.builds
}

/// A [`Session`] seen through the `ArtifactPipeline` seam with every
/// call timed. Results are the session's own: the wrapper only reads
/// the clock and the session's counters around each call.
pub struct TimedPipeline<'a> {
    /// The session doing the work.
    pub session: &'a Session,
    /// Where the timings go.
    pub layers: &'a Layers,
}

impl TimedPipeline<'_> {
    fn timed<T>(
        &self,
        stage: fn(&mut Totals) -> &mut Stage,
        built: fn(&CacheStats) -> u64,
        records: impl FnOnce(&T) -> usize,
        call: impl FnOnce() -> Result<T, LabError>,
    ) -> Result<T, LabError> {
        let before = built(&self.session.stats());
        let t = Instant::now();
        let out = call()?;
        let secs = t.elapsed().as_secs_f64();
        let builds = built(&self.session.stats()) - before;
        let recs = if builds > 0 { records(&out) as u64 } else { 0 };
        stage(&mut self.layers.totals()).add(builds, recs, secs);
        Ok(out)
    }
}

impl ArtifactPipeline for TimedPipeline<'_> {
    fn bundle(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
    ) -> Result<Arc<TraceBundle>, LabError> {
        self.timed(
            |t| &mut t.trace,
            |s| s.bundles.builds,
            |b: &Arc<TraceBundle>| b.original().total_records(),
            || self.session.bundle(app, class, overrides),
        )
    }

    fn variant(
        &self,
        bundle: &TraceBundle,
        mode: Option<OverlapMode>,
    ) -> Result<Arc<TraceSet>, LabError> {
        if mode.is_none() {
            // The original variant is a copy of the traced records, not
            // a transform.
            return self.session.variant(bundle, mode);
        }
        self.timed(
            |t| &mut t.transform,
            |s| s.traces.builds,
            |ts: &Arc<TraceSet>| ts.total_records(),
            || self.session.variant(bundle, mode),
        )
    }

    fn load_variant(
        &self,
        app: &str,
        class: ProblemClass,
        overrides: AppOverrides,
        mode: Option<OverlapMode>,
    ) -> Option<Arc<TraceSet>> {
        self.session.load_variant(app, class, overrides, mode)
    }

    fn index(&self, trace: &Arc<TraceSet>) -> Result<Arc<TraceIndex>, LabError> {
        self.timed(
            |t| &mut t.index,
            |s| s.indexes.builds,
            |_| trace.total_records(),
            || self.session.index(trace),
        )
    }

    fn compiled(
        &self,
        trace: &Arc<TraceSet>,
        index: &Arc<TraceIndex>,
    ) -> Result<Arc<CompiledTrace>, LabError> {
        self.timed(
            |t| &mut t.compile,
            |s| s.programs.builds,
            |_| trace.total_records(),
            || self.session.compiled(trace, index),
        )
    }

    /// An in-memory session serves a standalone program by index then
    /// compile; the wrapper makes the two calls itself so each is timed
    /// as its own layer.
    fn compiled_standalone(&self, trace: &Arc<TraceSet>) -> Result<Arc<CompiledTrace>, LabError> {
        self.layers
            .programs
            .lock()
            .expect("a layer timer panicked while holding the program list")
            .push(Arc::clone(trace));
        let index = self.index(trace)?;
        self.compiled(trace, &index)
    }
}
