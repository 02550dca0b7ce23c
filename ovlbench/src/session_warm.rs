//! `session-warm`: one operation is one `Session::replay`,
//! `Session::sweep` or `Session::analyze` request, served from a session
//! the warm-up pass has filled. No request traces or compiles; replay
//! (two engines, clean and perturbed), attribution and session lookup
//! are the work.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ovlsim_apps::registry::{AppOverrides, APP_NAMES};
use ovlsim_apps::ProblemClass;
use ovlsim_core::{Bandwidth, Platform, Time, TraceSet};
use ovlsim_lab::{
    sweep_compiled_threaded, ArtifactPipeline, Attribution, AttributionRecorder, DirectPipeline,
    Engine, EngineInput, TuneOptions,
};
use ovlsim_session::{
    AnalyzeRequest, PerturbSpec, PlatformSpec, ReplayRequest, ReplayResponse, Session,
    SweepRequest, SweepResponse, TraceSource,
};
use ovlsim_tracer::OverlapMode;

use crate::layers::Layers;
use crate::oracle::{self, Fnv};
use crate::{mix, permutation, Workload};

/// Ranks of the generated-source tier that exposes per-rank engine
/// scaling (the paper apps run 16 ranks).
const RANK_TIER: usize = 64;

/// Bandwidth points of one sweep request.
const SWEEP_BANDWIDTHS: [f64; 4] = [1e7, 1e8, 1e9, 1e10];

/// The trace variants the mix requests: original, linear and real.
fn modes() -> [Option<OverlapMode>; 3] {
    [None, Some(OverlapMode::linear()), Some(OverlapMode::real())]
}

/// The engine the library uses when a caller names none.
pub fn default_engine() -> Engine {
    TuneOptions::default().engine
}

pub enum Request {
    Replay(ReplayRequest),
    Sweep(SweepRequest),
    Analyze(AnalyzeRequest),
}

pub enum Out {
    Replay(ReplayResponse),
    Sweep(SweepResponse),
    Analyze(Box<(Attribution, AttributionRecorder)>),
}

pub struct SessionWarm {
    seed: u64,
    session: Session,
    requests: Vec<Request>,
    /// Cache builds after the warm-up pass; no request may add one.
    warm_builds: Option<u64>,
    refs: References,
}

/// What the checks compare against, built apart from the session.
#[derive(Default)]
struct References {
    /// Reference traces with their compute bounds, by source key.
    traces: HashMap<u128, (Arc<TraceSet>, Time)>,
    /// Naive makespans (and rank finishes) by slot and sampled replay.
    naive: HashMap<(usize, usize), (Time, Vec<Time>)>,
}

fn source(
    app: &str,
    class: ProblemClass,
    ranks: Option<usize>,
    mode: Option<OverlapMode>,
) -> TraceSource {
    TraceSource::Generated {
        app: app.to_string(),
        class,
        ranks,
        iterations: None,
        mode,
    }
}

fn builds(session: &Session) -> u64 {
    let s = session.stats();
    s.bundles.builds + s.traces.builds + s.indexes.builds + s.programs.builds
}

fn key(source: &TraceSource) -> u128 {
    let d = source.key();
    (u128::from(d.0) << 64) | u128::from(d.1)
}

/// The fixed request mix of one round, in a seeded order.
fn request_mix(seed: u64) -> Result<Vec<Request>, String> {
    let engine = default_engine();
    // Platforms cycle with the request's place in the mix, so that every
    // seed asks for the same work; the seed orders the round and seeds
    // the perturbations.
    let bandwidth = |i: u64| [1e8, 2.5e8, 1e9][(i % 3) as usize];
    let platform = |i: u64| PlatformSpec {
        bandwidth: Some(bandwidth(i)),
        latency_us: Some(5),
    };
    let perturbed = |i: u64, kind: usize| {
        let seed = Some(mix(seed, 2000 + i));
        match kind % 3 {
            0 => PerturbSpec {
                seed,
                noise: Some(0.1),
                ..PerturbSpec::default()
            },
            1 => PerturbSpec {
                seed,
                stragglers: Some((1.5, vec![0, 1])),
                ..PerturbSpec::default()
            },
            _ => PerturbSpec {
                seed,
                faults: Some((500, 50)),
                ..PerturbSpec::default()
            },
        }
    };
    let sweep_bandwidths = SWEEP_BANDWIDTHS
        .iter()
        .map(|&b| Bandwidth::from_bytes_per_sec(b).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let modes = modes();
    let mut reqs = Vec::new();
    let mut n = 0u64;
    let mut next = || {
        n += 1;
        n
    };
    for (a, app) in APP_NAMES.iter().enumerate() {
        for class in [ProblemClass::S, ProblemClass::A] {
            for mode in modes {
                let i = next();
                reqs.push(Request::Replay(ReplayRequest {
                    source: source(app, class, None, mode),
                    platform: platform(i),
                    perturb: PerturbSpec::default(),
                    engine,
                }));
            }
            let i = next();
            reqs.push(Request::Replay(ReplayRequest {
                source: source(app, class, None, modes[1]),
                platform: platform(i),
                perturb: PerturbSpec::default(),
                engine: Engine::Fastforward,
            }));
            let i = next();
            reqs.push(Request::Replay(ReplayRequest {
                source: source(app, class, None, None),
                platform: platform(i),
                perturb: perturbed(i, a),
                engine,
            }));
            let ovl = if class == ProblemClass::S {
                modes[1]
            } else {
                modes[2]
            };
            reqs.push(Request::Sweep(SweepRequest {
                original: source(app, class, None, None),
                overlapped: source(app, class, None, ovl),
                bandwidths: sweep_bandwidths.clone(),
                latency_us: Some(5),
            }));
            let i = next();
            reqs.push(Request::Analyze(AnalyzeRequest {
                source: source(app, class, None, None),
                platform: platform(i),
                perturb: if class == ProblemClass::S {
                    PerturbSpec::default()
                } else {
                    perturbed(i, a + 1)
                },
            }));
        }
        for (mode, engine) in [(None, engine), (modes[1], Engine::Fastforward)] {
            let i = next();
            reqs.push(Request::Replay(ReplayRequest {
                source: source(app, ProblemClass::S, Some(RANK_TIER), mode),
                platform: platform(i),
                perturb: PerturbSpec::default(),
                engine,
            }));
        }
    }
    let order = permutation(reqs.len(), mix(seed, 4000));
    let mut slots: Vec<Option<Request>> = reqs.into_iter().map(Some).collect();
    Ok(order
        .into_iter()
        .map(|i| {
            slots[i]
                .take()
                .expect("a permutation visits each slot once")
        })
        .collect())
}

impl References {
    /// The reference trace of `source`, traced through the uncached
    /// pipeline, and its compute bound.
    fn reference(&mut self, source: &TraceSource) -> Result<(Arc<TraceSet>, Time), String> {
        let k = key(source);
        if let Some(r) = self.traces.get(&k) {
            return Ok(r.clone());
        }
        let TraceSource::Generated {
            app,
            class,
            ranks,
            iterations,
            ..
        } = source
        else {
            return Err("the mix holds generated sources only".into());
        };
        // Trace once and keep only the variants: a bundle carries
        // per-element production and consumption profiles and is far
        // larger than its traces.
        let overrides = AppOverrides {
            ranks: *ranks,
            iterations: *iterations,
        };
        let bundle = DirectPipeline
            .bundle(app, *class, overrides)
            .map_err(|e| format!("reference trace: {e}"))?;
        for m in modes() {
            let trace = DirectPipeline
                .variant(&bundle, m)
                .map_err(|e| format!("reference transform: {e}"))?;
            let bound = oracle::compute_bound(&trace);
            let src = TraceSource::Generated {
                app: app.clone(),
                class: *class,
                ranks: *ranks,
                iterations: *iterations,
                mode: m,
            };
            self.traces.insert(key(&src), (trace, bound));
        }
        self.traces
            .get(&k)
            .cloned()
            .ok_or_else(|| "the mix uses the original, linear and real variants only".into())
    }

    /// The naive replay of sampled replay `j` of operation `slot`,
    /// memoised since every round repeats the operation.
    fn naive(
        &mut self,
        slot: usize,
        j: usize,
        source: &TraceSource,
        platform: &Platform,
    ) -> Result<(Time, Vec<Time>), String> {
        if let Some(r) = self.naive.get(&(slot, j)) {
            return Ok(r.clone());
        }
        let (trace, _) = self.reference(source)?;
        let result = oracle::naive(platform, &trace)?;
        let r = (result.total_time(), result.rank_finish().to_vec());
        self.naive.insert((slot, j), r.clone());
        Ok(r)
    }
}

fn request_platform(spec: &PlatformSpec, perturb: &PerturbSpec) -> Result<Platform, String> {
    let platform = spec.build().map_err(|e| e.to_string())?;
    perturb.apply(platform).map_err(|e| e.to_string())
}

fn sweep_base(latency_us: Option<u64>) -> Result<Platform, String> {
    PlatformSpec {
        bandwidth: None,
        latency_us,
    }
    .build()
    .map_err(|e| e.to_string())
}

impl Workload for SessionWarm {
    type Out = Out;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(SessionWarm {
            seed,
            session: Session::with_threads(1),
            requests: request_mix(seed)?,
            warm_builds: None,
            refs: References::default(),
        })
    }

    fn round_len(&self) -> usize {
        self.requests.len()
    }

    fn warmed(&mut self) {
        self.warm_builds = Some(builds(&self.session));
    }

    fn run(&mut self, slot: usize, layers: Option<&Layers>) -> Result<Out, String> {
        let stats = layers.map(|_| self.session.stats());
        let out = match &self.requests[slot] {
            Request::Replay(r) => Out::Replay(self.session.replay(r).map_err(|e| e.to_string())?),
            Request::Sweep(r) => Out::Sweep(self.session.sweep(r).map_err(|e| e.to_string())?),
            Request::Analyze(r) => Out::Analyze(Box::new(
                self.session.analyze(r).map_err(|e| e.to_string())?,
            )),
        };
        if let (Some(layers), Some(stats)) = (layers, stats) {
            layers.cache(stats, self.session.stats());
        }
        Ok(out)
    }

    fn beside(&mut self, slot: usize, _out: &Out, op_secs: f64, layers: &Layers) {
        let (replay0, attr0) = {
            let t = layers.totals();
            (t.replay.secs, t.attribution.secs)
        };
        let session = &self.session;
        let trace = |s: &TraceSource| session.trace(s).expect("the request was served");
        match &self.requests[slot] {
            Request::Replay(r) => {
                let trace = trace(&r.source);
                let platform = request_platform(&r.platform, &r.perturb).expect("served");
                let records = trace.total_records();
                let input = EngineInput::build(session, trace, &[r.engine], false).expect("served");
                let _ = layers.replay(&input, r.engine, &platform, records);
            }
            Request::Sweep(r) => {
                let (orig, ovl) = (trace(&r.original), trace(&r.overlapped));
                let orig_prog = session.compiled_standalone(&orig).expect("served");
                let ovl_prog = session.compiled_standalone(&ovl).expect("served");
                let base = sweep_base(r.latency_us).expect("served");
                let t = Instant::now();
                let _ = std::hint::black_box(sweep_compiled_threaded(
                    &orig_prog,
                    &ovl_prog,
                    &base,
                    &r.bandwidths,
                    1,
                ));
                let secs = t.elapsed().as_secs_f64();
                let points = r.bandwidths.len() as u64;
                let records = (orig.total_records() + ovl.total_records()) as u64 * points;
                let mut tot = layers.totals();
                tot.replay.calls += 2 * points;
                tot.replay.records += records;
                tot.replay.secs += secs;
            }
            Request::Analyze(r) => {
                let trace = trace(&r.source);
                let platform = request_platform(&r.platform, &r.perturb).expect("served");
                let index = session.index(&trace).expect("served");
                let t = Instant::now();
                let _ = std::hint::black_box(Attribution::analyze_with_recorder(
                    &platform, &trace, &index,
                ));
                let secs = t.elapsed().as_secs_f64();
                let mut tot = layers.totals();
                tot.attribution.calls += 1;
                tot.attribution.records += trace.total_records() as u64;
                tot.attribution.secs += secs;
            }
        }
        let mut tot = layers.totals();
        let children = (tot.replay.secs - replay0) + (tot.attribution.secs - attr0);
        tot.request_overhead_secs += op_secs - children;
    }

    fn check(&mut self, slot: usize, attempt: u64, out: &Out) -> Result<(u64, u64), String> {
        let now = builds(&self.session);
        let warm = self.warm_builds.expect("set-up ends with the warm-up pass");
        if now != warm {
            self.warm_builds = Some(now);
            return Err(format!("{} cache builds after warm-up", now - warm));
        }
        let mut digest = Fnv::default();
        let results = match (&self.requests[slot], out) {
            (Request::Replay(r), Out::Replay(resp)) => {
                let (source, platform) =
                    (r.source.clone(), request_platform(&r.platform, &r.perturb)?);
                let (_, bound) = self.refs.reference(&source)?;
                oracle::check_bound("replay", resp.total, bound, &platform)?;
                let (total, finish) = self.refs.naive(slot, 0, &source, &platform)?;
                oracle::check_equal("replay", resp.total, total)?;
                if resp.rank_finish != finish {
                    return Err("replay: rank finish times differ from the naive replay's".into());
                }
                digest.bytes(resp.to_json().as_bytes());
                1
            }
            (Request::Sweep(r), Out::Sweep(resp)) => {
                let (original, overlapped) = (r.original.clone(), r.overlapped.clone());
                let base = sweep_base(r.latency_us)?;
                let (_, orig_bound) = self.refs.reference(&original)?;
                let (_, ovl_bound) = self.refs.reference(&overlapped)?;
                if resp.points.len() != r.bandwidths.len() {
                    return Err("sweep: one point per bandwidth expected".into());
                }
                for p in &resp.points {
                    oracle::check_bound("sweep original", p.original, orig_bound, &base)?;
                    oracle::check_bound("sweep overlapped", p.overlapped, ovl_bound, &base)?;
                }
                let j = (mix(self.seed, attempt) % (2 * resp.points.len() as u64)) as usize;
                let point = &resp.points[j / 2];
                let platform = base.with_bandwidth(r.bandwidths[j / 2]);
                let (source, got) = if j.is_multiple_of(2) {
                    (original, point.original)
                } else {
                    (overlapped, point.overlapped)
                };
                let (total, _) = self.refs.naive(slot, j, &source, &platform)?;
                oracle::check_equal("sweep", got, total)?;
                digest.bytes(resp.to_json().as_bytes());
                2 * resp.points.len() as u64
            }
            (Request::Analyze(r), Out::Analyze(pair)) => {
                let (attr, rec) = pair.as_ref();
                let (source, platform) =
                    (r.source.clone(), request_platform(&r.platform, &r.perturb)?);
                oracle::check_attribution(attr, rec)?;
                let (_, bound) = self.refs.reference(&source)?;
                oracle::check_bound("analyze", attr.makespan(), bound, &platform)?;
                let (total, _) = self.refs.naive(slot, 0, &source, &platform)?;
                oracle::check_equal("analyze", attr.makespan(), total)?;
                digest.bytes(attr.to_json().as_bytes());
                1
            }
            _ => return Err("response kind differs from the request's".into()),
        };
        Ok((digest.finish(), results))
    }
}
