//! `campaign-cold`: one operation is one app × class slice of the paper
//! campaign (20 points), run on a fresh `Session` at one worker thread
//! and rendered to JSON and CSV, as `ovlsim campaign run` does. Every
//! operation pays tracing, the overlap transform, index, compile, replay
//! and rendering.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ovlsim_apps::registry::AppOverrides;
use ovlsim_core::{Platform, Time, TraceSet};
use ovlsim_lab::{
    campaign::CampaignPoint, run_campaign_with, ArtifactPipeline, CampaignReport, CampaignSpec,
    DirectPipeline, EngineInput,
};
use ovlsim_session::Session;

use crate::layers::{Layers, TimedPipeline, Totals};
use crate::oracle::{self, Fnv};
use crate::{mix, permutation, Workload};

const PAPER_CAMPAIGN: &str = include_str!("../../examples/campaigns/paper.campaign");

/// Reference traces of one slice, traced apart from the session under
/// test, with their compute bounds.
struct SliceRef {
    original: (Arc<TraceSet>, Time),
    /// Keyed by overlap-mode label.
    overlapped: HashMap<String, (Arc<TraceSet>, Time)>,
}

pub struct CampaignCold {
    seed: u64,
    /// The slices in the seeded run order.
    slices: Vec<CampaignSpec>,
    refs: Vec<Option<SliceRef>>,
    /// Naive makespans (original, overlapped), by slot and point.
    oracle: HashMap<(usize, usize), (Time, Time)>,
}

pub struct Out {
    report: CampaignReport,
    rendered: [String; 2],
    /// Traced run only: the operation's session and the totals before it.
    traced: Option<(Session, Totals)>,
}

/// The platform of one campaign point, built the way the campaign
/// runner documents it.
fn point_platform(spec: &CampaignSpec, point: &CampaignPoint) -> Platform {
    let mut platform = Platform::builder()
        .latency(spec.latency)
        .intra_node_bandwidth(spec.intra_bandwidth)
        .build()
        .with_bandwidth(point.bandwidth)
        .with_ranks_per_node(point.ranks_per_node);
    let model = spec.perturbation_at(point.noise_level);
    if !model.is_identity() {
        platform = platform.with_perturbation(model);
    }
    platform
}

fn overrides(spec: &CampaignSpec) -> AppOverrides {
    AppOverrides {
        ranks: spec.ranks,
        iterations: spec.iterations,
    }
}

impl CampaignCold {
    fn slice_ref(&mut self, slot: usize) -> Result<&SliceRef, String> {
        if self.refs[slot].is_none() {
            let spec = &self.slices[slot];
            let bundle = DirectPipeline
                .bundle(&spec.apps[0], spec.classes[0], overrides(spec))
                .map_err(|e| format!("reference trace: {e}"))?;
            let with_bound = |ts: TraceSet| {
                let bound = oracle::compute_bound(&ts);
                (Arc::new(ts), bound)
            };
            let mut overlapped = HashMap::new();
            for &mode in &spec.modes {
                let ts = bundle
                    .overlapped(mode)
                    .map_err(|e| format!("reference transform: {e}"))?;
                overlapped.insert(mode.label(), with_bound(ts));
            }
            self.refs[slot] = Some(SliceRef {
                original: with_bound(bundle.original().clone()),
                overlapped,
            });
        }
        Ok(self.refs[slot].as_ref().expect("filled above"))
    }
}

impl Workload for CampaignCold {
    type Out = Out;

    fn setup(seed: u64) -> Result<Self, String> {
        let paper = CampaignSpec::parse(PAPER_CAMPAIGN).map_err(|e| format!("paper spec: {e}"))?;
        let mut slices = Vec::new();
        for app in &paper.apps {
            for &class in &paper.classes {
                let mut slice = paper.clone();
                slice.apps = vec![app.clone()];
                slice.classes = vec![class];
                slices.push(slice);
            }
        }
        let slices: Vec<CampaignSpec> = permutation(slices.len(), seed)
            .into_iter()
            .map(|i| slices[i].clone())
            .collect();
        Ok(CampaignCold {
            seed,
            refs: slices.iter().map(|_| None).collect(),
            slices,
            oracle: HashMap::new(),
        })
    }

    fn round_len(&self) -> usize {
        self.slices.len()
    }

    fn run(&mut self, slot: usize, layers: Option<&Layers>) -> Result<Out, String> {
        let spec = &self.slices[slot];
        let session = Session::with_threads(1);
        let Some(layers) = layers else {
            let report = session
                .run_campaign(spec)
                .map_err(|e| format!("campaign: {e}"))?;
            let rendered = [report.to_json(), report.to_csv()];
            return Ok(Out {
                report,
                rendered,
                traced: None,
            });
        };
        let before = layers.totals().clone();
        let stats = session.stats();
        let pipeline = TimedPipeline {
            session: &session,
            layers,
        };
        let report = run_campaign_with(&pipeline, spec, 1).map_err(|e| format!("campaign: {e}"))?;
        let t = Instant::now();
        let rendered = [report.to_json(), report.to_csv()];
        let secs = t.elapsed().as_secs_f64();
        let bytes = rendered.iter().map(String::len).sum::<usize>();
        layers.totals().render.calls += 1;
        layers.totals().render.records += bytes as u64;
        layers.totals().render.secs += secs;
        layers.cache(stats, session.stats());
        Ok(Out {
            report,
            rendered,
            traced: Some((session, before)),
        })
    }

    fn beside(&mut self, slot: usize, out: &Out, op_secs: f64, layers: &Layers) {
        let Some((session, before)) = &out.traced else {
            return;
        };
        let spec = &self.slices[slot];
        // Replays are timed per campaign point below.
        layers.take_programs();
        let replay_before = layers.totals().replay.secs;
        // The campaign left every variant and its artifacts in the
        // session; rebuilding the inputs is a cache lookup.
        let inputs: HashMap<String, (EngineInput, usize)> = std::iter::once(None)
            .chain(spec.modes.iter().copied().map(Some))
            .map(|mode| {
                let trace = session
                    .load_variant(&spec.apps[0], spec.classes[0], overrides(spec), mode)
                    .expect("the campaign left its variants in the session");
                let records = trace.total_records();
                let input = EngineInput::build(session, trace, &spec.engines, false)
                    .expect("the campaign built this input");
                let label = mode.map_or_else(|| "original".to_string(), |m| m.label());
                (label, (input, records))
            })
            .collect();
        for point in spec.expand() {
            let platform = point_platform(spec, &point);
            for label in ["original", point.mode.as_str()] {
                let (input, records) = &inputs[label];
                let _ = layers.replay(input, point.engine, &platform, *records);
            }
        }
        let mut tot = layers.totals();
        let children = (tot.trace.secs - before.trace.secs)
            + (tot.transform.secs - before.transform.secs)
            + (tot.index.secs - before.index.secs)
            + (tot.compile.secs - before.compile.secs)
            + (tot.replay.secs - replay_before)
            + (tot.render.secs - before.render.secs);
        tot.campaign_self_secs += op_secs - children;
    }

    fn check(&mut self, slot: usize, attempt: u64, out: &Out) -> Result<(u64, u64), String> {
        let spec = self.slices[slot].clone();
        let points = spec.expand();
        let rows = &out.report.rows;
        if rows.len() != points.len() {
            return Err(format!("{} rows for {} points", rows.len(), points.len()));
        }
        let refs = self.slice_ref(slot)?;
        for (row, point) in rows.iter().zip(&points) {
            if row.app != point.app
                || row.class != point.class
                || row.mode != point.mode
                || row.ranks_per_node != point.ranks_per_node
                || row.bandwidth != point.bandwidth
            {
                return Err(format!("row {} {} is out of grid order", row.app, row.mode));
            }
            let platform = point_platform(&spec, point);
            oracle::check_bound("original", row.original, refs.original.1, &platform)?;
            let ovl_bound = refs.overlapped[&row.mode].1;
            oracle::check_bound("overlapped", row.overlapped, ovl_bound, &platform)?;
        }
        // A seeded sample: one point per operation against the naive
        // engine, memoised since every round repeats the slice.
        let k = (mix(self.seed, attempt) % points.len() as u64) as usize;
        let oracle = match self.oracle.get(&(slot, k)) {
            Some(&pair) => pair,
            None => {
                let refs = self.slice_ref(slot)?;
                let platform = point_platform(&spec, &points[k]);
                let pair = (
                    oracle::naive(&platform, &refs.original.0)?.total_time(),
                    oracle::naive(&platform, &refs.overlapped[&points[k].mode].0)?.total_time(),
                );
                self.oracle.insert((slot, k), pair);
                pair
            }
        };
        oracle::check_equal("original", rows[k].original, oracle.0)?;
        oracle::check_equal("overlapped", rows[k].overlapped, oracle.1)?;
        let mut digest = Fnv::default();
        for text in &out.rendered {
            digest.bytes(text.as_bytes());
        }
        Ok((digest.finish(), rows.len() as u64))
    }
}
