//! `tune-search`: one operation is one auto-tuner search (`run_tune` at
//! one worker thread) on one of the six paper apps, on the platform of
//! `tune.campaign`, in a fresh `Session`. Every candidate pays synthesis
//! from an `OverlapPlan`, index, compile and replay.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ovlsim_apps::registry::AppOverrides;
use ovlsim_core::{Platform, Time, TraceSet};
use ovlsim_lab::{
    run_tune_threaded, ArtifactPipeline, Attribution, CampaignSpec, DirectPipeline, EngineInput,
    TuneOptions, TuneReport,
};
use ovlsim_session::Session;
use ovlsim_tracer::{OverlapPlan, TraceBundle};

use crate::layers::{Layers, TimedPipeline, Totals};
use crate::oracle::{self, Fnv};
use crate::{mix, permutation, Workload};

const TUNE_CAMPAIGN: &str = include_str!("../../examples/campaigns/tune.campaign");

/// Candidate evaluations per search, the uniform-linear baseline
/// included. `tune.campaign` searches with 48; a third of that keeps a
/// search near 90 ms on a 3.3 GHz core, so a 20-s run holds about ten
/// whole rounds of 24 searches and its medians over rounds stand on
/// enough of them. Every candidate pays the same synthesis, index,
/// compile and replay at either budget.
pub const BUDGET: usize = 16;

/// Searches per app in one round, each with its own seed.
pub const SEEDS_PER_APP: usize = 4;

pub struct TuneSearch {
    platform: Platform,
    bundles: Vec<Arc<TraceBundle>>,
    /// `(app, search seed)` of each slot, in the seeded run order.
    slots: Vec<(usize, u64)>,
    /// Per app: naive makespans of the original and the uniform-linear
    /// trace, and the original's conserved totals.
    refs: HashMap<usize, AppRef>,
    /// Naive makespan of each slot's best plan.
    oracle: HashMap<usize, Time>,
}

struct AppRef {
    original: Time,
    linear: Time,
    instr: Vec<u64>,
    bytes: std::collections::BTreeMap<(u32, u32), u64>,
}

pub struct Out {
    report: TuneReport,
    traced: Option<(Session, Totals)>,
}

impl TuneSearch {
    fn app_ref(&mut self, app: usize) -> Result<&AppRef, String> {
        if !self.refs.contains_key(&app) {
            let bundle = &self.bundles[app];
            let original = bundle.original();
            let linear = bundle
                .overlapped_planned(&OverlapPlan::uniform_linear())
                .map_err(|e| format!("uniform plan: {e}"))?;
            let r = AppRef {
                original: oracle::naive(&self.platform, original)?.total_time(),
                linear: oracle::naive(&self.platform, &linear)?.total_time(),
                instr: oracle::instr_per_rank(original),
                bytes: oracle::bytes_per_pair(original),
            };
            self.refs.insert(app, r);
        }
        Ok(&self.refs[&app])
    }
}

impl Workload for TuneSearch {
    type Out = Out;

    fn setup(seed: u64) -> Result<Self, String> {
        let spec = CampaignSpec::parse(TUNE_CAMPAIGN).map_err(|e| format!("tune spec: {e}"))?;
        let platform = Platform::builder()
            .latency(spec.latency)
            .intra_node_bandwidth(spec.intra_bandwidth)
            .build()
            .with_bandwidth(spec.bandwidths[0])
            .with_ranks_per_node(spec.ranks_per_node[0]);
        let overrides = AppOverrides {
            ranks: spec.ranks,
            iterations: spec.iterations,
        };
        let bundles = spec
            .apps
            .iter()
            .map(|app| DirectPipeline.bundle(app, spec.classes[0], overrides))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("tracing: {e}"))?;
        let plain: Vec<(usize, u64)> = (0..bundles.len() * SEEDS_PER_APP)
            .map(|i| (i % bundles.len(), mix(seed, 5000 + i as u64)))
            .collect();
        let slots = permutation(plain.len(), mix(seed, 6000))
            .into_iter()
            .map(|i| plain[i])
            .collect();
        Ok(TuneSearch {
            platform,
            bundles,
            slots,
            refs: HashMap::new(),
            oracle: HashMap::new(),
        })
    }

    fn round_len(&self) -> usize {
        self.slots.len()
    }

    /// One search per app, so that every seed warms up the same apps.
    fn warmup_slots(&self) -> Vec<usize> {
        (0..self.bundles.len())
            .filter_map(|app| self.slots.iter().position(|&(a, _)| a == app))
            .collect()
    }

    fn run(&mut self, slot: usize, layers: Option<&Layers>) -> Result<Out, String> {
        let (app, seed) = self.slots[slot];
        let opts = TuneOptions {
            budget: BUDGET,
            seed,
            ..TuneOptions::default()
        };
        let session = Session::with_threads(1);
        let bundle = &self.bundles[app];
        let Some(layers) = layers else {
            let report = run_tune_threaded(&session, bundle, &self.platform, &opts, 1)
                .map_err(|e| format!("tune: {e}"))?;
            return Ok(Out {
                report,
                traced: None,
            });
        };
        let before = layers.totals().clone();
        let stats = session.stats();
        let pipeline = TimedPipeline {
            session: &session,
            layers,
        };
        let report = run_tune_threaded(&pipeline, bundle, &self.platform, &opts, 1)
            .map_err(|e| format!("tune: {e}"))?;
        layers.cache(stats, session.stats());
        Ok(Out {
            report,
            traced: Some((session, before)),
        })
    }

    fn beside(&mut self, slot: usize, out: &Out, op_secs: f64, layers: &Layers) {
        let Some((session, before)) = &out.traced else {
            return;
        };
        let bundle = &self.bundles[self.slots[slot].0];
        let report = &out.report;
        let engine = report.engine;

        // Attribution of the original replay, once per search.
        let original = session.variant(bundle, None).expect("the search built it");
        let index = session.index(&original).expect("the search built it");
        let t = Instant::now();
        let _ = std::hint::black_box(Attribution::analyze(&self.platform, &original, &index));
        let attribution = t.elapsed().as_secs_f64();

        // Replay every candidate the search scored, on the same
        // programs (the session serves them from its cache).
        let replay0 = layers.totals().replay.secs;
        let candidates = layers.take_programs();
        let records: usize = candidates.iter().map(|ts| ts.total_records()).sum();
        for ts in candidates.iter().cloned() {
            let n = ts.total_records();
            let input = EngineInput::build(session, ts, &[engine], false).expect("scored");
            let _ = layers.replay(&input, engine, &self.platform, n);
        }
        let replay = layers.totals().replay.secs - replay0;

        // Synthesis has no seam: time it on the uniform and the best
        // plan and charge the candidates' records at that rate.
        let plans = [
            OverlapPlan::uniform_linear(),
            report
                .best_plan
                .clone()
                .expect("searches over bundles have plans"),
        ];
        let (mut secs, mut synthesized) = (0.0, 0usize);
        for plan in &plans {
            let t = Instant::now();
            let ts: TraceSet =
                std::hint::black_box(bundle.overlapped_planned(plan).expect("planned"));
            secs += t.elapsed().as_secs_f64();
            synthesized += ts.total_records();
        }
        let transform = secs * records as f64 / synthesized.max(1) as f64;

        let mut tot = layers.totals();
        tot.attribution.calls += 1;
        tot.attribution.records += original.total_records() as u64;
        tot.attribution.secs += attribution;
        tot.transform.calls += candidates.len() as u64;
        tot.transform.records += records as u64;
        tot.transform.secs += transform;
        tot.tune_evals += report.steps.len() as u64;
        tot.tune_accepted += report.steps.iter().skip(1).filter(|s| s.accepted).count() as u64;
        let children = (tot.index.secs - before.index.secs)
            + (tot.compile.secs - before.compile.secs)
            + transform
            + replay
            + attribution;
        tot.tune_self_secs += op_secs - children;
    }

    fn check(&mut self, slot: usize, _attempt: u64, out: &Out) -> Result<(u64, u64), String> {
        let report = &out.report;
        let app = self.slots[slot].0;
        if report.steps.is_empty() || report.steps.len() > BUDGET {
            return Err(format!(
                "{} steps for a budget of {BUDGET}",
                report.steps.len()
            ));
        }
        if report.best > report.linear {
            return Err(format!(
                "best {} ps is worse than uniform linear {} ps",
                report.best.as_ps(),
                report.linear.as_ps()
            ));
        }
        let plan = report
            .best_plan
            .as_ref()
            .ok_or("a search over a bundle must report its best plan")?;
        let planned = self.bundles[app]
            .overlapped_planned(plan)
            .map_err(|e| format!("best plan: {e}"))?;
        let platform = self.platform.clone();
        oracle::check_bound(
            "best plan",
            report.best,
            oracle::compute_bound(&planned),
            &platform,
        )?;
        let r = self.app_ref(app)?;
        if oracle::instr_per_rank(&planned) != r.instr {
            return Err("best plan changes per-rank instruction totals".into());
        }
        if oracle::bytes_per_pair(&planned) != r.bytes {
            return Err("best plan changes per-(src, dst) bytes".into());
        }
        oracle::check_equal("original", report.original, r.original)?;
        oracle::check_equal("uniform linear", report.linear, r.linear)?;
        let best = match self.oracle.get(&slot) {
            Some(&t) => t,
            None => {
                let t = oracle::naive(&platform, &planned)?.total_time();
                self.oracle.insert(slot, t);
                t
            }
        };
        oracle::check_equal("best plan", report.best, best)?;
        let mut digest = Fnv::default();
        digest.bytes(report.to_json().as_bytes());
        Ok((digest.finish(), report.steps.len() as u64))
    }
}
