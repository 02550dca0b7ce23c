//! `ovlbench`: the end-to-end and per-layer benchmark of ovlsim.
//!
//! ```text
//! cargo run --release --offline --manifest-path ovlbench/Cargo.toml -- \
//!     --workload <campaign-cold|session-warm|tune-search> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in this process through the program's public Rust
//! API, at one worker thread, as a closed loop with one caller: the next
//! operation starts when the previous one has returned. A run sets up
//! [`SETUP_REPEATS`] times, reporting the median, then repeats whole
//! rounds of the same seeded operations until `--seconds` (default
//! [`DEFAULT_SECONDS`]) have passed and at least [`MIN_OPS`] operations
//! completed. Every operation's outputs are
//! checked outside the timed region; a failed check counts the operation
//! as failed. The last line of standard output is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`.

mod campaign_cold;
mod layers;
mod oracle;
mod session_warm;
mod sys;
mod tune_search;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Layers;
use oracle::Fnv;

/// Fewest operations a run completes, however short `--seconds` is: a
/// floor on the work one run measures. The latency quantiles do not rest
/// on it; they are taken over the round's per-operation medians (see
/// [`drive`]).
const MIN_OPS: usize = 100;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Measured seconds when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`, which the bounds were set for.
const DEFAULT_SECONDS: u64 = 20;

/// One workload: a fixed round of operations, repeated.
pub trait Workload: Sized {
    /// What one operation returns.
    type Out;

    /// Builds the workload's inputs and program state from the seed.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Operations in one round. Every round repeats the same operations
    /// in the same order.
    fn round_len(&self) -> usize;

    /// The slots the untimed warm-up pass that ends set-up runs: the
    /// whole round unless a workload says otherwise.
    fn warmup_slots(&self) -> Vec<usize> {
        (0..self.round_len()).collect()
    }

    /// Called once the warm-up pass has ended set-up.
    fn warmed(&mut self) {}

    /// Runs operation `slot` of the round: the timed region. With
    /// `layers`, calls at the pipeline seam are timed too.
    fn run(&mut self, slot: usize, layers: Option<&Layers>) -> Result<Self::Out, String>;

    /// Traced run only, untimed: times beside the operation the layer
    /// calls it made inside public functions with no seam, and folds the
    /// operation's self time from its wall time `op_secs`.
    fn beside(&mut self, slot: usize, out: &Self::Out, op_secs: f64, layers: &Layers);

    /// Checks an operation's outputs, untimed. `attempt` numbers the
    /// operation within the run, so sampled checks vary across rounds.
    /// Returns the digest of the simulated results and their count.
    fn check(&mut self, slot: usize, attempt: u64, out: &Self::Out) -> Result<(u64, u64), String>;
}

/// A seeded 64-bit mixer (SplitMix64's finaliser) for the benchmark's own
/// input choices.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| "--seconds must be a whole number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

/// The quantile `q` of samples, interpolating linearly between order
/// statistics (the default of R and NumPy).
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

fn drive<W: Workload>(name: &str, args: &Args) -> Result<String, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so it is not timed or resident.
        drop(workload.take());
        let t = Instant::now();
        let mut w = W::setup(args.seed)?;
        for slot in w.warmup_slots() {
            std::hint::black_box(w.run(slot, None)?);
        }
        w.warmed();
        setups.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up ran");
    let setup_s = quantile(&setups, 0.5);

    let layers = args.trace.then(Layers::default);
    let n = w.round_len();
    let mut slot_digests: Vec<Option<u64>> = vec![None; n];
    let mut results_per_round = 0;
    // Latencies of each slot of the round, one per round.
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); n];
    // Busy wall time and CPU time of each round, in seconds.
    let (mut round_busy, mut round_cpu) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut rounds = 0;
    while start.elapsed() < budget || rounds * n < MIN_OPS {
        let (mut busy, mut cpu) = (0.0, Duration::ZERO);
        for (slot, first) in slot_digests.iter_mut().enumerate() {
            let cpu0 = sys::process_cpu_time();
            let t0 = Instant::now();
            let out = w.run(slot, layers.as_ref());
            let op = t0.elapsed();
            cpu += sys::process_cpu_time() - cpu0;
            latencies[slot].push(op.as_secs_f64());
            busy += op.as_secs_f64();
            let verdict = out.and_then(|out| {
                if let Some(layers) = &layers {
                    w.beside(slot, &out, op.as_secs_f64(), layers);
                }
                let (digest, results) = w.check(slot, attempted, &out)?;
                match *first {
                    Some(d) if d != digest => Err(format!(
                        "slot {slot}: results differ from the first round's"
                    )),
                    Some(_) => Ok(()),
                    None => {
                        *first = Some(digest);
                        results_per_round += results;
                        Ok(())
                    }
                }
            });
            attempted += 1;
            if let Err(e) = verdict {
                failed += 1;
                eprintln!("{name}: operation {attempted} failed: {e}");
            }
        }
        round_busy.push(busy);
        round_cpu.push(cpu.as_secs_f64());
        rounds += 1;
    }

    let mut round_digest = Fnv::default();
    for d in &slot_digests {
        round_digest.u64(d.unwrap_or(0));
    }
    println!(
        "digest: workload={name} seed={} results_per_round={results_per_round} rounds={rounds} fnv64={:016x}",
        args.seed,
        round_digest.finish()
    );

    // Every round does the same work, so each figure is a median over
    // rounds, which shrugs off a round a co-tenant slowed: throughput
    // and CPU cost from each round's totals. The latency quantiles are
    // taken over the round's `n` operations, each at its median latency
    // over the rounds, so they read the spread of the operation mix (12
    // values on campaign-cold, 24 on tune-search, 96 on session-warm),
    // not the tail of the host's timing noise.
    let ops = rounds * n;
    let typical: Vec<f64> = latencies.iter().map(|l| quantile(l, 0.5)).collect();
    let end_to_end = [
        ("setup_s", setup_s, "s"),
        ("ops_per_s", n as f64 / quantile(&round_busy, 0.5), "1/s"),
        ("latency_p50_ms", quantile(&typical, 0.5) * 1e3, "ms"),
        ("latency_p90_ms", quantile(&typical, 0.9) * 1e3, "ms"),
        (
            "cpu_ms_per_op",
            quantile(&round_cpu, 0.5) * 1e3 / n as f64,
            "ms",
        ),
        (
            "peak_rss_mb",
            sys::peak_rss_mib().ok_or("/proc/self/status has no VmHWM")?,
            "MiB",
        ),
    ];
    let metrics: Vec<(&str, f64, &str)> = match &layers {
        None => end_to_end.to_vec(),
        Some(layers) => {
            // The traced run's own end-to-end figures, for the tracing
            // overhead (traced minus untraced).
            let line: Vec<String> = end_to_end
                .iter()
                .map(|(k, v, _)| format!("{k}={v}"))
                .collect();
            println!("traced: workload={name} ops={ops} {}", line.join(" "));
            layers.metrics(ops)
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, unit)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ovlbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "campaign-cold" => drive::<campaign_cold::CampaignCold>(&args.workload, &args),
        "session-warm" => drive::<session_warm::SessionWarm>(&args.workload, &args),
        "tune-search" => drive::<tune_search::TuneSearch>(&args.workload, &args),
        other => Err(format!(
            "unknown workload {other} (campaign-cold, session-warm, tune-search)"
        )),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ovlbench: {e}");
            ExitCode::FAILURE
        }
    }
}
