//! Output checks, each computed apart from the code path it judges: the
//! reference replay engine, lower bounds and conservation laws folded
//! from the trace records by the benchmark itself, and the result digest.

use std::collections::BTreeMap;

use ovlsim_core::{Platform, Record, Time, TraceSet};
use ovlsim_dimemas::{replay_naive, ReplayResult};
use ovlsim_lab::{Attribution, AttributionRecorder};

/// The reference replay (`replay_naive`, the oracle the repository's
/// differential tests use).
pub fn naive(platform: &Platform, trace: &TraceSet) -> Result<ReplayResult, String> {
    replay_naive(platform, trace).map_err(|e| format!("naive replay of {}: {e}", trace.name()))
}

/// The slowest rank's compute time on a platform with `cpu_ratio` 1,
/// summed burst by burst from the trace records. No schedule shrinks a
/// burst, and perturbations only stretch them, so every makespan is at
/// least this.
pub fn compute_bound(trace: &TraceSet) -> Time {
    let mips = trace.mips();
    trace
        .ranks()
        .iter()
        .map(|rank| {
            rank.records()
                .iter()
                .filter_map(|rec| match rec {
                    Record::Burst { instr } => Some(mips.instr_to_time(*instr).as_ps()),
                    _ => None,
                })
                .sum::<u64>()
        })
        .max()
        .map_or(Time::ZERO, Time::from_ps)
}

/// Fails unless `makespan` is at least the trace's compute bound.
pub fn check_bound(
    what: &str,
    makespan: Time,
    bound: Time,
    platform: &Platform,
) -> Result<(), String> {
    if platform.cpu_ratio() != 1.0 {
        return Err(format!("{what}: the compute bound assumes cpu_ratio 1"));
    }
    if makespan < bound {
        return Err(format!(
            "{what}: makespan {} ps is below the compute bound {} ps",
            makespan.as_ps(),
            bound.as_ps()
        ));
    }
    Ok(())
}

/// Fails unless two makespans are bit-equal.
pub fn check_equal(what: &str, got: Time, oracle: Time) -> Result<(), String> {
    if got != oracle {
        return Err(format!(
            "{what}: makespan {} ps differs from the naive replay's {} ps",
            got.as_ps(),
            oracle.as_ps()
        ));
    }
    Ok(())
}

/// Per-rank instruction totals, summed from the burst records.
pub fn instr_per_rank(trace: &TraceSet) -> Vec<u64> {
    trace
        .ranks()
        .iter()
        .map(|rank| {
            rank.records()
                .iter()
                .map(|rec| match rec {
                    Record::Burst { instr } => instr.get(),
                    _ => 0,
                })
                .sum()
        })
        .collect()
}

/// Point-to-point bytes per `(src, dst)` rank pair, summed from the send
/// records.
pub fn bytes_per_pair(trace: &TraceSet) -> BTreeMap<(u32, u32), u64> {
    let mut pairs = BTreeMap::new();
    for (src, rank) in trace.ranks().iter().enumerate() {
        for rec in rank.records() {
            if let Record::Send { to, bytes, .. } | Record::ISend { to, bytes, .. } = rec {
                *pairs.entry((src as u32, to.get())).or_insert(0) += bytes;
            }
        }
    }
    pairs
}

/// Attribution conserves time: each rank's intervals sum to its finish
/// time, the critical path spans the makespan, and the makespan is the
/// latest finish.
pub fn check_attribution(attr: &Attribution, rec: &AttributionRecorder) -> Result<(), String> {
    let finish = rec.finish_times();
    for (rank, &end) in finish.iter().enumerate() {
        let sum = rec
            .intervals(rank)
            .iter()
            .fold(Time::ZERO, |acc, iv| acc + (iv.end - iv.start));
        if sum != end {
            return Err(format!(
                "attribution of {}: rank {rank} intervals sum to {} ps, finish is {} ps",
                attr.trace_name(),
                sum.as_ps(),
                end.as_ps()
            ));
        }
    }
    let latest = finish.iter().copied().max().unwrap_or(Time::ZERO);
    if attr.critical_path_len() != attr.makespan() || latest != attr.makespan() {
        return Err(format!(
            "attribution of {}: critical path {} ps, latest finish {} ps, makespan {} ps",
            attr.trace_name(),
            attr.critical_path_len().as_ps(),
            latest.as_ps(),
            attr.makespan().as_ps()
        ));
    }
    Ok(())
}

/// 64-bit FNV-1a over the bytes of simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a number in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
