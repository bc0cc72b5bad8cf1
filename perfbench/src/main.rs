//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <ring_mixed|vfs_cold|file_serve> --seed <n>
//!           --seconds <s> --trace <0|1> [--rev <id>] [--out <dir>]
//! ```
//!
//! With `--trace 0` it measures for `--seconds` in up to five rounds,
//! each on a freshly set-up and warmed system cut into one-second
//! slices, and reports each end-to-end metric as the median over rounds
//! of its value over the round's share of the run's slices with the
//! least host steal (set-up time is the median over several set-ups). With `--trace 1`
//! it sets one system up, runs an untraced half and a traced half and
//! reports the per-layer metrics, including the tracing overhead between
//! the halves. Outputs are checked during and
//! after the run; any failed check makes the run incorrect and the exit
//! code nonzero. The last line of standard output is the result JSON.

mod common;
mod file_serve;
mod metrics;
mod ring_mixed;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod util;
mod vfs_cold;
mod wrap;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use common::{Phase, Shape, Workload};
use metrics::Metric;
use util::{json_num, json_str, median_f64};

/// Set-ups per untraced run: the measured system, then throwaway ones
/// while the set-ups so far took under `SETUP_BUDGET`, at least
/// `SETUP_MIN_REPS` and at most `SETUP_MAX_REPS`. `setup_s` is their
/// median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// The untraced window is split into up to `ROUNDS` rounds, each on a
/// system of its own (set up, connected, warmed, measured, checked),
/// and cut into one-second slices. The slices of all rounds during which
/// the hypervisor stole the least CPU time from this guest — the least
/// stolen sixth and every slice tied with it (see
/// [`metrics::quiet_slices`]) — are chosen: on a shared host, steal comes
/// in bursts of seconds to tens of seconds and moves tails several-fold,
/// so slices are ranked by it as measured rather than trusted blindly.
/// Each end-to-end metric is the median over the rounds with a chosen
/// slice of its value over that round's chosen slices, pooled: a system
/// can settle into a mode for its whole life (the rhythm of log-pressure
/// stalls, the reactors' adaptive spin), and one system per run made
/// that mode the run's number.
const ROUNDS: usize = 5;
const SLICE: Duration = Duration::from_secs(1);
const ESTIMATOR: &str = "1-s slices with host steal at most the ceil(n/6)-th lowest over all \
     rounds (ties included); median over rounds (one system each) of the value pooled over the \
     round's chosen slices";
/// Untimed run before measuring, so the journal and caches reach their
/// steady state.
const WARMUP: Duration = Duration::from_secs(1);

const DEVICE_MODEL: &str =
    "RamDisk behind a forwarding device: flush = 50 us modelled barrier (sleep), reads/writes unmodelled";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rev = "unknown".to_string();
    let mut out = PathBuf::from(".bench_build/perfbench-reports");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--rev" => rev = val,
            "--out" => out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rev,
        out,
    })
}

/// What one invocation produced.
struct Outcome {
    shape: Shape,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    spans: Option<(usize, u64)>,
    setup_reps: usize,
    rounds: usize,
    steal: f64,
    slice_steal: Vec<f64>,
    quiet: Vec<usize>,
}

fn drive<W: Workload>(a: &Args) -> Outcome {
    let mut setups = Vec::new();
    // The disk is made resident before the clock starts: its page
    // faults are the harness's, not set-up work.
    let fresh = |setups: &mut Vec<f64>| {
        let ram = common::resident_ram(W::BLOCKS);
        let t = Instant::now();
        let w = W::setup(a.seed, ram);
        setups.push(t.elapsed().as_secs_f64());
        w
    };
    let mut errors = Vec::new();
    let ticks0 = util::cpu_ticks();
    let mut slice_steal = Vec::new();
    let mut quiet = Vec::new();
    let mut rounds = 1;
    let (metrics, measured, spans) = if a.trace {
        let mut w = fresh(&mut setups);
        w.start();
        errors.extend(w.run(WARMUP, 1).errors());
        let half = (a.seconds as usize / 2).max(1);
        let plain = w.run(SLICE, half);
        trace::start();
        let traced = w.run(SLICE, half);
        trace::stop();
        errors.extend(w.finish());
        let summary = trace::summary();
        let spans = Some((summary.raw_spans, summary.dropped_spans));
        let dump = a
            .out
            .join(format!("{}-seed{}.spans.tsv", a.workload, a.seed));
        if let Err(e) = trace::dump(&dump) {
            errors.push(format!("writing {}: {e}", dump.display()));
        }
        // Throughput of each half over its quiet slices, so a steal
        // burst in one half does not pass for tracing cost.
        let overhead = metrics::quiet_ops_per_s(&plain.slices)
            / metrics::quiet_ops_per_s(&traced.slices)
            - 1.0;
        let (plain, traced) = (plain.total(), traced.total());
        let metrics = metrics::per_layer(&plain, &traced, &summary, W::SHAPE, overhead);
        (metrics, vec![plain, traced], spans)
    } else {
        rounds = (a.seconds as usize).min(ROUNDS);
        let per_round = a.seconds as usize / rounds;
        let mut slices = Vec::new();
        let mut rss_mb = 0.0;
        for r in 0..rounds {
            let mut w = fresh(&mut setups);
            w.start();
            errors.extend(w.run(WARMUP, 1).errors());
            slices.extend(w.run(SLICE, per_round).slices);
            if r == 0 {
                // The first system's peak, net of the resident disk: the
                // program's own structures plus a small harness (binary,
                // thread stacks, histograms, the checks' tags). Taken
                // before its post-run checks; later systems would add the
                // allocator's leftovers from earlier ones, which no
                // single system has.
                rss_mb = util::peak_rss_mb() - common::ram_mb(W::BLOCKS);
            }
            errors.extend(w.finish());
        }
        // Throwaway set-ups, torn down untouched, for setup_s.
        let t = Instant::now();
        while setups.len() < SETUP_MIN_REPS
            || (setups.len() < SETUP_MAX_REPS && t.elapsed() < SETUP_BUDGET)
        {
            drop(fresh(&mut setups));
        }
        let setup_s = median_f64(setups.clone());
        slice_steal = slices.iter().map(|p| p.steal).collect();
        quiet = metrics::quiet_slices(&slices);
        let metrics =
            metrics::end_to_end(&slices, per_round, &quiet, setup_s, setups.len(), rss_mb);
        (metrics, slices, None)
    };
    // Share of the host's CPU time the hypervisor gave to others while
    // this run measured: the context a noisy number needs.
    let steal = match (ticks0, util::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    errors.extend(W::durability_check(a.seed));
    let metrics = metrics.unwrap_or_else(|e| {
        errors.push(e);
        Vec::new()
    });
    let (attempted, failed) = measured
        .iter()
        .fold((0, 0), |(a, f), p: &Phase| (a + p.attempted, f + p.failed));
    for p in measured {
        errors.extend(p.errors);
    }
    let setup_reps = setups.len();
    Outcome {
        shape: W::SHAPE,
        attempted,
        failed,
        errors,
        metrics,
        spans,
        setup_reps,
        rounds,
        steal,
        slice_steal,
        quiet,
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("perfbench: cannot create {}: {e}", a.out.display());
        std::process::exit(2);
    }
    let o = match a.workload.as_str() {
        "ring_mixed" => drive::<ring_mixed::RingMixed>(&a),
        "vfs_cold" => drive::<vfs_cold::VfsCold>(&a),
        "file_serve" => drive::<file_serve::FileServe>(&a),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    let mut errors = o.errors;
    if o.attempted == 0 {
        errors.push("no op was attempted".into());
    }
    let correct = errors.is_empty() && o.failed == 0;

    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {parallelism}, \"git_rev\": {}, \"profile\": {}, \
         \"device_model\": {}, \"clients\": {}, \"reactors\": {}, \"connections\": {}, \
         \"in_flight_per_client\": {}, \"setup_reps\": {}, \"rounds\": {}, \"estimator\": {}, \"warmup_s\": {}, \"host_steal_ratio\": {:.4}}}",
        json_str(&a.workload),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        json_str(&a.rev),
        json_str(profile),
        json_str(DEVICE_MODEL),
        o.shape.clients,
        o.shape.reactors,
        o.shape.connections,
        o.shape.in_flight,
        o.setup_reps,
        o.rounds,
        json_str(ESTIMATOR),
        WARMUP.as_secs_f64(),
        o.steal,
    );

    println!("provenance {provenance}");
    for m in &o.metrics {
        if m.samples > 0 {
            println!(
                "{:<34} {:>14.4} {:<5} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        } else {
            println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "failed_ops_ratio {:.6} ({} failed of {} attempted)",
        util::ratio(o.failed as f64, o.attempted as f64),
        o.failed,
        o.attempted
    );
    if let Some((kept, dropped)) = o.spans {
        println!("spans kept {kept}, beyond the per-thread cap {dropped}");
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }

    let metrics_json: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics_json.join(", ")
    );
    let report = a.out.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let samples: Vec<String> = o
        .metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(m.name), m.samples))
        .collect();
    let series = |name: &str, v: &[f64]| {
        let v: Vec<String> = v.iter().map(|&x| json_num(x)).collect();
        format!("{}: [{}]", json_str(name), v.join(", "))
    };
    let mut per_slice: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| !m.per_slice.is_empty())
        .map(|m| series(m.name, &m.per_slice))
        .collect();
    if !o.slice_steal.is_empty() {
        per_slice.push(series("host_steal_ratio", &o.slice_steal));
        let q: Vec<f64> = o.quiet.iter().map(|&i| i as f64).collect();
        per_slice.push(series("quiet_slices", &q));
    }
    let per_round: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| !m.per_round.is_empty())
        .map(|m| series(m.name, &m.per_round))
        .collect();
    let body = format!(
        "{{\"provenance\": {provenance}, \"samples\": {{{}}}, \"per_slice\": {{{}}}, \"per_round\": {{{}}}, \"errors\": [{}], \"result\": {result}}}\n",
        samples.join(", "),
        per_slice.join(", "),
        per_round.join(", "),
        errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(", ")
    );
    if let Err(e) = std::fs::write(&report, body) {
        eprintln!("perfbench: writing {}: {e}", report.display());
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
