//! Turns phases, counter deltas and the span summary into the named
//! metrics `BENCHMARK.json` lists.

use crate::common::{pool, Phase, Shape};
use crate::trace::{Counter, Kind, Summary};
use crate::util::{median_f64, ratio, Hist};

const BLOCK: f64 = 4096.0;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (0 for counts and ratios).
    pub samples: u64,
    /// The value in each slice, for metrics reported over slices.
    pub per_slice: Vec<f64>,
    /// The value in each round, for metrics that are a median of rounds.
    pub per_round: Vec<f64>,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: 0,
        per_slice: Vec::new(),
        per_round: Vec::new(),
    }
}

/// A latency percentile in µs. `required` percentiles (end-to-end ones)
/// are refused when fewer than ten samples lie beyond them; a per-layer
/// percentile of a layer the workload never exercised reads 0.
fn pct_us(name: &'static str, samples: &Hist, q: f64, required: bool) -> Result<Metric, String> {
    if samples.is_empty() && !required {
        return Ok(m(name, "us", 0.0));
    }
    let p = samples.quantile(q).ok_or_else(|| {
        format!(
            "{name}: refused, {} samples leave fewer than 10 beyond the percentile",
            samples.len()
        )
    })?;
    Ok(Metric {
        samples: samples.len(),
        ..m(name, "us", p / 1e3)
    })
}

/// Share of a window's slices [`quiet_slices`] keeps at least: small, so
/// that a run with a quiet stretch between steal bursts is measured on
/// that stretch alone, yet enough seconds for every percentile.
pub const QUIET_SHARE: usize = 6;

/// Indices, in slice order, of the slices whose host steal is at most
/// the `⌈n/QUIET_SHARE⌉`-th lowest: the least-stolen sixth, plus every
/// slice tied with its largest value. Steal is counted in whole ticks and
/// is often exactly 0, so ties are common; pooling them all (every slice,
/// when steal stays 0 throughout) keeps the choice free of slice
/// position and, on a quiet host, keeps most of the samples.
pub fn quiet_slices(slices: &[Phase]) -> Vec<usize> {
    if slices.is_empty() {
        return Vec::new();
    }
    let mut steal: Vec<f64> = slices.iter().map(|p| p.steal).collect();
    steal.sort_by(f64::total_cmp);
    let cut = steal[slices.len().div_ceil(QUIET_SHARE) - 1];
    (0..slices.len())
        .filter(|&i| slices[i].steal <= cut)
        .collect()
}

/// Throughput over the [`quiet_slices`] of a window.
pub fn quiet_ops_per_s(slices: &[Phase]) -> f64 {
    pool(slices, quiet_slices(slices)).ops_per_s()
}

/// The timed end-to-end metrics over the `chosen` slices pooled.
fn round_metrics(slices: &[Phase], chosen: &[usize]) -> Result<Vec<Metric>, String> {
    let p = pool(slices, chosen.iter().copied());
    Ok(vec![
        Metric {
            samples: p.completed(),
            ..m("ops_per_s", "1/s", p.ops_per_s())
        },
        pct_us("op_p50_us", &p.op_ns, 0.50, true)?,
        pct_us("op_p99_us", &p.op_ns, 0.99, true)?,
        pct_us("read_p50_us", &p.read_ns, 0.50, true)?,
        pct_us("read_p99_us", &p.read_ns, 0.99, true)?,
    ])
}

/// The end-to-end metrics of the untraced rounds, whose slices follow
/// one another in `slices`, `per_round` each. Each timed metric is the
/// median over the rounds with a `chosen` slice of its value over that
/// round's chosen slices; sample counts add up over those rounds. Every
/// slice's throughput is kept in `per_slice`.
pub fn end_to_end(
    slices: &[Phase],
    per_round: usize,
    chosen: &[usize],
    setup_s: f64,
    setup_reps: usize,
    rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let rounds = (0..slices.len() / per_round)
        .map(|r| -> Vec<usize> {
            chosen
                .iter()
                .copied()
                .filter(|&i| i / per_round == r)
                .collect()
        })
        .filter(|c| !c.is_empty())
        .map(|c| round_metrics(slices, &c))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = vec![Metric {
        samples: setup_reps as u64,
        ..m("setup_s", "s", setup_s)
    }];
    for (i, first) in rounds[0].iter().enumerate() {
        let ms = rounds.iter().map(|r| &r[i]);
        let values: Vec<f64> = ms.clone().map(|x| x.value).collect();
        out.push(Metric {
            value: median_f64(values.clone()),
            per_round: values,
            samples: ms.map(|x| x.samples).sum(),
            ..first.clone()
        });
    }
    out[1].per_slice = slices.iter().map(Phase::ops_per_s).collect();
    out.push(m("peak_rss_mb", "MB", rss_mb));
    Ok(out)
}

/// The per-layer metrics of a traced run: `plain` is the untraced half,
/// `traced` the half recorded into `s`, `overhead` the throughput lost
/// to tracing (untraced ÷ traced − 1).
pub fn per_layer(
    plain: &Phase,
    traced: &Phase,
    s: &Summary,
    shape: Shape,
    overhead: f64,
) -> Result<Vec<Metric>, String> {
    let ops = traced.completed() as f64;
    let per_op = |x: f64| ratio(x, ops);
    let us_per_op = |k: Kind| ratio(s.kind(k).total_ns as f64 / 1e3, ops);
    let self_mean_us = |ks: &[Kind]| {
        let n: u64 = ks.iter().map(|&k| s.kind(k).count).sum();
        let t: u64 = ks.iter().map(|&k| s.kind(k).self_ns).sum();
        ratio(t as f64 / 1e3, n as f64)
    };
    let d = &traced.delta;
    let op_mean_us = traced.op_ns.mean() / 1e3;
    let submit_block_us = ratio(
        s.kind(Kind::RingSubmit).total_ns as f64 / 1e3,
        s.kind(Kind::RingSubmit).count as f64,
    );
    let fs_service_per_sqe_us = ratio(
        s.kind(Kind::FsBatch).total_ns as f64 / 1e3,
        d.ring.completed as f64,
    );
    let user_blocks = traced.user_bytes_written as f64 / BLOCK;
    let attributed_us: f64 = [
        Kind::VfsOp,
        Kind::RingSubmit,
        Kind::RingWait,
        Kind::Relieve,
        Kind::FsCall,
        Kind::FsBatch,
        Kind::DevIo,
        Kind::DevFlush,
        Kind::NetPump,
        Kind::NetSend,
        Kind::NetRecv,
        Kind::NetTick,
        Kind::Link,
        Kind::ServeFs,
    ]
    .iter()
    .map(|&k| ratio(s.kind(k).self_ns as f64 / 1e3, ops))
    .sum();
    let sim_ms = |q: f64| -> Result<f64, String> {
        if plain.sim_req_ns.is_empty() {
            return Ok(0.0);
        }
        plain
            .sim_req_ns
            .quantile(q)
            .map(|ns| ns / 1e6)
            .ok_or_else(|| format!("sim_req p{}: too few samples", q * 100.0))
    };

    Ok(vec![
        // Op-type latencies and failures from the untraced half.
        pct_us("write_p99_us", &plain.write_ns, 0.99, false)?,
        pct_us("fsync_p99_us", &plain.fsync_ns, 0.99, false)?,
        m("sim_req_p50_ms", "ms", sim_ms(0.50)?),
        m("sim_req_p99_ms", "ms", sim_ms(0.99)?),
        m(
            "failed_ops_ratio",
            "ratio",
            ratio(plain.failed as f64, plain.attempted as f64),
        ),
        // vfs::ring
        pct_us(
            "ring.submit_block_us_p99",
            &s.kind(Kind::RingSubmit).durs,
            0.99,
            false,
        )?,
        m(
            "ring.batch_ops_mean",
            "ops",
            ratio(d.ring.completed as f64, d.ring.batches as f64),
        ),
        m("ring.sq_full_blocks", "count", d.ring.sq_full_blocks as f64),
        m(
            "ring.throttle_stalls",
            "count",
            d.ring.throttle_stalls as f64,
        ),
        m(
            "ring.queue_us_mean",
            "us",
            if traced.ring_ns.is_empty() {
                0.0
            } else {
                traced.ring_ns.mean() / 1e3 - submit_block_us - fs_service_per_sqe_us
            },
        ),
        m(
            "reactor.busy_ratio",
            "ratio",
            ratio(
                s.kind(Kind::FsBatch).total_ns as f64 / 1e9,
                shape.reactors as f64 * traced.wall_s,
            ),
        ),
        // fs-safe::rsfs, through the timed wrapper
        pct_us("fs.batch_us_p50", &s.kind(Kind::FsBatch).durs, 0.50, false)?,
        pct_us("fs.batch_us_p99", &s.kind(Kind::FsBatch).durs, 0.99, false)?,
        pct_us("fs.call_us_p50", &s.kind(Kind::FsCall).durs, 0.50, false)?,
        pct_us("fs.call_us_p99", &s.kind(Kind::FsCall).durs, 0.99, false)?,
        m(
            "fs.self_us_mean",
            "us",
            self_mean_us(&[Kind::FsCall, Kind::FsBatch]),
        ),
        m(
            "fs.lookups_per_op",
            "ratio",
            per_op(s.counter(Counter::Lookups) as f64),
        ),
        // vfs::path, vfs::dcache
        m("vfs.self_us_mean", "us", self_mean_us(&[Kind::VfsOp])),
        m(
            "dcache.hit_ratio",
            "ratio",
            ratio(
                d.dcache.hits as f64,
                (d.dcache.hits + d.dcache.misses) as f64,
            ),
        ),
        m(
            "dcache.evictions_per_op",
            "ratio",
            per_op(d.dcache.evictions as f64),
        ),
        // fs-safe::journal
        m(
            "journal.commits_per_op",
            "ratio",
            per_op(d.journal.commits as f64),
        ),
        m(
            "journal.stages_per_op",
            "ratio",
            per_op(d.journal.stages as f64),
        ),
        m(
            "journal.merge_factor",
            "ratio",
            ratio(
                (d.journal.commits + d.journal.stages) as f64,
                d.journal.batches as f64,
            ),
        ),
        m(
            "journal.barriers_per_op",
            "ratio",
            per_op(d.journal.barriers as f64),
        ),
        m(
            "journal.pressure_commits",
            "count",
            d.journal.pressure_commits as f64,
        ),
        m("journal.checkpoints", "count", d.journal.checkpoints as f64),
        m(
            "journal.forced_checkpoints",
            "count",
            d.journal.forced_checkpoints as f64,
        ),
        m(
            "journal.blocks_per_user_block",
            "ratio",
            ratio(d.journal.blocks_journaled as f64, user_blocks),
        ),
        // ksim::buffer
        m(
            "cache.hit_ratio",
            "ratio",
            ratio(d.cache.hits as f64, (d.cache.hits + d.cache.misses) as f64),
        ),
        m(
            "cache.misses_per_op",
            "ratio",
            per_op(d.cache.misses as f64),
        ),
        m(
            "cache.evictions_per_op",
            "ratio",
            per_op(d.cache.evictions as f64),
        ),
        m(
            "cache.writebacks_per_op",
            "ratio",
            per_op(d.cache.writebacks as f64),
        ),
        m("cache.readaheads", "count", d.cache.readaheads as f64),
        // ksim::block, through the modelled device
        m("dev.reads_per_op", "ratio", per_op(d.dev.reads as f64)),
        m("dev.writes_per_op", "ratio", per_op(d.dev.writes as f64)),
        m("dev.flushes_per_op", "ratio", per_op(d.dev.flushes as f64)),
        m("dev.vec_ios_per_op", "ratio", per_op(d.dev.vec_ios as f64)),
        m(
            "dev.write_amp",
            "ratio",
            ratio(
                d.dev.writes as f64 * BLOCK,
                traced.user_bytes_written as f64,
            ),
        ),
        m(
            "dev.busy_us_per_op",
            "us",
            us_per_op(Kind::DevIo) + us_per_op(Kind::DevFlush),
        ),
        pct_us(
            "dev.flush_us_p50",
            &s.kind(Kind::DevFlush).durs,
            0.50,
            false,
        )?,
        // netstack
        m(
            "net.pump_us_per_req",
            "us",
            per_op(s.kind(Kind::NetPump).total_ns as f64 / 1e3),
        ),
        m(
            "net.send_us_per_req",
            "us",
            per_op(s.kind(Kind::NetSend).total_ns as f64 / 1e3),
        ),
        m(
            "net.recv_us_per_req",
            "us",
            per_op(s.kind(Kind::NetRecv).total_ns as f64 / 1e3),
        ),
        m(
            "net.tick_us_per_req",
            "us",
            per_op(s.kind(Kind::NetTick).total_ns as f64 / 1e3),
        ),
        m(
            "net.send_refused_per_req",
            "ratio",
            per_op(s.counter(Counter::SendRefused) as f64),
        ),
        m(
            "tcp.retransmits_per_req",
            "ratio",
            per_op(d.tcp.retransmits as f64),
        ),
        m(
            "tcp.dup_acks_dropped",
            "count",
            d.tcp.dup_acks_dropped as f64,
        ),
        m("tcp.ooo_buffered", "count", d.tcp.ooo_buffered as f64),
        m("link.packets_per_req", "ratio", per_op(d.link.sent as f64)),
        m(
            "link.dropped_per_req",
            "ratio",
            per_op(d.link.dropped as f64),
        ),
        m(
            "link.wire_bytes_per_payload_byte",
            "ratio",
            ratio(
                s.counter(Counter::WireBytes) as f64,
                traced.payload_bytes as f64,
            ),
        ),
        m(
            "serve.fs_us_per_req",
            "us",
            per_op(s.kind(Kind::ServeFs).total_ns as f64 / 1e3),
        ),
        m(
            "serve.rounds_per_req",
            "ratio",
            per_op(traced.rounds as f64),
        ),
        // harness
        m("client.gen_us_per_op", "us", us_per_op(Kind::Gen)),
        m("trace.overhead_ratio", "ratio", overhead),
        // Only where each client has one op at a time: every span on a
        // client thread between an op's start and its return carries
        // that op's request id, so the residual is time inside the op
        // no span covers. With ops overlapping (a window of SQEs,
        // interleaved connections) it would be queueing behind other
        // ops — `ring.queue_us_mean` measures that — so it reads 0.
        m(
            "unattributed_us_mean",
            "us",
            if shape.in_flight == 1 {
                op_mean_us - attributed_us
            } else {
                0.0
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_steal(steal: &[f64]) -> Vec<Phase> {
        steal
            .iter()
            .map(|&s| Phase {
                steal: s,
                ..Phase::default()
            })
            .collect()
    }

    #[test]
    fn quiet_slices_are_the_least_stolen_sixth_with_ties() {
        let s = with_steal(&[
            0.2, 0.0, 0.1, 0.02, 0.3, 0.05, 0.1, 0.2, 0.01, 0.3, 0.2, 0.1,
        ]);
        assert_eq!(quiet_slices(&s), vec![1, 8]);
        // Ties with the sixth's largest value are all pooled: without
        // steal, every slice; never none.
        assert_eq!(
            quiet_slices(&with_steal(&[0.0; 7])),
            (0..7).collect::<Vec<_>>()
        );
        let s = with_steal(&[0.1, 0.0, 0.2, 0.3, 0.0, 0.2, 0.0]);
        assert_eq!(quiet_slices(&s), vec![1, 4, 6]);
        assert_eq!(quiet_slices(&with_steal(&[0.4])), vec![0]);
    }

    #[test]
    fn end_to_end_is_the_median_of_rounds_with_a_chosen_slice() {
        // Three rounds of two 1-s slices; each slice's ops take `us` µs.
        let slice = |ops: u64, us: u64| {
            let mut p = Phase {
                wall_s: 1.0,
                ..Phase::default()
            };
            for _ in 0..ops {
                p.op_ns.record(us * 1000);
                p.read_ns.record(us * 1000);
            }
            p
        };
        let slices = vec![
            slice(2000, 10),
            slice(2000, 10),
            slice(3000, 20),
            slice(3000, 20),
            slice(5000, 40),
            slice(5000, 40),
        ];
        let get = |ms: &[Metric], name: &str| ms.iter().find(|m| m.name == name).unwrap().clone();
        let ms = end_to_end(&slices, 2, &[0, 2, 3, 4], 0.5, 5, 12.0).unwrap();
        let ops = get(&ms, "ops_per_s");
        assert_eq!(ops.value, 3000.0);
        assert_eq!(ops.per_round, vec![2000.0, 3000.0, 5000.0]);
        assert_eq!(ops.per_slice.len(), 6);
        assert_eq!(ops.samples, 2000 + 6000 + 5000);
        assert!((get(&ms, "op_p50_us").value - 20.0).abs() < 0.2);
        // A round without a chosen slice does not vote.
        let ms = end_to_end(&slices, 2, &[0, 1, 4], 0.5, 5, 12.0).unwrap();
        assert_eq!(get(&ms, "ops_per_s").per_round, vec![2000.0, 5000.0]);
        assert_eq!(get(&ms, "setup_s").value, 0.5);
        assert_eq!(get(&ms, "peak_rss_mb").value, 12.0);
    }
}
