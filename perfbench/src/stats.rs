//! Snapshots of the program's own counters, taken before and after a
//! phase; a phase reports their difference.

use sk_fs_safe::journal::JournalStats;
use sk_ksim::block::DeviceStats;
use sk_ksim::buffer::CacheStats;
use sk_netstack::tcp::TcpCounters;
use sk_netstack::wire::LinkStats;
use sk_vfs::dcache::DcacheStats;
use sk_vfs::ring::RingStats;

/// Every stats struct a workload can read, each optional because not
/// every workload has every layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snap {
    pub journal: JournalStats,
    pub cache: CacheStats,
    pub dev: DeviceStats,
    pub ring: RingStats,
    pub dcache: DcacheStats,
    pub link: LinkStats,
    pub tcp: TcpCounters,
}

impl Snap {
    /// `self - before`, field by field.
    pub fn since(&self, b: &Snap) -> Snap {
        let (j, bj) = (&self.journal, &b.journal);
        let (c, bc) = (&self.cache, &b.cache);
        let (d, bd) = (&self.dev, &b.dev);
        let (r, br) = (&self.ring, &b.ring);
        let (h, bh) = (&self.dcache, &b.dcache);
        let (l, bl) = (&self.link, &b.link);
        let (t, bt) = (&self.tcp, &b.tcp);
        Snap {
            journal: JournalStats {
                commits: j.commits - bj.commits,
                stages: j.stages - bj.stages,
                pressure_commits: j.pressure_commits - bj.pressure_commits,
                batches: j.batches - bj.batches,
                blocks_journaled: j.blocks_journaled - bj.blocks_journaled,
                replays: j.replays - bj.replays,
                barriers: j.barriers - bj.barriers,
                checkpoints: j.checkpoints - bj.checkpoints,
                forced_checkpoints: j.forced_checkpoints - bj.forced_checkpoints,
                coalesced_runs: j.coalesced_runs - bj.coalesced_runs,
            },
            cache: CacheStats {
                hits: c.hits - bc.hits,
                misses: c.misses - bc.misses,
                writebacks: c.writebacks - bc.writebacks,
                evictions: c.evictions - bc.evictions,
                readaheads: c.readaheads - bc.readaheads,
            },
            dev: DeviceStats {
                reads: d.reads - bd.reads,
                writes: d.writes - bd.writes,
                flushes: d.flushes - bd.flushes,
                io_errors: d.io_errors - bd.io_errors,
                torn_writes: d.torn_writes - bd.torn_writes,
                corrupt_reads: d.corrupt_reads - bd.corrupt_reads,
                vec_ios: d.vec_ios - bd.vec_ios,
            },
            ring: RingStats {
                submitted: r.submitted - br.submitted,
                completed: r.completed - br.completed,
                batches: r.batches - br.batches,
                sq_full_blocks: r.sq_full_blocks - br.sq_full_blocks,
                throttle_stalls: r.throttle_stalls - br.throttle_stalls,
            },
            dcache: DcacheStats {
                hits: h.hits - bh.hits,
                misses: h.misses - bh.misses,
                evictions: h.evictions - bh.evictions,
                invalidations: h.invalidations - bh.invalidations,
            },
            link: LinkStats {
                sent: l.sent - bl.sent,
                dropped: l.dropped - bl.dropped,
                duplicated: l.duplicated - bl.duplicated,
                reordered: l.reordered - bl.reordered,
                corrupted: l.corrupted - bl.corrupted,
                delayed: l.delayed - bl.delayed,
            },
            tcp: TcpCounters {
                retransmits: t.retransmits - bt.retransmits,
                dup_acks_dropped: t.dup_acks_dropped - bt.dup_acks_dropped,
                ooo_buffered: t.ooo_buffered - bt.ooo_buffered,
                ooo_purged: t.ooo_purged - bt.ooo_purged,
                resets_sent: t.resets_sent - bt.resets_sent,
                resets_received: t.resets_received - bt.resets_received,
                delayed_acks: t.delayed_acks - bt.delayed_acks,
            },
        }
    }
}

/// Sum of per-connection TCP counters.
pub fn add_tcp(a: TcpCounters, b: TcpCounters) -> TcpCounters {
    TcpCounters {
        retransmits: a.retransmits + b.retransmits,
        dup_acks_dropped: a.dup_acks_dropped + b.dup_acks_dropped,
        ooo_buffered: a.ooo_buffered + b.ooo_buffered,
        ooo_purged: a.ooo_purged + b.ooo_purged,
        resets_sent: a.resets_sent + b.resets_sent,
        resets_received: a.resets_received + b.resets_received,
        delayed_acks: a.delayed_acks + b.delayed_acks,
    }
}
