//! `ring_mixed`: the batched path.
//!
//! Two client threads each keep a window of 64 SQEs in flight on one
//! ring of depth 256, drained by two work-stealing reactors
//! (`RingReactor::spawn_pool`) behind the journal log-pressure throttle.
//! Rsfs runs in `JournalMode::Async`. Each client works in its own
//! directory on the repository's 8-op cycle: 1 create, 3 × 1 KiB
//! writes, 2 reads, 1 unlink-or-read, 1 fsync; writes and reads go to
//! seeded 1 KiB slots of the client's base file. The working set (two
//! 64 KiB base files plus ~10 empty files per client) is far below the
//! 1 MiB buffer cache.
//!
//! Why: this is the path the op-path rewrites touch — `submit_batch`
//! staging, group commit, op-lock stripes. It skips `Vfs`, the dentry
//! cache, cache misses and the network, so a gain there should show
//! nothing here.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sk_fs_safe::rsfs::JournalMode;
use sk_ksim::block::RamDisk;
use sk_vfs::modular::{fs_abstraction, BatchOp, BatchReply, FileSystem};
use sk_vfs::ring::{Ring, RingReactor, RingThrottle};

use crate::common::{run_clients, Phase, Shape, Slicer, Storage, Window, Workload};
use crate::trace::{self, Kind};
use crate::util::{pattern, pattern_tag, Rng};

pub const CLIENTS: usize = 2;
pub const REACTORS: usize = 2;
pub const DEPTH: usize = 256;
pub const WINDOW: usize = 64;
/// 1 KiB slots in each client's base file. A slot sees a write about
/// every `SLOTS × 8 / 3` ops, longer than the window, so most writes to a
/// slot do not overlap one another and a lost or stale write shows in
/// the next read (overlapping writes may legally land in either order,
/// which hides such a fault).
pub const SLOTS: usize = 64;
pub const SLOT: usize = 1024;
/// Ops between a create and the unlink of the same name: more than the
/// window, so the create has completed before the unlink is submitted
/// even though the reactors run batches out of submission order.
pub const UNLINK_LAG: u64 = 76;
const _: () = assert!(UNLINK_LAG as usize > WINDOW);

const INODES: u32 = 1024;
/// Sized so that the log-pressure stalls (throttle relief, forced
/// checkpoints) catch several percent of ops: p99 then sits well inside
/// the stall population rather than on the edge between it and the body
/// of the distribution. With 1024 blocks it sat on that edge, and a run
/// settled on one side or the other for its whole length (p99 2.2 vs
/// 3.3 ms on the 2-vCPU reference host).
const JOURNAL_BLOCKS: u32 = 512;
/// Log pressure at which the reactors commit and checkpoint before
/// admitting the next batch (the value `bench_report` uses).
const THROTTLE: f32 = 0.8;

/// One generated op, before it becomes an SQE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenOp {
    Create(String),
    Unlink(String),
    /// Writes [`slot_bytes`]`(tag)`; every write of a run has its own tag.
    Write {
        slot: usize,
        tag: u64,
    },
    Read {
        slot: usize,
    },
    Fsync,
}

/// The seeded op stream of one client. Position in the 8-op cycle fixes
/// the op type; the seed picks slots and payload bytes.
#[derive(Debug, Clone)]
pub struct Stream {
    client: usize,
    /// High 16 bits of every write tag, from the seed; the low 48 bits
    /// are the op index + 1, so tags are unique and never zero.
    tag_hi: u64,
    rng: Rng,
    k: u64,
}

/// The 1 KiB payload of a write tagged `tag` (all zeros for tag 0, the
/// content every slot starts with).
pub fn slot_bytes(tag: u64) -> Vec<u8> {
    pattern(tag, SLOT)
}

pub fn name_of(client: usize, k: u64) -> String {
    format!("c{client}o{k}")
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Stream {
        let mut rng = Rng::stream(seed, client as u64);
        Stream {
            client,
            tag_hi: rng.next_u64() & !((1 << 48) - 1),
            rng,
            k: 0,
        }
    }

    pub fn next_op(&mut self) -> GenOp {
        let k = self.k;
        self.k += 1;
        match k % 8 {
            0 => GenOp::Create(name_of(self.client, k)),
            4 if k >= UNLINK_LAG => GenOp::Unlink(name_of(self.client, k - UNLINK_LAG)),
            7 => GenOp::Fsync,
            2 | 4 | 6 => GenOp::Read {
                slot: self.rng.below(SLOTS as u64) as usize,
            },
            _ => GenOp::Write {
                slot: self.rng.below(SLOTS as u64) as usize,
                tag: self.tag_hi | (k + 1),
            },
        }
    }
}

/// A write to one slot that a later read may still return: its tag, the
/// client event at which it was submitted, and the one at which its CQE
/// was taken (`None` while in flight).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    tag: u64,
    submitted: u64,
    seen: Option<u64>,
}

/// The writes of one slot a read may still return. A client takes CQEs
/// in submission order and numbers its submissions and CQEs on one
/// counter. Once the CQE of a write `w` has been taken, every write whose
/// CQE was taken before `w` was submitted ran before `w`, so no read
/// submitted from then on may return it; those are dropped. What is
/// left — the newest such `w`, the writes in flight and the ones that
/// overlapped them — stays a handful, whatever the run length.
#[derive(Debug, Clone)]
struct SlotLog(Vec<Candidate>);

impl SlotLog {
    /// A slot holding the zeros written at set-up (tag 0).
    fn new() -> SlotLog {
        SlotLog(vec![Candidate {
            tag: 0,
            submitted: 0,
            seen: Some(0),
        }])
    }

    fn submitted(&mut self, tag: u64, at: u64) {
        self.0.push(Candidate {
            tag,
            submitted: at,
            seen: None,
        });
    }

    fn completed(&mut self, tag: u64, at: u64) {
        let Some(w) = self.0.iter_mut().find(|c| c.tag == tag) else {
            return;
        };
        w.seen = Some(at);
        let floor = w.submitted;
        self.0.retain(|c| c.seen.is_none_or(|s| s >= floor));
    }

    fn tags(&self) -> Vec<u64> {
        self.0.iter().map(|c| c.tag).collect()
    }

    fn allows(&self, tag: u64) -> bool {
        self.0.iter().any(|c| c.tag == tag)
    }
}

/// What one client has done so far, for the output checks.
struct Client {
    stream: Stream,
    dir: u64,
    base: u64,
    /// Names created and not yet unlinked.
    live: BTreeSet<String>,
    /// The writes each slot may still hold.
    slots: Vec<SlotLog>,
    /// Submissions and CQEs taken so far (the event counter of
    /// [`SlotLog`]).
    events: u64,
}

/// An SQE in flight and what its CQE is checked against.
struct Pending {
    ticket: u64,
    start: Instant,
    ty: OpType,
    slot: usize,
    /// The write's tag, or for a read the tags the slot could hold when
    /// the read was submitted.
    tags: Vec<u64>,
}

pub struct RingMixed {
    st: Storage,
    ring: Arc<Ring>,
    pool: Vec<RingReactor>,
    clients: Vec<Client>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpType {
    Create,
    Unlink,
    Write,
    Read,
    Fsync,
}

impl Workload for RingMixed {
    const SHAPE: Shape = Shape {
        clients: CLIENTS,
        reactors: REACTORS,
        connections: 0,
        in_flight: WINDOW,
    };
    const BLOCKS: u64 = 8192;

    fn setup(seed: u64, ram: Arc<RamDisk>) -> RingMixed {
        let ram = Storage::format(ram, INODES, JOURNAL_BLOCKS);
        let st = Storage::mount(&ram, JournalMode::Async);
        let root = st.rsfs.root_ino();
        let clients = (0..CLIENTS)
            .map(|c| {
                let dir = st.rsfs.mkdir(root, &format!("d{c}")).expect("mkdir");
                let base = st.rsfs.create(dir, &format!("base{c}")).expect("create");
                st.rsfs
                    .write(base, 0, &vec![0u8; SLOTS * SLOT])
                    .expect("size base file");
                Client {
                    stream: Stream::new(seed, c),
                    dir,
                    base,
                    live: BTreeSet::new(),
                    slots: vec![SlotLog::new(); SLOTS],
                    events: 0,
                }
            })
            .collect();
        st.rsfs.sync().expect("sync");
        let ring = Arc::new(Ring::new(st.rsfs.lock_registry(), DEPTH));
        let pressure_fs = Arc::clone(&st.rsfs);
        let relieve_fs = Arc::clone(&st.rsfs);
        let pool = RingReactor::spawn_pool(
            Arc::clone(&ring),
            Arc::clone(&st.fs) as Arc<dyn FileSystem>,
            Some(Arc::new(RingThrottle {
                pressure: Box::new(move || pressure_fs.journal().map_or(0.0, |j| j.log_pressure())),
                relieve: Box::new(move || {
                    let _s = trace::span(Kind::Relieve);
                    let _ = relieve_fs.commit_running();
                    let _ = relieve_fs.checkpoint(usize::MAX);
                }),
                threshold: THROTTLE,
            })),
            REACTORS,
        );
        RingMixed {
            st,
            ring,
            pool,
            clients,
        }
    }

    fn run(&mut self, slice: Duration, n: usize) -> Window {
        let before = self.snap();
        let slicer = Slicer::start(slice, n);
        let ring = &self.ring;
        let threads = run_clients(&mut self.clients, &slicer, |c, client, sl| {
            run_client(ring, c, client, sl)
        });
        Window::from_threads(&slicer, threads, self.snap().since(&before))
    }

    fn finish(self) -> Vec<String> {
        let mut errors = Vec::new();
        // The abstraction must hold exactly the names the op stream left
        // behind, and each slot of a base file one write its client may
        // have left last.
        let model = fs_abstraction(&*self.st.rsfs);
        let mut want_files = BTreeSet::new();
        let mut want_dirs = BTreeSet::from(["/".to_string()]);
        for (c, client) in self.clients.iter().enumerate() {
            want_dirs.insert(format!("/d{c}"));
            want_files.insert(format!("/d{c}/base{c}"));
            for name in &client.live {
                want_files.insert(format!("/d{c}/{name}"));
            }
            match model.files.get(&format!("/d{c}/base{c}")) {
                Some(data) if data.len() == SLOTS * SLOT => {
                    for (slot, chunk) in data.chunks(SLOT).enumerate() {
                        let log = &client.slots[slot];
                        if let Err(e) = check_slot(chunk, |t| log.allows(t)) {
                            errors.push(format!("base{c} slot {slot} at rest: {e}"));
                        }
                    }
                }
                other => errors.push(format!(
                    "base{c} has {} bytes at rest",
                    other.map_or(0, Vec::len)
                )),
            }
        }
        let got_files: BTreeSet<String> = model.files.keys().cloned().collect();
        if got_files != want_files {
            let missing: Vec<_> = want_files.difference(&got_files).take(4).collect();
            let extra: Vec<_> = got_files.difference(&want_files).take(4).collect();
            errors.push(format!(
                "abstraction names differ: missing {missing:?}, unexpected {extra:?}"
            ));
        }
        if model.dirs != want_dirs {
            errors.push(format!("abstraction dirs {:?}", model.dirs));
        }
        // Reactors exit once the residual queue is drained.
        drop(self.pool);
        if let Err(e) = self.st.sync_and_fsck() {
            errors.push(e);
        }
        errors
    }
}

impl RingMixed {
    fn snap(&self) -> crate::stats::Snap {
        crate::stats::Snap {
            ring: self.ring.stats(),
            ..self.st.snap()
        }
    }
}

/// A slot's content is one whole write whose tag `allowed` accepts.
fn check_slot(data: &[u8], allowed: impl Fn(u64) -> bool) -> Result<(), String> {
    match pattern_tag(data) {
        None => Err("content is not one whole write (torn or corrupt)".into()),
        Some(t) if !allowed(t) => Err(format!(
            "holds write {t:#x}, which is not one it may hold now (stale, lost or foreign)"
        )),
        Some(_) => Ok(()),
    }
}

fn run_client(ring: &Ring, c: usize, client: &mut Client, slicer: &Slicer) -> Vec<Phase> {
    let mut r = slicer.phases();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let mut next_req = (c as u64) << 48;
    loop {
        let open = slicer.open();
        if inflight.len() == WINDOW || (!open && !inflight.is_empty()) {
            let p = inflight.pop_front().expect("window is non-empty");
            let cqe = {
                let _s = trace::span(Kind::RingWait);
                ring.wait(p.ticket)
            };
            let ns = p.start.elapsed().as_nanos() as u64;
            complete(client, &mut r[slicer.index()], p, cqe.reply, ns);
            continue;
        }
        if !open {
            break;
        }
        let r = &mut r[slicer.index()];
        next_req += 1;
        trace::set_req(next_req);
        let (op, ty, slot, tags) = {
            let _g = trace::span(Kind::Gen);
            match client.stream.next_op() {
                GenOp::Create(name) => {
                    client.live.insert(name.clone());
                    (
                        BatchOp::Create {
                            dir: client.dir,
                            name,
                        },
                        OpType::Create,
                        0,
                        Vec::new(),
                    )
                }
                GenOp::Unlink(name) => {
                    client.live.remove(&name);
                    (
                        BatchOp::Unlink {
                            dir: client.dir,
                            name,
                        },
                        OpType::Unlink,
                        0,
                        Vec::new(),
                    )
                }
                GenOp::Write { slot, tag } => (
                    BatchOp::Write {
                        ino: client.base,
                        off: (slot * SLOT) as u64,
                        data: slot_bytes(tag),
                    },
                    OpType::Write,
                    slot,
                    vec![tag],
                ),
                GenOp::Read { slot } => (
                    BatchOp::Read {
                        ino: client.base,
                        off: (slot * SLOT) as u64,
                        buf: vec![0u8; SLOT],
                    },
                    OpType::Read,
                    slot,
                    client.slots[slot].tags(),
                ),
                GenOp::Fsync => (
                    BatchOp::Fsync { ino: client.base },
                    OpType::Fsync,
                    0,
                    Vec::new(),
                ),
            }
        };
        r.attempted += 1;
        if ty == OpType::Write {
            r.user_bytes_written += SLOT as u64;
        }
        let t = Instant::now();
        let submitted = {
            let _s = trace::span(Kind::RingSubmit);
            ring.submit(op)
        };
        match submitted {
            Ok(ticket) => {
                client.events += 1;
                if ty == OpType::Write {
                    client.slots[slot].submitted(tags[0], client.events);
                }
                inflight.push_back(Pending {
                    ticket,
                    start: t,
                    ty,
                    slot,
                    tags,
                });
            }
            Err(_) => {
                r.failed += 1;
                r.error("ring refused a submission".into());
            }
        }
    }
    r
}

fn complete(client: &mut Client, r: &mut Phase, p: Pending, reply: BatchReply, ns: u64) {
    let Pending { ty, slot, tags, .. } = p;
    client.events += 1;
    r.op_ns.record(ns);
    r.ring_ns.record(ns);
    match ty {
        OpType::Read => r.read_ns.record(ns),
        OpType::Write => r.write_ns.record(ns),
        OpType::Fsync => r.fsync_ns.record(ns),
        OpType::Create | OpType::Unlink => {}
    }
    if let Err(e) = reply.result() {
        r.failed += 1;
        r.error(format!("{ty:?} CQE failed: {e:?}"));
        return;
    }
    match &reply {
        BatchReply::Read { result: Ok(n), buf } => {
            // The read may return what the slot could hold when it was
            // submitted, or a write submitted since (still in the log:
            // CQEs are taken in order, so none of those is dropped yet).
            let log = &client.slots[slot];
            if *n != SLOT {
                r.error(format!("short read: {n} bytes"));
            } else if let Err(e) = check_slot(buf, |t| tags.contains(&t) || log.allows(t)) {
                r.error(format!("read of slot {slot}: {e}"));
            }
        }
        _ if ty == OpType::Write => client.slots[slot].completed(tags[0], client.events),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: usize, n: usize) -> Vec<GenOp> {
        let mut s = Stream::new(seed, client);
        (0..n).map(|_| s.next_op()).collect()
    }

    fn mix(ops: &[GenOp]) -> [usize; 5] {
        let mut m = [0; 5];
        for op in ops {
            m[match op {
                GenOp::Create(_) => 0,
                GenOp::Unlink(_) => 1,
                GenOp::Write { .. } => 2,
                GenOp::Read { .. } => 3,
                GenOp::Fsync => 4,
            }] += 1;
        }
        m
    }

    #[test]
    fn same_seed_same_stream_other_seed_same_mix() {
        let a = take(11, 0, 4000);
        assert_eq!(a, take(11, 0, 4000));
        let b = take(12, 0, 4000);
        assert_ne!(a, b);
        assert_eq!(mix(&a), mix(&b));
        // 1 create, 3 writes, 2 reads + 1 unlink-or-read, 1 fsync per 8.
        assert_eq!(mix(&a), [500, 491, 1500, 1009, 500]);
        assert_ne!(take(11, 1, 4000), a);
    }

    #[test]
    fn write_tags_are_unique_and_nonzero() {
        let tags: Vec<u64> = take(11, 0, 4000)
            .into_iter()
            .filter_map(|op| match op {
                GenOp::Write { tag, .. } => Some(tag),
                _ => None,
            })
            .collect();
        let distinct: BTreeSet<u64> = tags.iter().copied().collect();
        assert_eq!(distinct.len(), tags.len());
        assert!(!distinct.contains(&0));
    }

    #[test]
    fn slot_log_drops_only_writes_a_later_write_ran_after() {
        let (w1, w2, w3) = (0x11, 0x22, 0x33);
        let mut log = SlotLog::new();
        let fresh = log.tags();
        log.submitted(w1, 1);
        log.completed(w1, 2);
        // The set-up zeros were seen before w1 was submitted.
        assert!(!log.allows(0));
        log.submitted(w2, 3);
        log.submitted(w3, 4);
        assert!(log.allows(w1) && log.allows(w2) && log.allows(w3));
        log.completed(w2, 5);
        assert!(!log.allows(w1));
        // w2 and w3 overlapped: either may have run last.
        log.completed(w3, 6);
        assert_eq!(log.tags(), vec![w2, w3]);
        let allowed = |t| log.allows(t);
        assert!(check_slot(&slot_bytes(w3), allowed).is_ok());
        assert!(check_slot(&slot_bytes(w1), allowed).is_err(), "stale");
        assert!(check_slot(&[0u8; SLOT], allowed).is_err(), "lost");
        let mut torn = slot_bytes(w2);
        torn[SLOT / 2..].copy_from_slice(&slot_bytes(w3)[SLOT / 2..]);
        assert!(check_slot(&torn, allowed).is_err(), "torn");
        // A read submitted before w1 may still return the zeros.
        assert!(check_slot(&[0u8; SLOT], |t| fresh.contains(&t)).is_ok());
    }

    #[test]
    fn unlinks_follow_their_create_beyond_the_window() {
        let ops = take(3, 1, 2000);
        for (k, op) in ops.iter().enumerate() {
            if let GenOp::Unlink(name) = op {
                let created = ops
                    .iter()
                    .position(|o| o == &GenOp::Create(name.clone()))
                    .expect("unlink of a name never created");
                assert!(k - created > WINDOW);
            }
        }
    }
}
