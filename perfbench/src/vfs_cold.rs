//! `vfs_cold`: the per-call path over a working set larger than the
//! caches.
//!
//! Two client threads call `Vfs` path functions one op at a time, with
//! no cached descriptors, so every op walks its path. Rsfs runs in
//! `JournalMode::PerOp`. 80% of ops read one 4 KiB block (open, seek,
//! read, close); 20% durably overwrite one (`write_file`, then
//! `fsync_path`). Targets are Zipf-skewed (s = 0.9) over each thread's
//! own half of 2048 files × 8 KiB in 32 directories (16 MiB); the
//! popularity order is fixed, the seed draws the op sequence.
//!
//! Why: the only workload larger than the caches — 16× the buffer cache
//! (256 × 4 KiB) and 2× the dentry cache (1024 entries) — and the
//! per-call + PerOp commit path. Writes run beside reads on the same
//! cache, so a read-path gain that costs writes shows.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sk_core::modularity::Registry;
use sk_fs_safe::rsfs::{JournalMode, Rsfs};
use sk_ksim::block::{BlockDevice, CrashDevice, RamDisk};
use sk_ksim::lock::LockRegistry;
use sk_vfs::modular::FileSystem;
use sk_vfs::path::{OpenFlags, Vfs, FS_INTERFACE};

use crate::common::{run_clients, Phase, Shape, Slicer, Storage, Window, Workload};
use crate::stats::Snap;
use crate::trace::{self, Kind};
use crate::util::{pattern, pattern_tag, Rng, Zipf};

pub const CLIENTS: usize = 2;
pub const FILES: usize = 2048;
pub const DIRS: usize = 32;
pub const FILE_SIZE: usize = 8192;
pub const BLOCK: usize = 4096;
pub const BLOCKS_PER_FILE: usize = FILE_SIZE / BLOCK;
pub const ZIPF_S: f64 = 0.9;
/// Percent of ops that read (the rest overwrite).
pub const READ_PCT: u64 = 80;
/// Files set-up writes between syncs: its async journal then never holds
/// more than this many files of dirty data, so set-up's footprint stays
/// below the measured system's and `peak_rss_mb` is the latter's.
const POPULATE_SYNC_EVERY: usize = 128;
/// Ops of each client's stream replayed over the crash device.
const CRASH_PREFIX: usize = 400;

const INODES: u32 = 4096;
const JOURNAL_BLOCKS: u32 = 1024;

pub fn path_of(file: usize) -> String {
    format!("/d{:02}/f{file:04}", file / (FILES / DIRS))
}

/// Every block holds one [`pattern`]: the tag it was filled with at
/// set-up, or the tag of the last write to it. The checks keep one tag
/// per block, not a copy of the data, so the harness stays small next to
/// the file system it measures.
fn block_bytes(tag: u64) -> Vec<u8> {
    pattern(tag, BLOCK)
}

/// The tag block `block` of `file` is filled with at set-up, a pure
/// function of the seed (odd, so never a zero pattern).
pub fn initial_tag(seed: u64, file: usize, block: usize) -> u64 {
    Rng::stream(seed ^ 0x5EED_F11E, (file * BLOCKS_PER_FILE + block) as u64).next_u64() | 1
}

/// Initial content of `file`.
pub fn initial_content(seed: u64, file: usize) -> Vec<u8> {
    (0..BLOCKS_PER_FILE)
        .flat_map(|b| block_bytes(initial_tag(seed, file, b)))
        .collect()
}

/// The initial tag of every block of every file, indexed by
/// `file * BLOCKS_PER_FILE + block`.
fn initial_tags(seed: u64) -> Vec<u64> {
    (0..FILES * BLOCKS_PER_FILE)
        .map(|i| initial_tag(seed, i / BLOCKS_PER_FILE, i % BLOCKS_PER_FILE))
        .collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenOp {
    Read {
        file: usize,
        block: usize,
    },
    /// Overwrites the block with `data`, the pattern of `tag` (odd,
    /// drawn from the seed).
    Write {
        file: usize,
        block: usize,
        tag: u64,
        data: Vec<u8>,
    },
}

/// The seeded op stream of one client over its own half of the files.
pub struct Stream {
    rng: Rng,
    zipf: Zipf,
    /// First file of this client's half.
    base: usize,
}

/// Popularity rank → file within a client's half: consecutive ranks
/// go round-robin over the half's directories, so the hot set is spread
/// the same way whatever the seed. (A seeded permutation here made the
/// cache and dcache hit ratios, and with them the read latencies,
/// depend on where the seed happened to put the hot files.)
pub fn file_of_rank(rank: usize) -> usize {
    let per_dir = FILES / DIRS;
    let dirs = DIRS / CLIENTS;
    (rank % dirs) * per_dir + rank / dirs
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::stream(seed, 1000 + client as u64),
            zipf: Zipf::new(FILES / CLIENTS, ZIPF_S),
            base: client * (FILES / CLIENTS),
        }
    }

    pub fn next_op(&mut self) -> GenOp {
        let file = self.base + file_of_rank(self.zipf.sample(&mut self.rng));
        let block = self.rng.below(BLOCKS_PER_FILE as u64) as usize;
        if self.rng.below(100) < READ_PCT {
            GenOp::Read { file, block }
        } else {
            let tag = self.rng.next_u64() | 1;
            GenOp::Write {
                file,
                block,
                tag,
                data: block_bytes(tag),
            }
        }
    }
}

struct Client {
    stream: Stream,
    /// Expected tag of every block (see [`initial_tags`]; only this
    /// client's half is ever touched).
    tags: Vec<u64>,
}

pub struct VfsCold {
    st: Storage,
    vfs: Vfs,
    clients: Vec<Client>,
}

/// Formats `dev`, creates the tree and fills every file, in async mode
/// so set-up does not pay one barrier per file (it syncs every
/// [`POPULATE_SYNC_EVERY`] files); returns the populated disk.
fn populate<D: BlockDevice + 'static>(dev: Arc<D>, seed: u64) -> Arc<D> {
    let bdev: Arc<dyn BlockDevice> = Arc::clone(&dev) as Arc<dyn BlockDevice>;
    Rsfs::mkfs(&bdev, INODES, JOURNAL_BLOCKS).expect("mkfs");
    let fs = Rsfs::mount_with_registry(bdev, JournalMode::Async, LockRegistry::new_disabled())
        .expect("mount");
    let root = fs.root_ino();
    let dirs: Vec<u64> = (0..DIRS)
        .map(|d| fs.mkdir(root, &format!("d{d:02}")).expect("mkdir"))
        .collect();
    for f in 0..FILES {
        let ino = fs
            .create(dirs[f / (FILES / DIRS)], &format!("f{f:04}"))
            .expect("create");
        fs.write(ino, 0, &initial_content(seed, f)).expect("fill");
        if (f + 1) % POPULATE_SYNC_EVERY == 0 {
            fs.sync().expect("sync");
        }
    }
    fs.sync().expect("sync");
    dev
}

fn mount_vfs(fs: Arc<dyn FileSystem>) -> Vfs {
    let registry = Registry::new();
    registry
        .register::<dyn FileSystem>(FS_INTERFACE, "rsfs", fs)
        .expect("register");
    Vfs::mount(&registry).expect("vfs mount")
}

/// What one op returned.
enum Reply {
    /// The block read.
    Read(Vec<u8>),
    /// A write acknowledged durable, with its fsync latency.
    Written { fsync_ns: u64 },
}

/// One op through the `Vfs` path API.
fn do_op(vfs: &Vfs, op: &GenOp) -> Result<Reply, String> {
    match *op {
        GenOp::Read { file, block } => {
            let path = path_of(file);
            let fd = vfs
                .open_with(&path, OpenFlags::RDONLY)
                .map_err(|e| format!("open {path}: {e:?}"))?;
            let mut buf = vec![0u8; BLOCK];
            let read = vfs
                .seek(fd, (block * BLOCK) as u64)
                .and_then(|_| vfs.read(fd, &mut buf));
            vfs.close(fd).map_err(|e| format!("close {path}: {e:?}"))?;
            let n = read.map_err(|e| format!("read {path}: {e:?}"))?;
            buf.truncate(n);
            Ok(Reply::Read(buf))
        }
        GenOp::Write {
            file,
            block,
            ref data,
            ..
        } => {
            let path = path_of(file);
            let n = vfs
                .write_file(&path, (block * BLOCK) as u64, data)
                .map_err(|e| format!("write {path}: {e:?}"))?;
            if n != BLOCK {
                return Err(format!("short write to {path}: {n}"));
            }
            let t = Instant::now();
            vfs.fsync_path(&path)
                .map_err(|e| format!("fsync {path}: {e:?}"))?;
            Ok(Reply::Written {
                fsync_ns: t.elapsed().as_nanos() as u64,
            })
        }
    }
}

/// Checks a read against the block's expected tag, or records the tag of
/// an acknowledged write.
fn verify(tags: &mut [u64], op: &GenOp, reply: &Reply) -> Result<(), String> {
    match (op, reply) {
        (&GenOp::Read { file, block }, Reply::Read(buf)) => {
            let want = tags[file * BLOCKS_PER_FILE + block];
            if buf.len() != BLOCK || pattern_tag(buf) != Some(want) {
                return Err(format!(
                    "read {} block {block} is not its last acknowledged write",
                    path_of(file)
                ));
            }
        }
        (
            &GenOp::Write {
                file, block, tag, ..
            },
            Reply::Written { .. },
        ) => {
            tags[file * BLOCKS_PER_FILE + block] = tag;
        }
        _ => unreachable!("reply of another op type"),
    }
    Ok(())
}

/// The expected content of `file` from its block tags.
fn expected(tags: &[u64], file: usize) -> Vec<u8> {
    tags[file * BLOCKS_PER_FILE..(file + 1) * BLOCKS_PER_FILE]
        .iter()
        .flat_map(|&t| block_bytes(t))
        .collect()
}

fn run_client(vfs: &Vfs, c: usize, client: &mut Client, slicer: &Slicer) -> Vec<Phase> {
    let mut slices = slicer.phases();
    let mut req = (c as u64) << 48;
    while slicer.open() {
        req += 1;
        trace::set_req(req);
        let op = {
            let _g = trace::span(Kind::Gen);
            client.stream.next_op()
        };
        let t = Instant::now();
        let res = {
            let _s = trace::span(Kind::VfsOp);
            do_op(vfs, &op)
        };
        let ns = t.elapsed().as_nanos() as u64;
        let r = &mut slices[slicer.index()];
        r.attempted += 1;
        match res.and_then(|reply| verify(&mut client.tags, &op, &reply).map(|()| reply)) {
            Ok(reply) => {
                r.op_ns.record(ns);
                match reply {
                    Reply::Read(_) => r.read_ns.record(ns),
                    Reply::Written { fsync_ns } => {
                        r.write_ns.record(ns);
                        r.fsync_ns.record(fsync_ns);
                        r.user_bytes_written += BLOCK as u64;
                    }
                }
            }
            Err(e) => {
                r.failed += 1;
                r.error(e);
            }
        }
    }
    slices
}

impl Workload for VfsCold {
    const SHAPE: Shape = Shape {
        clients: CLIENTS,
        reactors: 0,
        connections: 0,
        in_flight: 1,
    };
    const BLOCKS: u64 = 16384;

    fn setup(seed: u64, ram: Arc<RamDisk>) -> VfsCold {
        let ram = populate(ram, seed);
        // Remount in PerOp: the measured configuration, with a cold cache.
        let st = Storage::mount(&ram, JournalMode::PerOp);
        let vfs = mount_vfs(Arc::clone(&st.fs) as Arc<dyn FileSystem>);
        let clients = (0..CLIENTS)
            .map(|c| Client {
                stream: Stream::new(seed, c),
                tags: initial_tags(seed),
            })
            .collect();
        VfsCold { st, vfs, clients }
    }

    fn run(&mut self, slice: Duration, n: usize) -> Window {
        let before = self.snap();
        let slicer = Slicer::start(slice, n);
        let vfs = &self.vfs;
        let threads = run_clients(&mut self.clients, &slicer, |c, client, sl| {
            run_client(vfs, c, client, sl)
        });
        Window::from_threads(&slicer, threads, self.snap().since(&before))
    }

    fn finish(self) -> Vec<String> {
        let mut errors = Vec::new();
        // Every file at rest holds its owner's last acknowledged writes.
        for f in 0..FILES {
            let owner = &self.clients[f / (FILES / CLIENTS)];
            match self.vfs.read_file(&path_of(f)) {
                Ok(data) if data == expected(&owner.tags, f) => {}
                Ok(_) => errors.push(format!(
                    "{} is not its last acknowledged writes at rest",
                    path_of(f)
                )),
                Err(e) => errors.push(format!("read_file {}: {e:?}", path_of(f))),
            }
            if errors.len() >= 8 {
                break;
            }
        }
        if let Err(e) = self.st.sync_and_fsck() {
            errors.push(e);
        }
        errors
    }

    fn durability_check(seed: u64) -> Vec<String> {
        crash_check(seed).err().into_iter().collect()
    }
}

impl VfsCold {
    fn snap(&self) -> Snap {
        Snap {
            dcache: self.vfs.dcache().stats(),
            ..self.st.snap()
        }
    }
}

/// Untimed durability check: replays a prefix of each client's op
/// stream over a volatile-cache device, cuts power (dropping every write
/// not yet flushed), remounts through recovery, and checks that every
/// acknowledged PerOp write is there — and nothing else changed.
pub fn crash_check(seed: u64) -> Result<(), String> {
    let crash = populate(
        Arc::new(CrashDevice::new(RamDisk::new(VfsCold::BLOCKS))),
        seed,
    );
    let dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
    let fs = Arc::new(
        Rsfs::mount_with_registry(dev, JournalMode::PerOp, LockRegistry::new_disabled())
            .map_err(|e| format!("crash check mount: {e:?}"))?,
    );
    let vfs = mount_vfs(Arc::clone(&fs) as Arc<dyn FileSystem>);
    let mut tags = initial_tags(seed);
    for c in 0..CLIENTS {
        let mut stream = Stream::new(seed, c);
        for _ in 0..CRASH_PREFIX {
            let op = stream.next_op();
            verify(&mut tags, &op, &do_op(&vfs, &op)?)?;
        }
    }
    let lost = crash.pending_len();
    crash.crash();
    drop(vfs);
    drop(fs);
    crash.recover();
    let dev: Arc<dyn BlockDevice> = Arc::clone(&crash) as Arc<dyn BlockDevice>;
    let fs = Rsfs::mount_with_registry(dev, JournalMode::PerOp, LockRegistry::new_disabled())
        .map_err(|e| format!("remount after crash ({lost} writes lost): {e:?}"))?;
    let vfs = mount_vfs(Arc::new(fs) as Arc<dyn FileSystem>);
    for f in 0..FILES {
        let got = vfs
            .read_file(&path_of(f))
            .map_err(|e| format!("after crash, read_file {}: {e:?}", path_of(f)))?;
        if got != expected(&tags, f) {
            return Err(format!(
                "after crash ({lost} unflushed writes dropped), {} lost an acknowledged write",
                path_of(f)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: usize, n: usize) -> Vec<GenOp> {
        let mut s = Stream::new(seed, client);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_same_shape() {
        let a = take(5, 0, 5000);
        assert_eq!(a, take(5, 0, 5000));
        let b = take(6, 0, 5000);
        assert_ne!(a, b);
        for ops in [&a, &b] {
            let writes = ops
                .iter()
                .filter(|o| matches!(o, GenOp::Write { .. }))
                .count();
            // 20% writes, within sampling noise.
            assert!((850..1150).contains(&writes), "{writes} writes");
            for op in ops.iter() {
                let (GenOp::Read { file, block } | GenOp::Write { file, block, .. }) = op;
                assert!(*file < FILES / CLIENTS, "client 0 left its half");
                assert!(*block < FILE_SIZE / BLOCK);
                if let GenOp::Write { tag, data, .. } = op {
                    assert_eq!(tag & 1, 1, "write tags are odd");
                    assert_eq!(pattern_tag(data), Some(*tag));
                    assert_eq!(data.len(), BLOCK);
                }
            }
        }
        assert!(take(5, 1, 100).iter().all(|o| {
            let (GenOp::Read { file, .. } | GenOp::Write { file, .. }) = o;
            *file >= FILES / CLIENTS
        }));
    }

    #[test]
    fn ranks_map_one_to_one_onto_a_half() {
        let mut seen: Vec<usize> = (0..FILES / CLIENTS).map(file_of_rank).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..FILES / CLIENTS).collect::<Vec<_>>());
        // The ten hottest files sit in ten different directories.
        let dirs: std::collections::BTreeSet<_> =
            (0..10).map(|r| file_of_rank(r) / (FILES / DIRS)).collect();
        assert_eq!(dirs.len(), 10);
    }

    #[test]
    fn acknowledged_writes_survive_a_crash() {
        crash_check(9).expect("crash check");
    }
}
