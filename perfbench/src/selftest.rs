//! Wrapper equivalence: the same short seeded stream, single-threaded,
//! through the wrapped stack (timed file system over the modelled
//! device) and the bare one (Rsfs on the RAM disk) must leave identical
//! journal, ring, cache and device counter deltas. A wrapper that missed
//! a method — `submit_batch` falling back to the per-call loop, say —
//! changes the journal's staging counts and fails here.

use std::sync::Arc;
use std::time::Duration;

use sk_core::ownership::Owned;
use sk_fs_safe::rsfs::{JournalMode, Rsfs};
use sk_ksim::block::{BlockDevice, RamDisk};
use sk_ksim::lock::LockRegistry;
use sk_vfs::modular::{BatchOp, FileSystem};
use sk_vfs::ring::Ring;

use crate::ring_mixed::{slot_bytes, GenOp, Stream, SLOT, SLOTS};
use crate::stats::Snap;
use crate::wrap::{ModelDevice, TimedFs};

fn run_stream(wrapped: bool) -> String {
    let ram = Arc::new(RamDisk::new(4096));
    let dev: Arc<dyn BlockDevice> = if wrapped {
        Arc::new(ModelDevice::new(Arc::clone(&ram), Duration::ZERO))
    } else {
        Arc::clone(&ram) as Arc<dyn BlockDevice>
    };
    Rsfs::mkfs(&dev, 512, 1024).expect("mkfs");
    let rsfs = Arc::new(
        Rsfs::mount_with_registry(
            Arc::clone(&dev),
            JournalMode::Async,
            LockRegistry::new_disabled(),
        )
        .expect("mount"),
    );
    let fs: Arc<dyn FileSystem> = if wrapped {
        Arc::new(TimedFs::new(Arc::clone(&rsfs) as Arc<dyn FileSystem>))
    } else {
        Arc::clone(&rsfs) as Arc<dyn FileSystem>
    };
    let ring = Ring::new(rsfs.lock_registry(), 32);
    let snap = || Snap {
        journal: rsfs.journal().expect("journaled").stats(),
        cache: rsfs.cache().stats(),
        dev: dev.stats(),
        ring: ring.stats(),
        ..Snap::default()
    };
    let before = snap();

    let root = fs.root_ino();
    let dir = fs.mkdir(root, "d0").expect("mkdir");
    let base = fs.create(dir, "base").expect("create");
    fs.write(base, 0, &vec![0u8; SLOTS * SLOT]).expect("size");
    // Ring path: batches of 16 SQEs, drained on this thread.
    let mut stream = Stream::new(42, 0);
    for _ in 0..40 {
        for _ in 0..16 {
            let op = match stream.next_op() {
                GenOp::Create(name) => BatchOp::Create { dir, name },
                GenOp::Unlink(name) => BatchOp::Unlink { dir, name },
                GenOp::Write { slot, tag } => BatchOp::Write {
                    ino: base,
                    off: (slot * SLOT) as u64,
                    data: slot_bytes(tag),
                },
                GenOp::Read { slot } => BatchOp::Read {
                    ino: base,
                    off: (slot * SLOT) as u64,
                    buf: vec![0u8; SLOT],
                },
                GenOp::Fsync => BatchOp::Fsync { ino: base },
            };
            ring.submit(op).expect("ring open");
        }
        assert_eq!(ring.drain_once(&*fs), 16);
    }
    // Per-call path, including the defaulted trait methods.
    let ctx = fs.write_begin(base, 100, 64).expect("write_begin");
    fs.write_end(base, 100, &[7u8; 64], ctx).expect("write_end");
    fs.write_owned(base, 2048, Owned::new(vec![9u8; 512]))
        .expect("write_owned");
    fs.fsync(base).expect("fsync");
    let f = fs.create(dir, "moved").expect("create");
    fs.rename(dir, "moved", root, "there").expect("rename");
    fs.truncate(f, 100).expect("truncate");
    assert_eq!(fs.lookup(root, "there").expect("lookup"), f);
    fs.getattr(f).expect("getattr");
    fs.readdir(dir).expect("readdir");
    fs.statfs().expect("statfs");
    fs.unlink(root, "there").expect("unlink");
    fs.quiesce_for_handoff().expect("quiesce");
    fs.sync().expect("sync");

    let d = snap().since(&before);
    // RingStats has no PartialEq; the Debug form covers every field.
    format!("{d:?}")
}

#[test]
fn wrapped_and_bare_stacks_count_the_same() {
    let bare = run_stream(false);
    let wrapped = run_stream(true);
    assert_eq!(bare, wrapped);
}
