//! Forwarding wrappers the benchmark owns, one per layer boundary it
//! cannot otherwise see: a [`FileSystem`] around `Rsfs`, a
//! [`BlockDevice`] around the RAM disk, and a [`Link`] around
//! `FaultyLink`.
//!
//! Each wrapper forwards **every** trait method, defaulted ones
//! included. A wrapper that left, say, `submit_batch` to the trait
//! default would silently turn Rsfs's native batch staging into the
//! per-call loop and measure a different program; the equivalence test
//! in [`crate::selftest`] runs the same stream wrapped and unwrapped
//! and compares every stats delta.

use std::sync::Arc;
use std::time::Duration;

use sk_core::ownership::Owned;
use sk_ksim::block::{BlockDevice, DeviceStats, RamDisk};
use sk_ksim::errno::KResult;
use sk_netstack::packet::{Packet, HEADER_LEN};
use sk_netstack::wire::{Link, LinkStats, Side};
use sk_vfs::inode::{Attr, InodeNo};
use sk_vfs::modular::{BatchOp, BatchReply, DirEntry, FileSystem, StatFs, WriteCtx};

use crate::trace::{self, Counter, Kind};

/// The modelled device cost: every `flush` (a write barrier) costs this
/// much wall time; reads and writes cost nothing beyond the RAM copy.
/// The same model as the repository's group-commit rows.
pub const FLUSH_COST: Duration = Duration::from_micros(50);

/// The device every workload mounts: a RAM disk behind a forwarding
/// device that charges [`FLUSH_COST`] per barrier and records device
/// spans.
pub struct ModelDevice {
    inner: Arc<RamDisk>,
    flush_cost: Duration,
}

impl ModelDevice {
    pub fn new(inner: Arc<RamDisk>, flush_cost: Duration) -> ModelDevice {
        ModelDevice { inner, flush_cost }
    }
}

impl BlockDevice for ModelDevice {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&self, blkno: u64, buf: &mut [u8]) -> KResult<()> {
        let _s = trace::span(Kind::DevIo);
        self.inner.read_block(blkno, buf)
    }
    fn write_block(&self, blkno: u64, buf: &[u8]) -> KResult<()> {
        let _s = trace::span(Kind::DevIo);
        self.inner.write_block(blkno, buf)
    }
    fn read_blocks(&self, start: u64, count: usize, buf: &mut [u8]) -> KResult<()> {
        let _s = trace::span(Kind::DevIo);
        self.inner.read_blocks(start, count, buf)
    }
    fn write_blocks(&self, start: u64, count: usize, buf: &[u8]) -> KResult<()> {
        let _s = trace::span(Kind::DevIo);
        self.inner.write_blocks(start, count, buf)
    }
    fn flush(&self) -> KResult<()> {
        let _s = trace::span(Kind::DevFlush);
        if !self.flush_cost.is_zero() {
            std::thread::sleep(self.flush_cost);
        }
        self.inner.flush()
    }
    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

/// Timed forwarding [`FileSystem`]: one span per call, `submit_batch`
/// as its own kind.
pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
}

impl TimedFs {
    pub fn new(inner: Arc<dyn FileSystem>) -> TimedFs {
        TimedFs { inner }
    }
}

impl FileSystem for TimedFs {
    fn fs_name(&self) -> &'static str {
        self.inner.fs_name()
    }
    fn root_ino(&self) -> InodeNo {
        self.inner.root_ino()
    }
    fn lookup(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        let _s = trace::span(Kind::FsCall);
        trace::count(Counter::Lookups, 1);
        self.inner.lookup(dir, name)
    }
    fn getattr(&self, ino: InodeNo) -> KResult<Attr> {
        let _s = trace::span(Kind::FsCall);
        self.inner.getattr(ino)
    }
    fn create(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        let _s = trace::span(Kind::FsCall);
        self.inner.create(dir, name)
    }
    fn mkdir(&self, dir: InodeNo, name: &str) -> KResult<InodeNo> {
        let _s = trace::span(Kind::FsCall);
        self.inner.mkdir(dir, name)
    }
    fn unlink(&self, dir: InodeNo, name: &str) -> KResult<()> {
        let _s = trace::span(Kind::FsCall);
        self.inner.unlink(dir, name)
    }
    fn rmdir(&self, dir: InodeNo, name: &str) -> KResult<()> {
        let _s = trace::span(Kind::FsCall);
        self.inner.rmdir(dir, name)
    }
    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> KResult<usize> {
        let _s = trace::span(Kind::FsCall);
        self.inner.read(ino, off, buf)
    }
    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> KResult<usize> {
        let _s = trace::span(Kind::FsCall);
        self.inner.write(ino, off, data)
    }
    fn write_owned(&self, ino: InodeNo, off: u64, data: Owned<Vec<u8>>) -> KResult<usize> {
        let _s = trace::span(Kind::FsCall);
        self.inner.write_owned(ino, off, data)
    }
    fn write_begin(&self, ino: InodeNo, off: u64, len: usize) -> KResult<WriteCtx> {
        let _s = trace::span(Kind::FsCall);
        self.inner.write_begin(ino, off, len)
    }
    fn write_end(&self, ino: InodeNo, off: u64, data: &[u8], ctx: WriteCtx) -> KResult<usize> {
        let _s = trace::span(Kind::FsCall);
        self.inner.write_end(ino, off, data, ctx)
    }
    fn readdir(&self, dir: InodeNo) -> KResult<Vec<DirEntry>> {
        let _s = trace::span(Kind::FsCall);
        self.inner.readdir(dir)
    }
    fn rename(
        &self,
        olddir: InodeNo,
        oldname: &str,
        newdir: InodeNo,
        newname: &str,
    ) -> KResult<()> {
        let _s = trace::span(Kind::FsCall);
        self.inner.rename(olddir, oldname, newdir, newname)
    }
    fn truncate(&self, ino: InodeNo, size: u64) -> KResult<()> {
        let _s = trace::span(Kind::FsCall);
        self.inner.truncate(ino, size)
    }
    fn sync(&self) -> KResult<()> {
        let _s = trace::span(Kind::FsCall);
        self.inner.sync()
    }
    fn fsync(&self, ino: InodeNo) -> KResult<()> {
        let _s = trace::span(Kind::FsCall);
        self.inner.fsync(ino)
    }
    fn statfs(&self) -> KResult<StatFs> {
        let _s = trace::span(Kind::FsCall);
        self.inner.statfs()
    }
    fn quiesce_for_handoff(&self) -> KResult<()> {
        let _s = trace::span(Kind::FsCall);
        self.inner.quiesce_for_handoff()
    }
    fn submit_batch(&self, ops: Vec<BatchOp>) -> Vec<BatchReply> {
        let _s = trace::span(Kind::FsBatch);
        self.inner.submit_batch(ops)
    }
}

/// Timed forwarding [`Link`]; counts the encoded bytes handed to it.
pub struct TimedLink {
    inner: Arc<dyn Link>,
}

impl TimedLink {
    pub fn new(inner: Arc<dyn Link>) -> TimedLink {
        TimedLink { inner }
    }
}

impl Link for TimedLink {
    fn send(&self, side: Side, pkt: &Packet) {
        let _s = trace::span(Kind::Link);
        trace::count(Counter::WireBytes, (HEADER_LEN + pkt.payload.len()) as u64);
        self.inner.send(side, pkt)
    }
    fn recv(&self, side: Side) -> KResult<Option<Packet>> {
        let _s = trace::span(Kind::Link);
        self.inner.recv(side)
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn link_stats(&self) -> LinkStats {
        self.inner.link_stats()
    }
}
