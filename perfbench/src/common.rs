//! What every workload shares: the mounted storage stack and the
//! result of one timed phase.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sk_fs_safe::fsck::fsck;
use sk_fs_safe::rsfs::{JournalMode, Rsfs};
use sk_ksim::block::{BlockDevice, RamDisk, BLOCK_SIZE};
use sk_ksim::lock::LockRegistry;
use sk_vfs::modular::FileSystem;

use crate::stats::Snap;
use crate::util::{cpu_ticks, Hist};
use crate::wrap::{ModelDevice, TimedFs, FLUSH_COST};

/// One slice of a measured window, or (from [`Window::total`]) a whole
/// window folded into one.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    /// Share of the host's CPU time stolen by other guests meanwhile.
    pub steal: f64,
    /// Ops (requests, for `file_serve`) attempted in the phase.
    pub attempted: u64,
    /// Ops that errored or were refused.
    pub failed: u64,
    /// Per-op latency (submit→CQE, call→return, request→last byte).
    pub op_ns: Hist,
    pub read_ns: Hist,
    pub write_ns: Hist,
    pub fsync_ns: Hist,
    /// Per-SQE latency, submit→CQE.
    pub ring_ns: Hist,
    /// Request latency in `SimClock` time (`file_serve`).
    pub sim_req_ns: Hist,
    /// Bytes the workload asked the file system to write.
    pub user_bytes_written: u64,
    /// Application bytes carried over the network, both directions.
    pub payload_bytes: u64,
    /// Event-loop rounds (`file_serve`).
    pub rounds: u64,
    /// Counter deltas (set on a whole window's [`Window::total`]).
    pub delta: Snap,
    /// Correctness failures seen while the phase ran.
    pub errors: Vec<String>,
}

impl Phase {
    pub fn completed(&self) -> u64 {
        self.op_ns.len()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.wall_s
    }

    /// Folds another share of the same slice (another client thread's)
    /// into this one.
    pub fn absorb(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.op_ns.merge(&other.op_ns);
        self.read_ns.merge(&other.read_ns);
        self.write_ns.merge(&other.write_ns);
        self.fsync_ns.merge(&other.fsync_ns);
        self.ring_ns.merge(&other.ring_ns);
        self.sim_req_ns.merge(&other.sim_req_ns);
        self.user_bytes_written += other.user_bytes_written;
        self.payload_bytes += other.payload_bytes;
        self.rounds += other.rounds;
        for e in &other.errors {
            self.error(e.clone());
        }
    }

    pub fn error(&mut self, msg: String) {
        // Keep the first few: one failure is enough to fail the run.
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// The wall-clock slicing of one measured window: `n` consecutive
/// slices of `slice`; work done after the deadline (draining what is in
/// flight) belongs to the last one. Client threads live for the whole
/// window and file each op under the slice it completed in.
#[derive(Debug)]
pub struct Slicer {
    t0: Instant,
    slice: Duration,
    n: usize,
    /// Host CPU ticks `(steal, total)` at each slice boundary (`n + 1`
    /// of them), taken by whichever thread first sees the boundary pass.
    marks: Vec<Mutex<Option<(u64, u64)>>>,
    next_mark: AtomicUsize,
}

impl Slicer {
    pub fn start(slice: Duration, n: usize) -> Slicer {
        assert!(n > 0 && !slice.is_zero(), "a window has at least one slice");
        let marks: Vec<_> = (0..=n).map(|_| Mutex::new(None)).collect();
        *marks[0].lock().expect("fresh mutex") = cpu_ticks();
        Slicer {
            t0: Instant::now(),
            slice,
            n,
            marks,
            next_mark: AtomicUsize::new(1),
        }
    }

    /// True until the window's deadline.
    pub fn open(&self) -> bool {
        self.t0.elapsed() < self.slice * self.n as u32
    }

    /// The slice the present moment falls in.
    pub fn index(&self) -> usize {
        let i = ((self.t0.elapsed().as_nanos() / self.slice.as_nanos()) as usize).min(self.n - 1);
        self.mark_through(i);
        i
    }

    /// Records the CPU ticks of every boundary up to `k` not yet marked.
    fn mark_through(&self, k: usize) {
        loop {
            let next = self.next_mark.load(Ordering::Relaxed);
            if next > k {
                return;
            }
            if self
                .next_mark
                .compare_exchange(next, next + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                *self.marks[next].lock().expect("mark lock poisoned") = cpu_ticks();
            }
        }
    }

    /// One empty phase per slice.
    pub fn phases(&self) -> Vec<Phase> {
        (0..self.n).map(|_| Phase::default()).collect()
    }

    /// Stamps each slice's wall time (the last runs until now) and the
    /// host's steal share over it.
    pub fn close(&self, slices: &mut [Phase]) {
        self.mark_through(self.n);
        let total = self.t0.elapsed().as_secs_f64();
        let marks: Vec<Option<(u64, u64)>> = self
            .marks
            .iter()
            .map(|m| *m.lock().expect("mark lock poisoned"))
            .collect();
        for (i, p) in slices.iter_mut().enumerate() {
            p.wall_s = if i + 1 < self.n {
                self.slice.as_secs_f64()
            } else {
                total - self.slice.as_secs_f64() * (self.n - 1) as f64
            };
            p.steal = match (marks[i], marks[i + 1]) {
                (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
                _ => 0.0,
            };
        }
    }
}

/// Runs `client(index, state, slicer)` on one scoped thread per client
/// state for the whole window and returns each thread's slices.
pub fn run_clients<C: Send>(
    clients: &mut [C],
    slicer: &Slicer,
    client: impl Fn(usize, &mut C, &Slicer) -> Vec<Phase> + Sync,
) -> Vec<Vec<Phase>> {
    let client = &client;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || client(i, c, slicer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The slices `chosen` from `slices` as one phase: samples and counts
/// pooled, wall times added.
pub fn pool(slices: &[Phase], chosen: impl IntoIterator<Item = usize>) -> Phase {
    let mut p = Phase::default();
    for i in chosen {
        p.absorb(&slices[i]);
        p.wall_s += slices[i].wall_s;
    }
    p
}

/// One measured window: its slices and the counter deltas over all of it.
#[derive(Debug, Default)]
pub struct Window {
    pub slices: Vec<Phase>,
    pub delta: Snap,
}

impl Window {
    /// Folds per-thread slice vectors into one window.
    pub fn from_threads(slicer: &Slicer, threads: Vec<Vec<Phase>>, delta: Snap) -> Window {
        let mut slices = slicer.phases();
        for t in &threads {
            for (dst, src) in slices.iter_mut().zip(t) {
                dst.absorb(src);
            }
        }
        slicer.close(&mut slices);
        Window { slices, delta }
    }

    /// The whole window as one phase.
    pub fn total(&self) -> Phase {
        Phase {
            delta: self.delta,
            ..pool(&self.slices, 0..self.slices.len())
        }
    }

    pub fn errors(&self) -> Vec<String> {
        self.slices.iter().flat_map(|s| s.errors.clone()).collect()
    }
}

/// A workload the driver can set up, run for a while, and check.
pub trait Workload: Sized {
    /// Client threads, reactors and connections, for the provenance stamp.
    const SHAPE: Shape;
    /// Size of the RAM disk the workload runs on.
    const BLOCKS: u64;
    /// Formats, mounts and populates the file system on `ram` (a
    /// [`resident_ram`] of [`Self::BLOCKS`]): the work `setup_s` times.
    fn setup(seed: u64, ram: Arc<RamDisk>) -> Self;
    /// Brings a set-up system to where the first op can start, beyond
    /// what `setup_s` covers (the TCP handshakes of `file_serve`).
    fn start(&mut self) {}
    /// Runs for `n` slices of `slice`.
    fn run(&mut self, slice: Duration, n: usize) -> Window;
    /// Post-run correctness checks on this system; the errors found.
    fn finish(self) -> Vec<String>;
    /// Checks that need a system of their own (run once per invocation).
    fn durability_check(_seed: u64) -> Vec<String> {
        Vec::new()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub clients: usize,
    pub reactors: usize,
    pub connections: usize,
    /// Ops each client thread keeps in flight at once.
    pub in_flight: usize,
}

/// Rsfs on the modelled device, with the timed wrapper the workloads
/// call through.
pub struct Storage {
    pub dev: Arc<ModelDevice>,
    pub rsfs: Arc<Rsfs>,
    pub fs: Arc<TimedFs>,
}

/// A RAM disk of `blocks` whose every page is already resident (written
/// once with zeros), so the disk adds exactly its size to the process's
/// resident set and its page faults fall outside every timed phase.
pub fn resident_ram(blocks: u64) -> Arc<RamDisk> {
    const CHUNK: u64 = 256;
    let ram = Arc::new(RamDisk::new(blocks));
    let zeros = vec![0u8; CHUNK as usize * BLOCK_SIZE];
    let mut b = 0;
    while b < blocks {
        let n = CHUNK.min(blocks - b);
        ram.write_blocks(b, n as usize, &zeros[..n as usize * BLOCK_SIZE])
            .expect("write within the disk");
        b += n;
    }
    ram
}

/// Size of a [`resident_ram`] of `blocks`, in MiB.
pub fn ram_mb(blocks: u64) -> f64 {
    (blocks * BLOCK_SIZE as u64) as f64 / (1024.0 * 1024.0)
}

impl Storage {
    /// Formats `ram`.
    pub fn format(ram: Arc<RamDisk>, inodes: u32, journal_blocks: u32) -> Arc<RamDisk> {
        let dev: Arc<dyn BlockDevice> = Arc::clone(&ram) as Arc<dyn BlockDevice>;
        Rsfs::mkfs(&dev, inodes, journal_blocks).expect("mkfs");
        ram
    }

    /// Mounts `ram` behind the modelled device. Lockdep is off, as in
    /// every bench of the repository: an enabled registry serialises
    /// tracked acquisitions on one mutex.
    pub fn mount(ram: &Arc<RamDisk>, mode: JournalMode) -> Storage {
        let dev = Arc::new(ModelDevice::new(Arc::clone(ram), FLUSH_COST));
        let rsfs = Arc::new(
            Rsfs::mount_with_registry(
                Arc::clone(&dev) as Arc<dyn BlockDevice>,
                mode,
                LockRegistry::new_disabled(),
            )
            .expect("mount"),
        );
        let fs = Arc::new(TimedFs::new(Arc::clone(&rsfs) as Arc<dyn FileSystem>));
        Storage { dev, rsfs, fs }
    }

    /// Journal, cache and device counters (the other fields stay zero).
    pub fn snap(&self) -> Snap {
        Snap {
            journal: self.rsfs.journal().map(|j| j.stats()).unwrap_or_default(),
            cache: self.rsfs.cache().stats(),
            dev: self.dev.stats(),
            ..Snap::default()
        }
    }

    /// Syncs, then runs `fsck` over the device image.
    pub fn sync_and_fsck(&self) -> Result<(), String> {
        self.rsfs
            .sync()
            .map_err(|e| format!("sync failed: {e:?}"))?;
        let report = fsck(&*self.dev).map_err(|e| format!("fsck failed to run: {e:?}"))?;
        if report.is_clean() {
            Ok(())
        } else {
            Err(format!("fsck findings: {:?}", report.findings))
        }
    }
}
