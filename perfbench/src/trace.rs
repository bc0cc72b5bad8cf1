//! In-memory span recorder for the traced run.
//!
//! Spans are taken at the benchmark's own call sites (the `Vfs` calls,
//! `Ring::submit`/`wait`, socket calls) and at the forwarding wrappers
//! in [`crate::wrap`] (file system, block device, link). Each thread
//! keeps its own buffer, so recording never contends across threads:
//!
//! - a span's *self* time is its duration minus the time its child spans
//!   on the same thread cover, computed at exit from a per-thread stack;
//! - spans of one client op share the request id the harness set with
//!   [`set_req`]; spans on reactor threads carry request 0 and are
//!   attributed in aggregate;
//! - per-kind aggregates (count, total, self total, a duration
//!   histogram) are kept online; the raw spans are kept up to
//!   [`RAW_CAP`] per thread and written out by [`dump`] when the run ends.
//!
//! With tracing off every site costs one relaxed load.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::util::Hist;

/// Span kinds, one per layer boundary the benchmark can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One `Vfs` path op (open/seek/read/close or write), client thread.
    VfsOp,
    /// `Ring::submit`, client thread (time blocked on a full SQ).
    RingSubmit,
    /// `Ring::wait`, client thread.
    RingWait,
    /// The throttle's relief action (commit + checkpoint), reactor thread.
    Relieve,
    /// Any per-call `FileSystem` method.
    FsCall,
    /// `FileSystem::submit_batch`.
    FsBatch,
    /// Any block device read or write (single or vectored).
    DevIo,
    /// Block device flush (carries the modelled barrier cost).
    DevFlush,
    /// `ModularStack::pump`.
    NetPump,
    /// `ModularStack::send`.
    NetSend,
    /// `ModularStack::recv`.
    NetRecv,
    /// `ModularStack::tick`.
    NetTick,
    /// `Link::send`/`recv` inside the stack.
    Link,
    /// The server's file read for one request (`Vfs` resolve + ring read).
    ServeFs,
    /// Op generation in the client loop (outside every timed call).
    Gen,
}

pub const KINDS: usize = Kind::Gen as usize + 1;

/// Raw spans kept per thread for the dump.
pub const RAW_CAP: usize = 1 << 16;

/// Counters taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Counter {
    /// `FileSystem::lookup` calls.
    Lookups,
    /// Bytes the stack handed to the link (encoded frame size).
    WireBytes,
    /// `ModularStack::send` calls refused with an error.
    SendRefused,
}

pub const COUNTERS: usize = Counter::SendRefused as usize + 1;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub depth: u8,
    pub thread: u32,
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default, Clone)]
pub struct KindAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durs: Hist,
}

#[derive(Default)]
struct ThreadBuf {
    raw: Vec<Span>,
    dropped: u64,
    agg: Vec<KindAgg>,
    counters: [u64; COUNTERS],
}

/// Everything recorded, merged over threads.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    pub agg: Vec<KindAgg>,
    pub counters: [u64; COUNTERS],
    pub raw_spans: usize,
    pub dropped_spans: u64,
}

impl Summary {
    pub fn kind(&self, k: Kind) -> &KindAgg {
        &self.agg[k as usize]
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }
}

static ON: AtomicBool = AtomicBool::new(false);

struct Registry {
    epoch: Instant,
    bufs: Mutex<Vec<Arc<Mutex<ThreadBuf>>>>,
}

fn registry() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(|| Registry {
        epoch: Instant::now(),
        bufs: Mutex::new(Vec::new()),
    })
}

struct Local {
    buf: Arc<Mutex<ThreadBuf>>,
    thread: u32,
    /// Open spans: (kind, start, time covered by finished children).
    stack: RefCell<Vec<(Kind, Instant, u64)>>,
    req: Cell<u64>,
}

thread_local! {
    static LOCAL: Local = {
        let buf = Arc::new(Mutex::new(ThreadBuf {
            agg: vec![KindAgg::default(); KINDS],
            ..ThreadBuf::default()
        }));
        let mut bufs = registry().bufs.lock().expect("trace registry poisoned");
        bufs.push(Arc::clone(&buf));
        Local {
            buf,
            thread: bufs.len() as u32,
            stack: RefCell::new(Vec::new()),
            req: Cell::new(0),
        }
    };
}

/// True while the traced phase runs.
#[inline]
pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Starts recording (clearing anything recorded before).
pub fn start() {
    for b in registry()
        .bufs
        .lock()
        .expect("trace registry poisoned")
        .iter()
    {
        let mut b = b.lock().expect("trace buffer poisoned");
        b.raw.clear();
        b.dropped = 0;
        b.agg = vec![KindAgg::default(); KINDS];
        b.counters = [0; COUNTERS];
    }
    ON.store(true, Ordering::SeqCst);
}

/// Stops recording. Spans open at this point still record when they
/// close, so the stack of every thread stays balanced.
pub fn stop() {
    ON.store(false, Ordering::SeqCst);
}

/// Tags the calling thread's following spans with request `req`.
pub fn set_req(req: u64) {
    if on() {
        LOCAL.with(|l| l.req.set(req));
    }
}

pub fn count(c: Counter, n: u64) {
    if on() {
        LOCAL.with(|l| l.buf.lock().expect("trace buffer poisoned").counters[c as usize] += n);
    }
}

/// An open span (or, with tracing off, nothing); records itself on drop.
pub struct Guard(bool);

/// Opens a span of kind `k` on the calling thread (a no-op guard when
/// tracing is off).
#[inline]
pub fn span(k: Kind) -> Guard {
    if !on() {
        return Guard(false);
    }
    LOCAL.with(|l| l.stack.borrow_mut().push((k, Instant::now(), 0)));
    Guard(true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let end = Instant::now();
        LOCAL.with(|l| {
            let mut stack = l.stack.borrow_mut();
            let Some((kind, start, children)) = stack.pop() else {
                return;
            };
            let dur = end.duration_since(start).as_nanos() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.2 += dur;
            }
            let span = Span {
                kind,
                depth: stack.len() as u8,
                thread: l.thread,
                req: l.req.get(),
                start_ns: start.duration_since(registry().epoch).as_nanos() as u64,
                dur_ns: dur,
                self_ns: dur.saturating_sub(children),
            };
            drop(stack);
            let mut b = l.buf.lock().expect("trace buffer poisoned");
            let a = &mut b.agg[kind as usize];
            a.count += 1;
            a.total_ns += span.dur_ns;
            a.self_ns += span.self_ns;
            a.durs.record(span.dur_ns);
            if b.raw.len() < RAW_CAP {
                b.raw.push(span);
            } else {
                b.dropped += 1;
            }
        });
    }
}

/// Merges every thread's aggregates.
pub fn summary() -> Summary {
    let mut s = Summary {
        agg: vec![KindAgg::default(); KINDS],
        ..Summary::default()
    };
    for b in registry()
        .bufs
        .lock()
        .expect("trace registry poisoned")
        .iter()
    {
        let b = b.lock().expect("trace buffer poisoned");
        for (dst, src) in s.agg.iter_mut().zip(&b.agg) {
            dst.count += src.count;
            dst.total_ns += src.total_ns;
            dst.self_ns += src.self_ns;
            dst.durs.merge(&src.durs);
        }
        for (dst, src) in s.counters.iter_mut().zip(b.counters) {
            *dst += src;
        }
        s.raw_spans += b.raw.len();
        s.dropped_spans += b.dropped;
    }
    s
}

/// Writes the kept raw spans, one tab-separated line each, to `path`.
pub fn dump(path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\treq\tkind\tdepth\tstart_ns\tdur_ns\tself_ns")?;
    for b in registry()
        .bufs
        .lock()
        .expect("trace registry poisoned")
        .iter()
    {
        let b = b.lock().expect("trace buffer poisoned");
        for s in &b.raw {
            writeln!(
                out,
                "{}\t{}\t{:?}\t{}\t{}\t{}\t{}",
                s.thread, s.req, s.kind, s.depth, s.start_ns, s.dur_ns, s.self_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        {
            // Kinds no other unit test records, since tests share the
            // process-wide recorder.
            let _outer = span(Kind::ServeFs);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(Kind::NetTick);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        stop();
        let s = summary();
        let outer = s.kind(Kind::ServeFs);
        let inner = s.kind(Kind::NetTick);
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= outer.self_ns + inner.total_ns);
        assert!(outer.self_ns < inner.total_ns);
    }
}
