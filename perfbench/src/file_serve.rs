//! `file_serve`: the one number that crosses storage and network.
//!
//! One driver thread runs both ends of 2 keep-alive modular-TCP
//! connections across a seeded `FaultyLink` that drops 1% of frames.
//! Each connection requests one of 48 files × 8 KiB (384 KiB, inside
//! the buffer cache) and waits for the whole response before its next
//! request (closed loop). The server resolves the path through `Vfs`,
//! reads the file through a ring drained by 1 reactor, and streams it
//! back.
//!
//! Why: the only cross-stack number. Most of its time is in `netstack`
//! while the file system stays hot; the 1% loss puts RTO/retransmit
//! recovery into the tail while clean requests set the median.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sk_core::modularity::Registry;
use sk_fs_safe::rsfs::JournalMode;
use sk_ksim::block::RamDisk;
use sk_ksim::scenario::ScenarioEngine;
use sk_ksim::time::SimClock;
use sk_netstack::fault::{FaultConfig, FaultyLink};
use sk_netstack::modular_stack::{register_families, ModularStack};
use sk_netstack::wire::{Link, Side};
use sk_vfs::modular::{BatchOp, BatchReply, FileSystem};
use sk_vfs::path::{Vfs, FS_INTERFACE};
use sk_vfs::ring::{Ring, RingReactor};

use crate::common::{Phase, Shape, Slicer, Storage, Window, Workload};
use crate::stats::{add_tcp, Snap};
use crate::trace::{self, Counter, Kind};
use crate::util::{Hist, Rng};
use crate::wrap::TimedLink;

pub const CONNS: usize = 2;
pub const FILES: usize = 48;
pub const FILE_SIZE: usize = 8192;
pub const DROP: f64 = 0.01;
/// Simulated time per event-loop round. The stacks' timers (delayed
/// ACK 25 ms, RTO 200 ms) run on this clock.
pub const ROUND_NS: u64 = 1_000_000;
const SERVER_PORT: u16 = 80;
const CLIENT_PORT0: u16 = 5000;
const RING_DEPTH: usize = 64;
/// Rounds a request may take before the run gives up on it (far beyond
/// the stack's full retry budget at this round length).
const STUCK_ROUNDS: u64 = 200_000;

const INODES: u32 = 256;
const JOURNAL_BLOCKS: u32 = 512;

pub fn path_of(file: usize) -> String {
    format!("/srv/f{file:02}")
}

pub fn content(seed: u64, file: usize) -> Vec<u8> {
    let mut rng = Rng::stream(seed ^ 0xF11E_5E7E, file as u64);
    let mut v = Vec::with_capacity(FILE_SIZE);
    while v.len() < FILE_SIZE {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v
}

/// The seeded request stream of one connection: which file it asks for
/// next.
pub struct Stream(Rng);

impl Stream {
    pub fn new(seed: u64, conn: usize) -> Stream {
        Stream(Rng::stream(seed, 2000 + conn as u64))
    }

    pub fn next_file(&mut self) -> usize {
        self.0.below(FILES as u64) as usize
    }
}

struct Conn {
    stream: Stream,
    /// Client-side and server-side descriptors.
    cfd: u64,
    sfd: u64,
    client_port: u16,
    /// The request in flight: file, wall start, `SimClock` start, and
    /// the round it was sent in.
    pending: Option<(usize, Instant, u64, u64)>,
    /// Request bytes the server has received but not yet served.
    server_in: Vec<u8>,
    /// Response bytes the client has received so far.
    client_in: Vec<u8>,
    req_id: u64,
}

pub struct FileServe {
    st: Storage,
    vfs: Vfs,
    ring: Arc<Ring>,
    reactor: Option<RingReactor>,
    clock: Arc<SimClock>,
    link: Arc<FaultyLink>,
    client: ModularStack,
    server: ModularStack,
    listener: u64,
    seed: u64,
    /// Empty until [`Workload::start`] has made the connections.
    conns: Vec<Conn>,
    files: Vec<Vec<u8>>,
}

impl Workload for FileServe {
    const SHAPE: Shape = Shape {
        clients: 1,
        reactors: 1,
        connections: CONNS,
        in_flight: CONNS,
    };
    const BLOCKS: u64 = 4096;

    fn setup(seed: u64, ram: Arc<RamDisk>) -> FileServe {
        let ram = Storage::format(ram, INODES, JOURNAL_BLOCKS);
        let st = Storage::mount(&ram, JournalMode::Async);
        let files: Vec<Vec<u8>> = (0..FILES).map(|f| content(seed, f)).collect();
        let srv = st.rsfs.mkdir(st.rsfs.root_ino(), "srv").expect("mkdir");
        for (f, data) in files.iter().enumerate() {
            let ino = st.rsfs.create(srv, &format!("f{f:02}")).expect("create");
            st.rsfs.write(ino, 0, data).expect("fill");
        }
        st.rsfs.sync().expect("sync");
        let registry = Registry::new();
        registry
            .register::<dyn FileSystem>(FS_INTERFACE, "rsfs", Arc::clone(&st.fs) as _)
            .expect("register");
        let vfs = Vfs::mount(&registry).expect("vfs mount");
        let ring = Arc::new(Ring::new(st.rsfs.lock_registry(), RING_DEPTH));
        let reactor = RingReactor::spawn(
            Arc::clone(&ring),
            Arc::clone(&st.fs) as Arc<dyn FileSystem>,
            None,
        );

        let clock = Arc::new(SimClock::new());
        let engine = ScenarioEngine::with_clock(seed, Arc::clone(&clock));
        let link = Arc::new(FaultyLink::on_engine(
            FaultConfig {
                drop: DROP,
                ..FaultConfig::default()
            },
            &engine,
        ));
        let wire: Arc<dyn Link> = Arc::new(TimedLink::new(Arc::clone(&link) as Arc<dyn Link>));
        let families = Arc::new(Registry::new());
        register_families(&families).expect("protocol families");
        let client = ModularStack::new(
            Arc::clone(&families),
            Side::A,
            Arc::clone(&wire),
            Arc::clone(&clock),
        );
        let server = ModularStack::new(families, Side::B, wire, Arc::clone(&clock));

        let listener = server.socket("tcp", SERVER_PORT).expect("socket");
        server.listen(listener).expect("listen");
        FileServe {
            st,
            vfs,
            ring,
            reactor: Some(reactor),
            clock,
            link,
            client,
            server,
            listener,
            seed,
            conns: Vec::new(),
            files,
        }
    }

    /// The handshakes, one at a time, so each accepted fd pairs with the
    /// client that just connected (a dropped SYN retries on the RTO).
    /// They are not set-up work: a dropped SYN would add a seed-dependent
    /// RTO to `setup_s`.
    fn start(&mut self) {
        let (client, server) = (&self.client, &self.server);
        self.conns = (0..CONNS)
            .map(|i| {
                let client_port = CLIENT_PORT0 + i as u16;
                let cfd = client.socket("tcp", client_port).expect("socket");
                client.connect(cfd, SERVER_PORT).expect("connect");
                let mut sfd = None;
                for _ in 0..STUCK_ROUNDS {
                    client.pump().expect("pump");
                    server.pump().expect("pump");
                    sfd = server.accept(self.listener).expect("accept");
                    if sfd.is_some() {
                        break;
                    }
                    self.clock.advance(ROUND_NS);
                    client.tick();
                    server.tick();
                }
                Conn {
                    stream: Stream::new(self.seed, i),
                    cfd,
                    sfd: sfd.expect("handshake did not complete"),
                    client_port,
                    pending: None,
                    server_in: Vec::new(),
                    client_in: Vec::new(),
                    req_id: (i as u64 + 1) << 48,
                }
            })
            .collect();
    }

    fn run(&mut self, slice: Duration, n: usize) -> Window {
        assert_eq!(self.conns.len(), CONNS, "run before start");
        let before = self.snap();
        let slicer = Slicer::start(slice, n);
        let mut phases = slicer.phases();
        let mut rounds = 0u64;
        loop {
            let open = slicer.open();
            if !open && self.conns.iter().all(|c| c.pending.is_none()) {
                break;
            }
            let phase = &mut phases[slicer.index()];
            rounds += 1;
            phase.rounds += 1;
            for i in 0..CONNS {
                // Client: issue the next request once the last one is done.
                if open && self.conns[i].pending.is_none() {
                    let file = {
                        let _g = trace::span(Kind::Gen);
                        self.conns[i].stream.next_file()
                    };
                    let c = &mut self.conns[i];
                    c.req_id += 1;
                    trace::set_req(c.req_id);
                    let req = format!("GET {}\n", path_of(file));
                    phase.attempted += 1;
                    let sent = {
                        let _s = trace::span(Kind::NetSend);
                        self.client.send(c.cfd, SERVER_PORT, req.as_bytes())
                    };
                    match sent {
                        Ok(_) => {
                            phase.payload_bytes += req.len() as u64;
                            c.pending = Some((file, Instant::now(), self.clock.now_ns(), rounds));
                        }
                        Err(e) => {
                            trace::count(Counter::SendRefused, 1);
                            phase.failed += 1;
                            phase.error(format!("request send refused: {e:?}"));
                        }
                    }
                }
            }
            {
                let _s = trace::span(Kind::NetPump);
                self.client.pump().expect("client pump");
                self.server.pump().expect("server pump");
            }
            for i in 0..CONNS {
                self.serve(i, phase);
                // Client: collect response bytes.
                let got = {
                    let _s = trace::span(Kind::NetRecv);
                    self.client.recv(self.conns[i].cfd)
                };
                let c = &mut self.conns[i];
                match got {
                    Ok(bytes) => c.client_in.extend_from_slice(&bytes),
                    Err(e) => {
                        phase.error(format!("client recv: {e:?}"));
                    }
                }
                if let Some((file, t, sim0, r0)) = c.pending {
                    if c.client_in.len() >= FILE_SIZE {
                        let ns = t.elapsed().as_nanos() as u64;
                        let body: Vec<u8> = c.client_in.drain(..FILE_SIZE).collect();
                        phase.payload_bytes += FILE_SIZE as u64;
                        if body != self.files[file] {
                            phase.failed += 1;
                            phase.error(format!("response for {} differs", path_of(file)));
                        } else {
                            // Every request is a whole-file read as the
                            // client sees it.
                            phase.op_ns.record(ns);
                            phase.read_ns.record(ns);
                            phase.sim_req_ns.record(self.clock.now_ns() - sim0);
                        }
                        c.pending = None;
                    } else if rounds - r0 > STUCK_ROUNDS
                        || self.client.conn_failed(c.cfd).unwrap_or(true)
                    {
                        phase.failed += 1;
                        phase.error(format!("request for {} never completed", path_of(file)));
                        c.pending = None;
                    }
                }
            }
            self.clock.advance(ROUND_NS);
            let _s = trace::span(Kind::NetTick);
            self.client.tick();
            self.server.tick();
        }
        let delta = self.snap().since(&before);
        Window::from_threads(&slicer, vec![phases], delta)
    }

    fn finish(mut self) -> Vec<String> {
        let mut errors = Vec::new();
        for c in &self.conns {
            if !c.client_in.is_empty() || !c.server_in.is_empty() {
                errors.push("bytes left over on a connection after the run".into());
            }
        }
        if let Some(r) = self.reactor.take() {
            r.join();
        }
        if let Err(e) = self.st.sync_and_fsck() {
            errors.push(e);
        }
        errors
    }
}

impl FileServe {
    /// Server side of connection `i`: read request bytes, and for each
    /// complete request line resolve, read through the ring and send.
    fn serve(&mut self, i: usize, phase: &mut Phase) {
        let sfd = self.conns[i].sfd;
        let got = {
            let _s = trace::span(Kind::NetRecv);
            self.server.recv(sfd)
        };
        match got {
            Ok(bytes) => self.conns[i].server_in.extend_from_slice(&bytes),
            Err(e) => phase.error(format!("server recv: {e:?}")),
        }
        while let Some(nl) = self.conns[i].server_in.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.conns[i].server_in.drain(..=nl).collect();
            let Some(path) = std::str::from_utf8(&line)
                .ok()
                .and_then(|l| l.strip_prefix("GET "))
                .map(str::trim_end)
            else {
                phase.error("malformed request".into());
                continue;
            };
            let data = {
                let _s = trace::span(Kind::ServeFs);
                self.read_file(path, &mut phase.ring_ns)
            };
            match data {
                Ok(data) => {
                    let sent = {
                        let _s = trace::span(Kind::NetSend);
                        self.server.send(sfd, self.conns[i].client_port, &data)
                    };
                    if let Err(e) = sent {
                        trace::count(Counter::SendRefused, 1);
                        phase.error(format!("response send refused: {e:?}"));
                    }
                }
                Err(e) => phase.error(e),
            }
        }
    }

    /// `Vfs` resolve, then one read SQE through the ring, whose
    /// submit→CQE latency goes to `ring_ns`.
    fn read_file(&self, path: &str, ring_ns: &mut Hist) -> Result<Vec<u8>, String> {
        let ino = {
            let _s = trace::span(Kind::VfsOp);
            self.vfs.resolve(path)
        }
        .map_err(|e| format!("resolve {path}: {e:?}"))?;
        let t = Instant::now();
        let ticket = {
            let _s = trace::span(Kind::RingSubmit);
            self.ring.submit(BatchOp::Read {
                ino,
                off: 0,
                buf: vec![0u8; FILE_SIZE],
            })
        }
        .map_err(|_| "ring refused the read".to_string())?;
        let cqe = {
            let _s = trace::span(Kind::RingWait);
            self.ring.wait(ticket)
        };
        ring_ns.record(t.elapsed().as_nanos() as u64);
        match cqe.reply {
            BatchReply::Read {
                result: Ok(n),
                mut buf,
            } if n == FILE_SIZE => {
                buf.truncate(n);
                Ok(buf)
            }
            other => Err(format!("read {path}: {:?}", other.result())),
        }
    }

    fn snap(&self) -> Snap {
        let mut tcp = self.client.stack_counters();
        for c in &self.conns {
            tcp = add_tcp(tcp, self.client.tcp_counters(c.cfd).unwrap_or_default());
            tcp = add_tcp(tcp, self.server.tcp_counters(c.sfd).unwrap_or_default());
        }
        tcp = add_tcp(tcp, self.server.stack_counters());
        Snap {
            ring: self.ring.stats(),
            dcache: self.vfs.dcache().stats(),
            link: self.link.stats(),
            tcp,
            ..self.st.snap()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_same_files() {
        let take = |seed, conn| {
            let mut s = Stream::new(seed, conn);
            (0..500).map(|_| s.next_file()).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert!(take(2, 1).iter().all(|&f| f < FILES));
        assert_eq!(content(3, 7), content(3, 7));
        assert_eq!(content(3, 7).len(), FILE_SIZE);
    }
}
