//! The roadmap socket layer: protocols behind a typed, modular interface.
//!
//! Step 1: protocol families register as factories in the `sk-core`
//! [`Registry`] under `"netstack.family.<name>"`; the socket layer holds
//! handles and never names an implementation. Step 2: per-socket state is a
//! [`ProtoSocket`] trait object — there is no `void *` to mis-cast, generic
//! code can only call the interface. The channel table is a typed enum, so
//! the crafted AMP packet from `legacy_stack` is refused with `EPROTO`
//! instead of confusing types.
//!
//! Scaled for server duty: the single `net.sockets` mutex around one big
//! table is gone. Sockets live in lock-striped shards keyed by fd, and
//! demux goes through a striped `(proto, local, remote)` flow index plus a
//! bound-port index — pump touches exactly one index shard and one socket
//! shard per packet instead of walking every socket under a global lock
//! (the buffer-cache sharding idiom from the storage layer). Passive open
//! is a real accept path: `listen` turns the socket into a
//! [`TcpListener`] that spawns per-connection child PCBs, and `accept`
//! promotes a completed handshake to its own fd. Closing keeps the PCB in
//! the table until the FIN handshake finishes (reaped on expiry), and an
//! ephemeral-port allocator recycles TIME_WAIT ports under pressure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use sk_core::modularity::Registry;
use sk_ksim::errno::{Errno, KResult};
use sk_ksim::lock::{LockRegistry, TrackedMutex};
use sk_ksim::time::SimClock;

use crate::packet::{flags, proto, Packet};
use crate::tcp::{rst_for, TcpCounters, TcpListener, TcpPcb, TcpState, DEFAULT_BACKLOG};
use crate::udp::UdpPcb;
use crate::wire::{Link, Side};

/// A protocol's per-socket engine, behind the typed interface.
pub trait ProtoSocket: Send {
    /// Protocol number this socket speaks.
    fn protocol(&self) -> u8;
    /// Local port.
    fn local_port(&self) -> u16;
    /// Remote port once connected (0 when unknown — datagram sockets and
    /// listeners).
    fn remote_port(&self) -> u16 {
        0
    }
    /// True while passively waiting for connections.
    fn is_listening(&self) -> bool {
        false
    }
    /// Passive open with a SYN/accept-queue limit (TCP); no-op for
    /// datagram protocols.
    fn listen(&mut self, backlog: usize) -> KResult<()>;
    /// Takes one completed connection off the accept queue, as a
    /// free-standing socket. `None` for non-listeners and empty queues.
    fn take_accepted(&mut self) -> Option<Box<dyn ProtoSocket>> {
        None
    }
    /// Active open; returns packets to transmit.
    fn connect(&mut self, remote_port: u16, now: u64) -> KResult<Vec<Packet>>;
    /// Queues data; returns packets to transmit.
    fn send(&mut self, dst_port: u16, data: &[u8], now: u64) -> KResult<Vec<Packet>>;
    /// Takes received bytes.
    fn recv(&mut self) -> Vec<u8>;
    /// Readiness — the typed replacement for the legacy TCP-assuming poll.
    fn poll(&self) -> bool;
    /// Handles an incoming packet; returns responses.
    fn on_packet(&mut self, pkt: &Packet, now: u64) -> Vec<Packet>;
    /// Timer tick; returns retransmissions.
    fn tick(&mut self, now: u64) -> Vec<Packet>;
    /// Begins close; returns packets to transmit.
    fn close(&mut self, now: u64) -> Vec<Packet>;
    /// True once a begun close has fully completed (FIN handshake done
    /// and any TIME_WAIT expired), so the layer may drop the state.
    /// Protocols with no teardown handshake finish immediately.
    fn close_finished(&self) -> bool {
        true
    }
    /// True while the socket holds its port in TIME_WAIT — the state an
    /// ephemeral-port allocator may recycle under pressure.
    fn in_time_wait(&self) -> bool {
        false
    }
    /// Per-connection event counters (zero for stateless protocols).
    fn counters(&self) -> TcpCounters {
        TcpCounters::default()
    }
    /// True once the connection died abnormally (retry budget exhausted
    /// or reset by the peer).
    fn conn_failed(&self) -> bool {
        false
    }
    /// True when the socket is finished and the layer may reap it.
    fn reapable(&self) -> bool {
        false
    }
    /// The TCP state when the socket is TCP (diagnostics/tests).
    fn tcp_state(&self) -> Option<TcpState> {
        None
    }
}

/// A protocol family: a factory for sockets (what the registry stores).
pub trait ProtocolFamily: Send + Sync {
    /// Family name (diagnostics).
    fn family_name(&self) -> &'static str;
    /// Creates a socket bound to `local_port`.
    fn create_socket(&self, local_port: u16, iss: u32) -> Box<dyn ProtoSocket>;
}

enum TcpInner {
    Conn(TcpPcb),
    Listener(TcpListener),
}

/// TCP socket adapter: a connection PCB that `listen` converts into a
/// child-spawning [`TcpListener`].
pub struct TcpSocket {
    inner: TcpInner,
    iss: u32,
}

impl ProtoSocket for TcpSocket {
    fn protocol(&self) -> u8 {
        proto::TCP
    }
    fn local_port(&self) -> u16 {
        match &self.inner {
            TcpInner::Conn(p) => p.local_port,
            TcpInner::Listener(l) => l.local_port,
        }
    }
    fn remote_port(&self) -> u16 {
        match &self.inner {
            TcpInner::Conn(p) => p.remote_port,
            TcpInner::Listener(_) => 0,
        }
    }
    fn is_listening(&self) -> bool {
        matches!(self.inner, TcpInner::Listener(_))
    }
    fn listen(&mut self, backlog: usize) -> KResult<()> {
        match &self.inner {
            TcpInner::Listener(_) => Ok(()),
            TcpInner::Conn(p) if p.state == TcpState::Closed && !p.is_failed() => {
                self.inner = TcpInner::Listener(TcpListener::new(p.local_port, backlog, self.iss));
                Ok(())
            }
            TcpInner::Conn(_) => Err(Errno::EISCONN),
        }
    }
    fn take_accepted(&mut self) -> Option<Box<dyn ProtoSocket>> {
        match &mut self.inner {
            TcpInner::Listener(l) => l.accept().map(|pcb| {
                let iss = pcb.snd_nxt;
                Box::new(TcpSocket {
                    inner: TcpInner::Conn(pcb),
                    iss,
                }) as Box<dyn ProtoSocket>
            }),
            TcpInner::Conn(_) => None,
        }
    }
    fn connect(&mut self, remote_port: u16, now: u64) -> KResult<Vec<Packet>> {
        match &mut self.inner {
            TcpInner::Conn(p) => Ok(vec![p.connect(remote_port, now)]),
            TcpInner::Listener(_) => Err(Errno::EINVAL),
        }
    }
    fn send(&mut self, _dst_port: u16, data: &[u8], now: u64) -> KResult<Vec<Packet>> {
        match &mut self.inner {
            TcpInner::Conn(p) => {
                // A cwnd-limited send may legally emit nothing while the
                // bytes wait in the send buffer, so readiness — not an
                // empty packet list — is the ENOTCONN signal.
                if !data.is_empty() && !p.can_send() {
                    return Err(Errno::ENOTCONN);
                }
                Ok(p.send(data, now))
            }
            TcpInner::Listener(_) => Err(Errno::ENOTCONN),
        }
    }
    fn recv(&mut self) -> Vec<u8> {
        match &mut self.inner {
            TcpInner::Conn(p) => p.take_received(),
            TcpInner::Listener(_) => Vec::new(),
        }
    }
    fn poll(&self) -> bool {
        match &self.inner {
            TcpInner::Conn(p) => p.available() > 0 || p.state == TcpState::CloseWait,
            TcpInner::Listener(l) => l.ready_len() > 0,
        }
    }
    fn on_packet(&mut self, pkt: &Packet, now: u64) -> Vec<Packet> {
        match &mut self.inner {
            TcpInner::Conn(p) => p.on_packet(pkt, now),
            TcpInner::Listener(l) => l.on_packet(pkt, now),
        }
    }
    fn tick(&mut self, now: u64) -> Vec<Packet> {
        match &mut self.inner {
            TcpInner::Conn(p) => p.tick(now),
            TcpInner::Listener(l) => l.tick(now),
        }
    }
    fn close(&mut self, now: u64) -> Vec<Packet> {
        match &mut self.inner {
            TcpInner::Conn(p) => p.close(now),
            // Closing a listener aborts its un-accepted children; peers
            // of any in-progress handshakes learn via demux RSTs.
            TcpInner::Listener(_) => Vec::new(),
        }
    }
    fn close_finished(&self) -> bool {
        match &self.inner {
            TcpInner::Conn(p) => p.state == TcpState::Closed,
            TcpInner::Listener(_) => true,
        }
    }
    fn in_time_wait(&self) -> bool {
        matches!(&self.inner, TcpInner::Conn(p) if p.state == TcpState::TimeWait)
    }
    fn counters(&self) -> TcpCounters {
        match &self.inner {
            TcpInner::Conn(p) => p.counters,
            TcpInner::Listener(l) => TcpCounters {
                resets_sent: l.stats.resets_sent,
                ..TcpCounters::default()
            },
        }
    }
    fn conn_failed(&self) -> bool {
        matches!(&self.inner, TcpInner::Conn(p) if p.is_failed())
    }
    fn reapable(&self) -> bool {
        matches!(&self.inner, TcpInner::Conn(p) if p.is_defunct())
    }
    fn tcp_state(&self) -> Option<TcpState> {
        Some(self.state())
    }
}

impl TcpSocket {
    /// Connection state (tests); listeners report [`TcpState::Listen`].
    pub fn state(&self) -> TcpState {
        match &self.inner {
            TcpInner::Conn(p) => p.state,
            TcpInner::Listener(_) => TcpState::Listen,
        }
    }
}

/// UDP socket adapter.
pub struct UdpSocket {
    pcb: UdpPcb,
}

impl ProtoSocket for UdpSocket {
    fn protocol(&self) -> u8 {
        proto::UDP
    }
    fn local_port(&self) -> u16 {
        self.pcb.local_port
    }
    fn listen(&mut self, _backlog: usize) -> KResult<()> {
        Ok(())
    }
    fn connect(&mut self, _remote_port: u16, _now: u64) -> KResult<Vec<Packet>> {
        Ok(Vec::new())
    }
    fn send(&mut self, dst_port: u16, data: &[u8], _now: u64) -> KResult<Vec<Packet>> {
        match self.pcb.send(dst_port, data) {
            Some(p) => Ok(vec![p]),
            None => Err(Errno::EINVAL),
        }
    }
    fn recv(&mut self) -> Vec<u8> {
        self.pcb.recv().map(|(_, d)| d).unwrap_or_default()
    }
    fn poll(&self) -> bool {
        self.pcb.pending() > 0
    }
    fn on_packet(&mut self, pkt: &Packet, _now: u64) -> Vec<Packet> {
        self.pcb.on_packet(pkt);
        Vec::new()
    }
    fn tick(&mut self, _now: u64) -> Vec<Packet> {
        Vec::new()
    }
    fn close(&mut self, _now: u64) -> Vec<Packet> {
        Vec::new()
    }
}

/// The TCP family factory.
pub struct TcpFamily;
impl ProtocolFamily for TcpFamily {
    fn family_name(&self) -> &'static str {
        "tcp"
    }
    fn create_socket(&self, local_port: u16, iss: u32) -> Box<dyn ProtoSocket> {
        Box::new(TcpSocket {
            inner: TcpInner::Conn(TcpPcb::new(local_port, iss)),
            iss,
        })
    }
}

/// The UDP family factory.
pub struct UdpFamily;
impl ProtocolFamily for UdpFamily {
    fn family_name(&self) -> &'static str {
        "udp"
    }
    fn create_socket(&self, local_port: u16, _iss: u32) -> Box<dyn ProtoSocket> {
        Box::new(UdpSocket {
            pcb: UdpPcb::new(local_port),
        })
    }
}

/// Registers the standard families into a registry.
pub fn register_families(registry: &Registry) -> KResult<()> {
    registry.register::<dyn ProtocolFamily>("netstack.family.tcp", "tcp", Arc::new(TcpFamily))?;
    registry.register::<dyn ProtocolFamily>("netstack.family.udp", "udp", Arc::new(UdpFamily))?;
    Ok(())
}

/// A typed channel — the enum that makes the AMP confusion unrepresentable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Channel {
    /// Ordinary L2CAP data channel.
    L2cap {
        /// Negotiated MTU.
        mtu: u16,
        /// Flow-control credits.
        credits: u16,
    },
    /// AMP channel.
    Amp {
        /// AMP controller id.
        controller_id: u8,
        /// Physical-link handle.
        link: u64,
    },
}

/// Socket-table shard count (power of two, buffer-cache idiom; at most 32
/// so one `AtomicU32` mirrors which shards are occupied).
const SHARDS: usize = 16;
const _: () = assert!(SHARDS.is_power_of_two() && SHARDS <= 32);

/// Default ephemeral-port range (IANA dynamic range).
const EPHEMERAL_LO: u16 = 49152;
const EPHEMERAL_HI: u16 = 65535;

/// Placeholder owner for a reserved-but-unbound ephemeral port.
const PORT_RESERVED: u64 = u64::MAX;

/// One flow-demux shard: `(proto, local, remote)` → fd.
type FlowMap = BTreeMap<(u8, u16, u16), u64>;

/// A socket plus its close bookkeeping: `released` means the app closed
/// the fd (every API returns `EBADF`), but the protocol may still be
/// mid-teardown — the entry stays until [`ProtoSocket::close_finished`].
struct SockEntry {
    sock: Box<dyn ProtoSocket>,
    released: bool,
}

/// The ephemeral-port allocator state (lockdep class `net.ports`).
struct PortAlloc {
    lo: u16,
    hi: u16,
    /// Next-fit rotor.
    next: u16,
    /// port → owning fd ([`PORT_RESERVED`] while mid-allocation).
    in_use: BTreeMap<u16, u64>,
}

/// The modular socket layer on one end of a link.
pub struct ModularStack {
    side: Side,
    wire: Arc<dyn Link>,
    clock: Arc<SimClock>,
    /// Socket-table shards keyed by fd (lockdep class `net.sockets`,
    /// ranked so nested ascending sweeps would stay legal — the code
    /// never holds two shards at once regardless).
    sock_shards: Vec<TrackedMutex<BTreeMap<u64, SockEntry>>>,
    /// Bit `i` is set while socket shard `i` is non-empty, so the
    /// whole-table sweeps (`tick`, `reap_closed`) lock only occupied
    /// shards. Written only under shard `i`'s lock, after every insert
    /// and remove, so it matches the map whenever that lock is free: a
    /// lock-free reader may see a bit stale-high (and visit an empty
    /// shard) but never miss a socket inserted before its read.
    occupied: AtomicU32,
    /// Flow-demux shards: `(proto, local, remote)` → fd (lockdep class
    /// `net.conn_index`).
    conn_index: Vec<TrackedMutex<FlowMap>>,
    /// Bound ports: `(proto, local)` → fd for listeners and datagram
    /// sockets (lockdep class `net.port_index`).
    port_index: TrackedMutex<BTreeMap<(u8, u16), u64>>,
    /// Ephemeral-port allocator (lockdep class `net.ports`).
    ports: TrackedMutex<PortAlloc>,
    /// The L2CAP/AMP channel table (lockdep class `net.channels`).
    channels: TrackedMutex<BTreeMap<u16, Channel>>,
    registry: Arc<Registry>,
    locks: Arc<LockRegistry>,
    next_fd: AtomicU64,
    /// ISS counter — u32-native: the TCP sequence space is a mod-2^32
    /// ring, so `fetch_add` wraparound is sequence-space reuse the
    /// protocol already tolerates via its window checks, not a silent
    /// truncation of a wider counter.
    iss: AtomicU32,
    /// RSTs sent for segments that matched no flow, no listener, and no
    /// bound port (the demux-miss bugfix counter).
    demux_rsts: AtomicU64,
    /// TIME_WAIT incarnations force-reaped to recycle their port.
    timewait_recycles: AtomicU64,
}

impl ModularStack {
    /// Creates a stack using the protocol families registered in
    /// `registry`, pumping through `wire` — the perfect
    /// [`crate::wire::Wire`] or the adversarial
    /// [`crate::fault::FaultyLink`].
    pub fn new(
        registry: Arc<Registry>,
        side: Side,
        wire: Arc<dyn Link>,
        clock: Arc<SimClock>,
    ) -> ModularStack {
        Self::with_lockdep(registry, side, wire, clock, LockRegistry::new_disabled())
    }

    /// Creates a stack whose table locks report to `locks`, so the soak
    /// suites can run with the acquires-after graph live.
    pub fn with_lockdep(
        registry: Arc<Registry>,
        side: Side,
        wire: Arc<dyn Link>,
        clock: Arc<SimClock>,
        locks: Arc<LockRegistry>,
    ) -> ModularStack {
        let sock_shards = (0..SHARDS)
            .map(|i| TrackedMutex::new_ranked(&locks, "net.sockets", i as u64, BTreeMap::new()))
            .collect();
        let conn_index = (0..SHARDS)
            .map(|i| TrackedMutex::new_ranked(&locks, "net.conn_index", i as u64, BTreeMap::new()))
            .collect();
        ModularStack {
            side,
            wire,
            clock,
            sock_shards,
            occupied: AtomicU32::new(0),
            conn_index,
            port_index: TrackedMutex::new(&locks, "net.port_index", BTreeMap::new()),
            ports: TrackedMutex::new(
                &locks,
                "net.ports",
                PortAlloc {
                    lo: EPHEMERAL_LO,
                    hi: EPHEMERAL_HI,
                    next: EPHEMERAL_LO,
                    in_use: BTreeMap::new(),
                },
            ),
            channels: TrackedMutex::new(&locks, "net.channels", BTreeMap::new()),
            registry,
            locks,
            next_fd: AtomicU64::new(3),
            iss: AtomicU32::new(100),
            demux_rsts: AtomicU64::new(0),
            timewait_recycles: AtomicU64::new(0),
        }
    }

    /// The lockdep registry the stack's table locks report to.
    pub fn lock_registry(&self) -> &Arc<LockRegistry> {
        &self.locks
    }

    fn fd_shard(fd: u64) -> usize {
        (fd as usize) & (SHARDS - 1)
    }

    /// Mirrors socket shard `i`'s emptiness into [`Self::occupied`]; call
    /// with that shard's lock held, after inserting into or removing
    /// from it.
    fn mark_occupancy(&self, i: usize, shard: &BTreeMap<u64, SockEntry>) {
        let bit = 1u32 << i;
        if shard.is_empty() {
            self.occupied.fetch_and(!bit, Ordering::Relaxed);
        } else {
            self.occupied.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Socket shards that may hold entries, in index order, so a sweep
    /// keeps the visit order (and the emitted packet order) of a walk
    /// over every shard.
    fn occupied_shards(
        &self,
    ) -> impl Iterator<Item = (usize, &TrackedMutex<BTreeMap<u64, SockEntry>>)> {
        self.sock_shards
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.occupied.load(Ordering::Relaxed) & (1 << i) != 0)
    }

    /// Inserts a fresh socket entry under `fd`.
    fn insert_sock(&self, fd: u64, sock: Box<dyn ProtoSocket>) {
        let i = Self::fd_shard(fd);
        let mut shard = self.sock_shards[i].lock();
        shard.insert(
            fd,
            SockEntry {
                sock,
                released: false,
            },
        );
        self.mark_occupancy(i, &shard);
    }

    fn conn_shard(local: u16, remote: u16) -> usize {
        let h = ((u32::from(local) << 16) | u32::from(remote)).wrapping_mul(0x9E37_79B9);
        (h >> 16) as usize & (SHARDS - 1)
    }

    /// Creates a socket of family `family` ("tcp"/"udp") on `local_port`.
    pub fn socket(&self, family: &str, local_port: u16) -> KResult<u64> {
        let iface: &'static str = match family {
            "tcp" => "netstack.family.tcp",
            "udp" => "netstack.family.udp",
            _ => return Err(Errno::EPROTONOSUPPORT),
        };
        let handle = self.registry.subscribe::<dyn ProtocolFamily>(iface)?;
        // Spread consecutive counter values across the sequence ring
        // (Weyl step, odd multiplier) and salt with the port and the
        // link side, so simultaneous connects — the same counter value
        // on two stacks, or two sockets racing on one — never share an
        // ISS. All arithmetic wraps mod 2^32 on purpose: see the `iss`
        // field comment on sequence-space reuse.
        let side_salt: u32 = match self.side {
            Side::A => 0x243F_6A88,
            Side::B => 0x85A3_08D3,
        };
        let n = self.iss.fetch_add(1, Ordering::Relaxed);
        let iss = n
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(u32::from(local_port).wrapping_mul(0x85EB_CA6B))
            .wrapping_add(side_salt);
        let sock = handle.get().create_socket(local_port, iss);
        let proto_num = sock.protocol();
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        // Datagram sockets demux by port alone, so they claim the port
        // at creation; TCP claims on listen/connect.
        if proto_num == proto::UDP {
            let mut ports = self.port_index.lock();
            if ports.contains_key(&(proto_num, local_port)) {
                return Err(Errno::EADDRINUSE);
            }
            ports.insert((proto_num, local_port), fd);
        }
        self.insert_sock(fd, sock);
        Ok(fd)
    }

    /// Creates a socket on an allocator-chosen ephemeral port, recycling
    /// TIME_WAIT incarnations when the range is exhausted. Returns the
    /// fd and the chosen port.
    pub fn socket_ephemeral(&self, family: &str) -> KResult<(u64, u16)> {
        let port = self.alloc_ephemeral()?;
        match self.socket(family, port) {
            Ok(fd) => {
                self.ports.lock().in_use.insert(port, fd);
                Ok((fd, port))
            }
            Err(e) => {
                self.ports.lock().in_use.remove(&port);
                Err(e)
            }
        }
    }

    /// Narrows the ephemeral range (tests exercise port pressure).
    pub fn set_ephemeral_range(&self, lo: u16, hi: u16) {
        let mut pa = self.ports.lock();
        pa.lo = lo;
        pa.hi = hi;
        pa.next = lo;
    }

    fn alloc_ephemeral(&self) -> KResult<u16> {
        let candidates: Vec<(u16, u64)> = {
            let mut pa = self.ports.lock();
            let span = u32::from(pa.hi - pa.lo) + 1;
            let base = u32::from(pa.next - pa.lo);
            for i in 0..span {
                let port = pa.lo + ((base + i) % span) as u16;
                if let std::collections::btree_map::Entry::Vacant(e) = pa.in_use.entry(port) {
                    e.insert(PORT_RESERVED);
                    pa.next = if port == pa.hi { pa.lo } else { port + 1 };
                    return Ok(port);
                }
            }
            // Range exhausted: collect owners so a TIME_WAIT incarnation
            // can be recycled (checked with the allocator lock dropped —
            // the shard locks are a different class).
            pa.in_use.iter().map(|(&p, &fd)| (p, fd)).collect()
        };
        for (port, owner) in candidates {
            if owner != PORT_RESERVED && self.force_reap_if_done(owner) {
                let mut pa = self.ports.lock();
                if pa.in_use.get(&port) == Some(&owner) || !pa.in_use.contains_key(&port) {
                    pa.in_use.insert(port, PORT_RESERVED);
                    return Ok(port);
                }
            }
        }
        Err(Errno::EADDRINUSE)
    }

    /// Reaps `fd` if its teardown already finished (TIME_WAIT or
    /// defunct) to free its 4-tuple/port; refuses live connections.
    fn force_reap_if_done(&self, fd: u64) -> bool {
        let ident = {
            let i = Self::fd_shard(fd);
            let mut shard = self.sock_shards[i].lock();
            match shard.get(&fd) {
                // Already gone — the stale reference is free.
                None => return true,
                Some(e) if e.sock.in_time_wait() || e.sock.reapable() => {
                    let tw = e.sock.in_time_wait();
                    let e = shard.remove(&fd).expect("entry just found");
                    self.mark_occupancy(i, &shard);
                    (
                        e.sock.protocol(),
                        e.sock.local_port(),
                        e.sock.remote_port(),
                        tw,
                    )
                }
                Some(_) => return false,
            }
        };
        if ident.3 {
            self.timewait_recycles.fetch_add(1, Ordering::Relaxed);
        }
        self.purge_indexes(ident.0, ident.1, ident.2, fd);
        true
    }

    /// Drops every index entry still pointing at a reaped fd. Each index
    /// lock is taken alone — never nested with a socket shard.
    fn purge_indexes(&self, proto_num: u8, local: u16, remote: u16, fd: u64) {
        if proto_num == proto::TCP && remote != 0 {
            let key = (proto_num, local, remote);
            let mut idx = self.conn_index[Self::conn_shard(local, remote)].lock();
            if idx.get(&key) == Some(&fd) {
                idx.remove(&key);
            }
        }
        {
            let mut ports = self.port_index.lock();
            if ports.get(&(proto_num, local)) == Some(&fd) {
                ports.remove(&(proto_num, local));
            }
        }
        let mut pa = self.ports.lock();
        if pa.in_use.get(&local) == Some(&fd) {
            pa.in_use.remove(&local);
        }
    }

    fn with_sock<R>(&self, fd: u64, f: impl FnOnce(&mut Box<dyn ProtoSocket>) -> R) -> KResult<R> {
        let mut shard = self.sock_shards[Self::fd_shard(fd)].lock();
        match shard.get_mut(&fd) {
            Some(e) if !e.released => Ok(f(&mut e.sock)),
            _ => Err(Errno::EBADF),
        }
    }

    fn transmit(&self, pkts: Vec<Packet>) {
        for p in pkts {
            self.wire.send(self.side, &p);
        }
    }

    /// Passive open with the default backlog.
    pub fn listen(&self, fd: u64) -> KResult<()> {
        self.listen_backlog(fd, DEFAULT_BACKLOG)
    }

    /// Passive open with an explicit SYN/accept-queue limit.
    pub fn listen_backlog(&self, fd: u64, backlog: usize) -> KResult<()> {
        let (proto_num, local) = self.with_sock(fd, |s| (s.protocol(), s.local_port()))?;
        // Claim the port first, alone, then flip the socket; the claim
        // is rolled back if the socket refuses (e.g. already connected).
        {
            let mut ports = self.port_index.lock();
            match ports.get(&(proto_num, local)) {
                Some(&owner) if owner != fd => return Err(Errno::EADDRINUSE),
                _ => {
                    ports.insert((proto_num, local), fd);
                }
            }
        }
        let res = self.with_sock(fd, |s| s.listen(backlog)).and_then(|r| r);
        if res.is_err() {
            let mut ports = self.port_index.lock();
            if ports.get(&(proto_num, local)) == Some(&fd) {
                ports.remove(&(proto_num, local));
            }
        }
        res
    }

    /// Takes one completed connection off `fd`'s accept queue and gives
    /// it its own fd; `Ok(None)` when the queue is empty.
    pub fn accept(&self, fd: u64) -> KResult<Option<u64>> {
        let Some(child) = self.with_sock(fd, |s| s.take_accepted())? else {
            return Ok(None);
        };
        let (local, remote) = (child.local_port(), child.remote_port());
        let new_fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.insert_sock(new_fd, child);
        // Route the flow to its own fd; the listener stops seeing these
        // segments. Overwriting is correct: any previous owner of the
        // 4-tuple is a dead incarnation (a live one would have absorbed
        // the SYN before the listener ever spawned this child).
        self.conn_index[Self::conn_shard(local, remote)]
            .lock()
            .insert((proto::TCP, local, remote), new_fd);
        Ok(Some(new_fd))
    }

    /// Active open.
    pub fn connect(&self, fd: u64, remote_port: u16) -> KResult<()> {
        let now = self.clock.now_ns();
        let (proto_num, local) = self.with_sock(fd, |s| (s.protocol(), s.local_port()))?;
        if proto_num == proto::TCP {
            self.claim_conn_slot(local, remote_port, fd)?;
        }
        let res = self
            .with_sock(fd, |s| s.connect(remote_port, now))
            .and_then(|r| r);
        match res {
            Ok(pkts) => {
                self.transmit(pkts);
                Ok(())
            }
            Err(e) => {
                if proto_num == proto::TCP {
                    let key = (proto::TCP, local, remote_port);
                    let mut idx = self.conn_index[Self::conn_shard(local, remote_port)].lock();
                    if idx.get(&key) == Some(&fd) {
                        idx.remove(&key);
                    }
                    Err(e)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Claims the `(local, remote)` flow slot for `fd`, evicting only a
    /// finished previous incarnation (TIME_WAIT recycling on the
    /// 4-tuple); a live owner means `EADDRINUSE`.
    fn claim_conn_slot(&self, local: u16, remote: u16, fd: u64) -> KResult<()> {
        let key = (proto::TCP, local, remote);
        let occupant = {
            let mut idx = self.conn_index[Self::conn_shard(local, remote)].lock();
            match idx.get(&key) {
                None => {
                    idx.insert(key, fd);
                    return Ok(());
                }
                Some(&o) if o == fd => return Ok(()),
                Some(&o) => o,
            }
        };
        if !self.force_reap_if_done(occupant) {
            return Err(Errno::EADDRINUSE);
        }
        let mut idx = self.conn_index[Self::conn_shard(local, remote)].lock();
        match idx.get(&key) {
            None => {
                idx.insert(key, fd);
                Ok(())
            }
            Some(&o) if o == fd => Ok(()),
            Some(_) => Err(Errno::EADDRINUSE),
        }
    }

    /// Sends data.
    pub fn send(&self, fd: u64, dst_port: u16, data: &[u8]) -> KResult<usize> {
        let now = self.clock.now_ns();
        let pkts = self.with_sock(fd, |s| s.send(dst_port, data, now))??;
        self.transmit(pkts);
        Ok(data.len())
    }

    /// Receives available data.
    pub fn recv(&self, fd: u64) -> KResult<Vec<u8>> {
        self.with_sock(fd, |s| s.recv())
    }

    /// Typed readiness: dispatches through the interface, works for every
    /// protocol (contrast `LegacyStack::poll`).
    pub fn poll(&self, fd: u64) -> KResult<bool> {
        self.with_sock(fd, |s| s.poll())
    }

    /// Closes a socket. The fd is released immediately (every further
    /// call returns `EBADF`), but a TCP connection's PCB stays in the
    /// table until its FIN handshake and TIME_WAIT finish — so a lost
    /// FIN retransmits and the peer's FIN gets its ACK — and is reaped
    /// by `tick`/`reap_closed` on expiry.
    pub fn close(&self, fd: u64) -> KResult<()> {
        let now = self.clock.now_ns();
        let (pkts, done, ident) = {
            let i = Self::fd_shard(fd);
            let mut shard = self.sock_shards[i].lock();
            let e = shard.get_mut(&fd).ok_or(Errno::EBADF)?;
            if e.released {
                return Err(Errno::EBADF);
            }
            let pkts = e.sock.close(now);
            e.released = true;
            let done = e.sock.close_finished();
            let ident = (e.sock.protocol(), e.sock.local_port(), e.sock.remote_port());
            if done {
                shard.remove(&fd);
                self.mark_occupancy(i, &shard);
            }
            (pkts, done, ident)
        };
        self.transmit(pkts);
        if done {
            self.purge_indexes(ident.0, ident.1, ident.2, fd);
        }
        Ok(())
    }

    /// Routes one packet to a socket; `false` when the fd is gone (a
    /// stale index entry). Released-but-closing sockets still speak —
    /// the FIN handshake runs to completion behind the dead fd.
    fn deliver(&self, fd: u64, pkt: &Packet, now: u64) -> bool {
        let (out, reaped) = {
            let i = Self::fd_shard(fd);
            let mut shard = self.sock_shards[i].lock();
            match shard.get_mut(&fd) {
                Some(e) => {
                    let out = e.sock.on_packet(pkt, now);
                    // A released PCB whose teardown this very packet
                    // finished (the final ACK of its FIN) is reaped on
                    // the spot, freeing its 4-tuple for reuse.
                    let reaped = if e.released && e.sock.close_finished() {
                        let ident = (e.sock.protocol(), e.sock.local_port(), e.sock.remote_port());
                        shard.remove(&fd);
                        self.mark_occupancy(i, &shard);
                        Some(ident)
                    } else {
                        None
                    };
                    (out, reaped)
                }
                None => return false,
            }
        };
        self.transmit(out);
        if let Some((p, l, r)) = reaped {
            self.purge_indexes(p, l, r, fd);
        }
        true
    }

    /// Drains the wire; returns packets processed. Demux is two index
    /// probes — the flow shard, then the bound port — instead of the old
    /// O(sockets) scan under one global lock.
    pub fn pump(&self) -> KResult<usize> {
        let now = self.clock.now_ns();
        let mut count = 0;
        loop {
            let pkt = match self.wire.recv(self.side) {
                Ok(Some(p)) => p,
                Ok(None) => break,
                // A frame that failed checksum/parse: a detected loss the
                // retransmission machinery heals — never a dead pump.
                Err(_) => continue,
            };
            count += 1;
            if pkt.proto == proto::AMP_CTRL {
                let _ = self.handle_ctrl_packet(&pkt);
                continue;
            }
            // Exact flow match wins.
            if pkt.proto == proto::TCP {
                let key = (proto::TCP, pkt.dst_port, pkt.src_port);
                let shard = &self.conn_index[Self::conn_shard(pkt.dst_port, pkt.src_port)];
                let flow = shard.lock().get(&key).copied();
                if let Some(fd) = flow {
                    if self.deliver(fd, &pkt, now) {
                        continue;
                    }
                    // The fd is gone: drop the stale entry, fall through
                    // to the listener/dead-port paths.
                    let mut idx = shard.lock();
                    if idx.get(&key) == Some(&fd) {
                        idx.remove(&key);
                    }
                }
            }
            // A bound port (listener or datagram socket) takes the rest.
            let bound = self
                .port_index
                .lock()
                .get(&(pkt.proto, pkt.dst_port))
                .copied();
            if let Some(fd) = bound {
                if self.deliver(fd, &pkt, now) {
                    continue;
                }
            }
            // Dead port: answer non-RST TCP with a RST so the peer fails
            // fast instead of burning its whole retry budget (the old
            // code silently swallowed these).
            if pkt.proto == proto::TCP && pkt.flags & flags::RST == 0 {
                self.demux_rsts.fetch_add(1, Ordering::Relaxed);
                self.transmit(vec![rst_for(&pkt, pkt.dst_port)]);
            }
        }
        Ok(count)
    }

    /// Timer tick on every socket, one occupied shard at a time (no
    /// global lock), reaping closed sockets whose teardown has finished.
    pub fn tick(&self) {
        let now = self.clock.now_ns();
        for (i, shard) in self.occupied_shards() {
            let (out, reaped) = {
                let mut guard = shard.lock();
                let mut out = Vec::new();
                let mut reaped = Vec::new();
                for (&fd, e) in guard.iter_mut() {
                    out.extend(e.sock.tick(now));
                    if e.released && e.sock.close_finished() {
                        reaped.push((
                            fd,
                            e.sock.protocol(),
                            e.sock.local_port(),
                            e.sock.remote_port(),
                        ));
                    }
                }
                for (fd, ..) in &reaped {
                    guard.remove(fd);
                }
                if !reaped.is_empty() {
                    self.mark_occupancy(i, &guard);
                }
                (out, reaped)
            };
            self.transmit(out);
            for (fd, p, l, r) in reaped {
                self.purge_indexes(p, l, r, fd);
            }
        }
    }

    /// Registers an L2CAP channel.
    pub fn create_l2cap_channel(&self, cid: u16, mtu: u16) {
        self.channels
            .lock()
            .insert(cid, Channel::L2cap { mtu, credits: 10 });
    }

    /// Registers an AMP channel.
    pub fn create_amp_channel(&self, cid: u16, controller_id: u8) {
        self.channels.lock().insert(
            cid,
            Channel::Amp {
                controller_id,
                link: 0,
            },
        );
    }

    /// Processes an AMP control packet — typed: the move opcode only
    /// applies to [`Channel::Amp`]; anything else is `EPROTO`, not a cast.
    pub fn handle_ctrl_packet(&self, pkt: &Packet) -> KResult<()> {
        if pkt.payload.len() < 4 {
            return Err(Errno::EBADMSG);
        }
        let opcode = pkt.payload[0];
        let cid = u16::from_le_bytes([pkt.payload[1], pkt.payload[2]]);
        match opcode {
            crate::legacy_stack::OP_AMP_MOVE => {
                let mut channels = self.channels.lock();
                match channels.get_mut(&cid) {
                    Some(Channel::Amp { controller_id, .. }) => {
                        *controller_id = pkt.payload[3];
                        Ok(())
                    }
                    Some(Channel::L2cap { .. }) => Err(Errno::EPROTO),
                    None => Err(Errno::ENOENT),
                }
            }
            _ => Err(Errno::EPROTONOSUPPORT),
        }
    }

    /// Per-connection event counters, through the typed interface.
    pub fn tcp_counters(&self, fd: u64) -> KResult<TcpCounters> {
        self.with_sock(fd, |s| s.counters())
    }

    /// Stack-level TCP counters not owned by any one connection —
    /// currently the demux-miss RSTs.
    pub fn stack_counters(&self) -> TcpCounters {
        TcpCounters {
            resets_sent: self.demux_rsts.load(Ordering::Relaxed),
            ..TcpCounters::default()
        }
    }

    /// RSTs sent for segments that matched no socket at all.
    pub fn demux_resets(&self) -> u64 {
        self.demux_rsts.load(Ordering::Relaxed)
    }

    /// TIME_WAIT incarnations force-reaped to recycle a port or 4-tuple.
    pub fn timewait_recycles(&self) -> u64 {
        self.timewait_recycles.load(Ordering::Relaxed)
    }

    /// Live socket entries across all shards (includes closing PCBs
    /// whose fd is already released).
    pub fn live_sockets(&self) -> usize {
        self.sock_shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True once the connection died abnormally — the typed failure
    /// report (no downcast required).
    pub fn conn_failed(&self, fd: u64) -> KResult<bool> {
        self.with_sock(fd, |s| s.conn_failed())
    }

    /// Removes every socket that reports itself finished — defunct
    /// connections ([`ProtoSocket::reapable`]) and released sockets
    /// whose teardown completed. Returns how many were reaped.
    pub fn reap_closed(&self) -> usize {
        let mut total = 0;
        for (i, shard) in self.occupied_shards() {
            let reaped: Vec<(u64, u8, u16, u16)> = {
                let mut guard = shard.lock();
                let dead: Vec<(u64, u8, u16, u16)> = guard
                    .iter()
                    .filter(|(_, e)| {
                        (!e.released && e.sock.reapable())
                            || (e.released && e.sock.close_finished())
                    })
                    .map(|(&fd, e)| {
                        (
                            fd,
                            e.sock.protocol(),
                            e.sock.local_port(),
                            e.sock.remote_port(),
                        )
                    })
                    .collect();
                for (fd, ..) in &dead {
                    guard.remove(fd);
                }
                if !dead.is_empty() {
                    self.mark_occupancy(i, &guard);
                }
                dead
            };
            total += reaped.len();
            for (fd, p, l, r) in reaped {
                self.purge_indexes(p, l, r, fd);
            }
        }
        total
    }

    /// TCP state of a socket, when it is one (tests/diagnostics).
    pub fn tcp_state(&self, fd: u64) -> KResult<Option<TcpState>> {
        self.with_sock(fd, |s| s.tcp_state())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{DEFAULT_RTO_NS, TIME_WAIT_NS};
    use crate::wire::Wire;

    fn pair_on(wire: Arc<Wire>, clock: Arc<SimClock>) -> (ModularStack, ModularStack) {
        let registry = Arc::new(Registry::new());
        register_families(&registry).unwrap();
        let a = ModularStack::new(
            Arc::clone(&registry),
            Side::A,
            wire.clone(),
            Arc::clone(&clock),
        );
        let b = ModularStack::new(registry, Side::B, wire, clock);
        (a, b)
    }

    fn pair() -> (ModularStack, ModularStack, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let (a, b) = pair_on(Arc::new(Wire::new()), Arc::clone(&clock));
        (a, b, clock)
    }

    fn pump_both(a: &ModularStack, b: &ModularStack) {
        for _ in 0..8 {
            a.pump().unwrap();
            b.pump().unwrap();
        }
    }

    /// Internal state peek that works for released (closing) fds too.
    fn raw_state(stack: &ModularStack, fd: u64) -> Option<TcpState> {
        let shard = stack.sock_shards[ModularStack::fd_shard(fd)].lock();
        shard.get(&fd).and_then(|e| e.sock.tcp_state())
    }

    #[test]
    fn tcp_echo_through_the_modular_interface() {
        let (a, b, _) = pair();
        let server = b.socket("tcp", 80).unwrap();
        b.listen(server).unwrap();
        let client = a.socket("tcp", 1234).unwrap();
        a.connect(client, 80).unwrap();
        pump_both(&a, &b);
        assert!(b.poll(server).unwrap(), "accept queue has the handshake");
        let conn = b.accept(server).unwrap().expect("connection ready");
        assert!(!b.poll(server).unwrap(), "queue drained");
        a.send(client, 80, b"hello").unwrap();
        pump_both(&a, &b);
        assert!(b.poll(conn).unwrap());
        assert_eq!(b.recv(conn).unwrap(), b"hello");
        b.send(conn, 1234, b"world").unwrap();
        pump_both(&a, &b);
        assert_eq!(a.recv(client).unwrap(), b"world");
        assert_eq!(b.recv(server).unwrap(), b"", "listener carries no data");
    }

    #[test]
    fn udp_flow_and_typed_poll() {
        let (a, b, _) = pair();
        let sa = a.socket("udp", 1000).unwrap();
        let sb = b.socket("udp", 2000).unwrap();
        assert!(!b.poll(sb).unwrap(), "typed poll on UDP: correct answer");
        a.send(sa, 2000, b"dgram").unwrap();
        pump_both(&a, &b);
        assert!(b.poll(sb).unwrap());
        assert_eq!(b.recv(sb).unwrap(), b"dgram");
    }

    #[test]
    fn unknown_family_refused() {
        let (a, _, _) = pair();
        assert_eq!(a.socket("sctp", 1), Err(Errno::EPROTONOSUPPORT));
    }

    #[test]
    fn crafted_amp_packet_is_refused_not_confused() {
        let (a, _, _) = pair();
        a.create_l2cap_channel(0x40, 672);
        a.create_amp_channel(0x41, 1);
        let mut ok = Packet::new(proto::AMP_CTRL, 1, 1);
        ok.payload = vec![crate::legacy_stack::OP_AMP_MOVE, 0x41, 0x00, 2];
        a.handle_ctrl_packet(&ok).unwrap();
        let mut evil = Packet::new(proto::AMP_CTRL, 1, 1);
        evil.payload = vec![crate::legacy_stack::OP_AMP_MOVE, 0x40, 0x00, 2];
        assert_eq!(a.handle_ctrl_packet(&evil), Err(Errno::EPROTO));
        // The L2CAP channel is untouched.
        assert_eq!(
            a.channels.lock().get(&0x40),
            Some(&Channel::L2cap {
                mtu: 672,
                credits: 10
            })
        );
    }

    #[test]
    fn one_listener_serves_multiple_clients() {
        let (a, b, _) = pair();
        let server = b.socket("tcp", 80).unwrap();
        b.listen(server).unwrap();
        let clients: Vec<u64> = (0..3u16)
            .map(|i| {
                let c = a.socket("tcp", 2000 + i).unwrap();
                a.connect(c, 80).unwrap();
                c
            })
            .collect();
        pump_both(&a, &b);
        // Accept order is SYN arrival order — client creation order.
        let mut conns = Vec::new();
        while let Some(fd) = b.accept(server).unwrap() {
            conns.push(fd);
        }
        assert_eq!(conns.len(), 3);
        for (i, &c) in clients.iter().enumerate() {
            a.send(c, 80, format!("msg {i}").as_bytes()).unwrap();
        }
        pump_both(&a, &b);
        for (i, &s) in conns.iter().enumerate() {
            assert_eq!(b.recv(s).unwrap(), format!("msg {i}").as_bytes());
        }
        // Replies route back to the right clients: the accepted socket
        // knows its peer, the dst arg is advisory for TCP.
        for (i, &s) in conns.iter().enumerate() {
            b.send(s, 0, format!("r{i}").as_bytes()).unwrap();
        }
        pump_both(&a, &b);
        for (i, &c) in clients.iter().enumerate() {
            assert_eq!(a.recv(c).unwrap(), format!("r{i}").as_bytes());
        }
    }

    #[test]
    fn second_listener_on_the_same_port_is_refused() {
        let (_, b, _) = pair();
        let s1 = b.socket("tcp", 80).unwrap();
        b.listen(s1).unwrap();
        let s2 = b.socket("tcp", 80).unwrap();
        assert_eq!(b.listen(s2), Err(Errno::EADDRINUSE));
        // The original listener keeps the port.
        assert_eq!(b.listen(s1), Ok(()), "re-listen on the owner is fine");
    }

    #[test]
    fn hot_swapping_a_protocol_family() {
        // The Step-1 payoff: replace the TCP family implementation while
        // the stack is live; new sockets use the replacement.
        struct InstrumentedTcp {
            inner: TcpFamily,
        }
        impl ProtocolFamily for InstrumentedTcp {
            fn family_name(&self) -> &'static str {
                "tcp-v2"
            }
            fn create_socket(&self, local_port: u16, iss: u32) -> Box<dyn ProtoSocket> {
                self.inner.create_socket(local_port, iss)
            }
        }
        let registry = Arc::new(Registry::new());
        register_families(&registry).unwrap();
        let wire = Arc::new(Wire::new());
        let clock = Arc::new(SimClock::new());
        let a = ModularStack::new(Arc::clone(&registry), Side::A, wire, clock);
        let _s1 = a.socket("tcp", 1).unwrap();
        registry
            .replace::<dyn ProtocolFamily>(
                "netstack.family.tcp",
                "tcp-v2",
                Arc::new(InstrumentedTcp { inner: TcpFamily }),
            )
            .unwrap();
        let _s2 = a.socket("tcp", 2).unwrap();
        let entries = registry.list();
        let tcp = entries
            .iter()
            .find(|e| e.interface == "netstack.family.tcp")
            .unwrap();
        assert_eq!(tcp.implementation, "tcp-v2");
        assert_eq!(tcp.swaps, 1);
    }

    #[test]
    fn lossy_wire_recovers_via_retransmission() {
        use crate::wire::WireFaults;
        let clock = Arc::new(SimClock::new());
        let wire = Arc::new(Wire::with_faults(
            WireFaults {
                loss: 0.3,
                duplicate: 0.0,
            },
            7,
        ));
        let registry = Arc::new(Registry::new());
        register_families(&registry).unwrap();
        let a = ModularStack::new(
            Arc::clone(&registry),
            Side::A,
            wire.clone(),
            Arc::clone(&clock),
        );
        let b = ModularStack::new(registry, Side::B, wire, Arc::clone(&clock));
        let server = b.socket("tcp", 80).unwrap();
        b.listen(server).unwrap();
        let client = a.socket("tcp", 99).unwrap();
        a.connect(client, 80).unwrap();
        let payload = vec![3u8; 4000];
        let mut sent = false;
        let mut conn = None;
        let mut got = Vec::new();
        for round in 0..200 {
            a.pump().unwrap();
            b.pump().unwrap();
            if conn.is_none() {
                conn = b.accept(server).unwrap();
            }
            if !sent {
                // Try sending; ENOTCONN until the handshake completes.
                if a.send(client, 80, &payload).is_ok() {
                    sent = true;
                }
            }
            if let Some(c) = conn {
                got.extend(b.recv(c).unwrap());
            }
            if got.len() == payload.len() {
                break;
            }
            clock.advance(crate::tcp::DEFAULT_RTO_NS / 2);
            a.tick();
            b.tick();
            assert!(round < 199, "never completed over lossy wire");
        }
        assert_eq!(got, payload);
    }

    /// Satellite bugfix 1: close used to remove the PCB from the table
    /// before the FIN handshake ran, so a lost FIN (or a lost FIN-ACK)
    /// could never be retransmitted and the peer burned its retry budget
    /// into `conn_failed`. Reverting the fix fails here: with the PCB
    /// gone, the dropped FIN-ACK below is never re-answered.
    #[test]
    fn orderly_close_completes_after_the_fin_ack_is_lost() {
        let clock = Arc::new(SimClock::new());
        let wire = Arc::new(Wire::new());
        let (a, b) = pair_on(Arc::clone(&wire), Arc::clone(&clock));
        let server = b.socket("tcp", 80).unwrap();
        b.listen(server).unwrap();
        let client = a.socket("tcp", 5000).unwrap();
        a.connect(client, 80).unwrap();
        pump_both(&a, &b);
        let conn = b.accept(server).unwrap().expect("established");

        a.close(client).unwrap();
        assert_eq!(a.recv(client), Err(Errno::EBADF), "fd dies immediately");
        assert_eq!(raw_state(&a, client), Some(TcpState::FinWait1));
        b.pump().unwrap(); // server takes the FIN, ACKs it...
        while let Ok(Some(_)) = wire.recv(Side::A) {} // ...and the ACK is lost.
        assert_eq!(raw_state(&a, client), Some(TcpState::FinWait1));

        // The retained PCB retransmits the FIN after an RTO.
        clock.advance(DEFAULT_RTO_NS + 1);
        a.tick();
        pump_both(&a, &b);
        assert_eq!(raw_state(&a, client), Some(TcpState::FinWait2));
        assert!(
            !b.conn_failed(conn).unwrap(),
            "server side never saw a failure"
        );
        assert_eq!(b.tcp_counters(conn).unwrap().resets_received, 0);

        // Server closes its half; the client ACKs from the closing PCB.
        b.close(conn).unwrap();
        pump_both(&a, &b);
        assert_eq!(raw_state(&a, client), Some(TcpState::TimeWait));
        assert_eq!(raw_state(&b, conn), None, "LastAck -> Closed, reaped");

        // TIME_WAIT expiry reaps the last of it; no RSTs ever flowed.
        clock.advance(TIME_WAIT_NS + 1);
        a.tick();
        b.tick();
        assert_eq!(a.live_sockets(), 0, "client fully reaped");
        assert_eq!(b.live_sockets(), 1, "only the listener remains");
        assert_eq!(a.demux_resets() + b.demux_resets(), 0);
    }

    /// Satellite bugfix 2: segments to a dead port used to be silently
    /// swallowed, so the peer retransmitted into the void for the whole
    /// retry budget. Now they draw a RST and the connect fails fast.
    #[test]
    fn segment_to_a_dead_port_draws_a_reset() {
        let (a, b, _) = pair();
        let client = a.socket("tcp", 5555).unwrap();
        a.connect(client, 80).unwrap(); // nobody listens on b:80
        b.pump().unwrap();
        assert_eq!(b.demux_resets(), 1);
        assert_eq!(b.stack_counters().resets_sent, 1);
        a.pump().unwrap();
        assert!(a.conn_failed(client).unwrap(), "RST kills the connect");
        let c = a.tcp_counters(client).unwrap();
        assert_eq!(c.resets_received, 1);
        assert_eq!(c.retransmits, 0, "failed fast, no retry burn");
        // The RST itself must not echo another RST back.
        b.pump().unwrap();
        assert_eq!(b.demux_resets(), 1);
    }

    /// Satellite bugfix 3: the ISS counter was u64 silently truncated to
    /// u32 and stepped by a constant, so the first socket on every stack
    /// got the identical ISS. Now each connection's ISS is seeded from
    /// the counter, the port, and the link side.
    #[test]
    fn iss_is_seeded_per_connection_and_per_side() {
        let clock = Arc::new(SimClock::new());
        let wire = Arc::new(Wire::new());
        let (a, b) = pair_on(Arc::clone(&wire), Arc::clone(&clock));

        // Same counter value (first socket each), same local port: the
        // two stacks must still pick different ISSs.
        let ca = a.socket("tcp", 7000).unwrap();
        let cb = b.socket("tcp", 7000).unwrap();
        a.connect(ca, 80).unwrap();
        b.connect(cb, 80).unwrap();
        let syn_a = wire.recv(Side::B).unwrap().expect("SYN from A");
        let syn_b = wire.recv(Side::A).unwrap().expect("SYN from B");
        assert_ne!(
            syn_a.seq, syn_b.seq,
            "simultaneous connects must not collide on ISS"
        );

        // And a burst of connects on one stack is pairwise distinct.
        let mut seqs = vec![syn_a.seq];
        for i in 0..100u16 {
            let fd = a.socket("tcp", 9000 + i).unwrap();
            a.connect(fd, 80).unwrap();
        }
        while let Ok(Some(p)) = wire.recv(Side::B) {
            seqs.push(p.seq);
        }
        assert_eq!(seqs.len(), 101);
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 101, "every connection gets its own ISS");
    }

    #[test]
    fn ephemeral_ports_recycle_time_wait_under_pressure() {
        let clock = Arc::new(SimClock::new());
        let wire = Arc::new(Wire::new());
        let (a, b) = pair_on(Arc::clone(&wire), Arc::clone(&clock));
        let server = b.socket("tcp", 80).unwrap();
        b.listen(server).unwrap();
        a.set_ephemeral_range(50000, 50001);

        let mut used = Vec::new();
        for _ in 0..2 {
            let (fd, port) = a.socket_ephemeral("tcp").unwrap();
            used.push(port);
            a.connect(fd, 80).unwrap();
            pump_both(&a, &b);
            let conn = b.accept(server).unwrap().expect("established");
            // Full orderly close: the client ends in TIME_WAIT, still
            // owning its port.
            a.close(fd).unwrap();
            b.pump().unwrap();
            b.close(conn).unwrap();
            pump_both(&a, &b);
            assert_eq!(raw_state(&a, fd), Some(TcpState::TimeWait));
        }
        used.sort_unstable();
        assert_eq!(used, vec![50000, 50001], "range exhausted");

        // A third allocation only succeeds by recycling a TIME_WAIT
        // incarnation.
        let (fd3, port3) = a.socket_ephemeral("tcp").unwrap();
        assert!(used.contains(&port3));
        assert_eq!(a.timewait_recycles(), 1);
        a.connect(fd3, 80).unwrap();
        pump_both(&a, &b);
        assert_eq!(raw_state(&a, fd3), Some(TcpState::Established));
    }

    fn socket_lock_acquisitions(stack: &ModularStack) -> u64 {
        stack
            .lock_registry()
            .class_stats()
            .iter()
            .find(|s| s.name == "net.sockets")
            .map_or(0, |s| s.acquisitions)
    }

    /// The idle-round cost: a tick locks the shards that hold sockets,
    /// not all of them, and stops visiting a shard once it empties.
    #[test]
    fn tick_locks_only_occupied_socket_shards() {
        let (a, _, _) = pair();
        let fds: Vec<u64> = (0..3).map(|i| a.socket("udp", 1000 + i).unwrap()).collect();
        let before = socket_lock_acquisitions(&a);
        a.tick();
        let added = socket_lock_acquisitions(&a) - before;
        assert!(
            added <= 3,
            "tick took {added} net.sockets locks for 3 sockets (of {SHARDS} shards)"
        );
        for fd in fds {
            a.close(fd).unwrap();
        }
        assert_eq!(a.live_sockets(), 0);
        let before = socket_lock_acquisitions(&a);
        a.tick();
        a.reap_closed();
        assert_eq!(
            socket_lock_acquisitions(&a),
            before,
            "empty table: no locks"
        );
    }

    /// The occupancy mirror is never stale-low: a socket inserted into a
    /// shard the stack has already ticked while empty is still ticked,
    /// so its lost SYN retransmits on RTO.
    #[test]
    fn socket_in_a_previously_empty_shard_retransmits_on_rto() {
        let clock = Arc::new(SimClock::new());
        let wire = Arc::new(Wire::new());
        let (a, _b) = pair_on(Arc::clone(&wire), Arc::clone(&clock));
        a.tick(); // every shard empty
        let client = a.socket("tcp", 5000).unwrap();
        a.connect(client, 80).unwrap();
        let syn = wire.recv(Side::B).unwrap().expect("SYN sent");
        assert_eq!(wire.recv(Side::B).unwrap(), None, "the SYN is lost");
        clock.advance(DEFAULT_RTO_NS + 1);
        a.tick();
        let again = wire.recv(Side::B).unwrap().expect("SYN retransmitted");
        assert_eq!((again.flags, again.seq), (syn.flags, syn.seq));
        assert_eq!(a.tcp_counters(client).unwrap().retransmits, 1);
    }

    #[test]
    fn sharded_paths_stay_lockdep_clean() {
        let registry = Arc::new(Registry::new());
        register_families(&registry).unwrap();
        let wire = Arc::new(Wire::new());
        let clock = Arc::new(SimClock::new());
        let locks = LockRegistry::new();
        let a = ModularStack::with_lockdep(
            Arc::clone(&registry),
            Side::A,
            wire.clone(),
            Arc::clone(&clock),
            Arc::clone(&locks),
        );
        let b = ModularStack::with_lockdep(
            registry,
            Side::B,
            wire,
            Arc::clone(&clock),
            Arc::clone(&locks),
        );
        let server = b.socket("tcp", 80).unwrap();
        b.listen(server).unwrap();
        a.set_ephemeral_range(50000, 50003);
        for _ in 0..4 {
            let (fd, _) = a.socket_ephemeral("tcp").unwrap();
            a.connect(fd, 80).unwrap();
            pump_both(&a, &b);
            let conn = b.accept(server).unwrap().expect("established");
            a.send(fd, 80, b"ping").unwrap();
            pump_both(&a, &b);
            assert_eq!(b.recv(conn).unwrap(), b"ping");
            a.close(fd).unwrap();
            b.pump().unwrap();
            b.close(conn).unwrap();
            pump_both(&a, &b);
            clock.advance(TIME_WAIT_NS + 1);
            a.tick();
            b.tick();
        }
        // One more allocation sweep to drive the recycling path too.
        let (fd, _) = a.socket_ephemeral("tcp").unwrap();
        a.connect(fd, 80).unwrap();
        pump_both(&a, &b);
        a.reap_closed();
        b.reap_closed();
        assert!(
            locks.violations().is_empty(),
            "sharded demux/tick/alloc paths must be lockdep-clean: {:?}",
            locks.violations()
        );
    }
}
