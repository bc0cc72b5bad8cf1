//! The in-memory duplex wire connecting two stack instances.
//!
//! Frames travel as encoded bytes (so both stacks really exercise the
//! parser), with deterministic, seeded loss and duplication for
//! retransmission testing.

use std::collections::VecDeque;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sk_ksim::errno::KResult;

use crate::packet::Packet;

/// Which end of the wire an endpoint holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The A side.
    A,
    /// The B side.
    B,
}

impl Side {
    /// The opposite end.
    pub fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

/// Counters every link implementation keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames submitted for transmission.
    pub sent: u64,
    /// Frames the link dropped.
    pub dropped: u64,
    /// Extra copies the link injected.
    pub duplicated: u64,
    /// Frames displaced from their transmit order.
    pub reordered: u64,
    /// Frames whose bytes the link flipped.
    pub corrupted: u64,
    /// Frames held back past their transmit time.
    pub delayed: u64,
}

/// A duplex frame transport between two stack endpoints.
///
/// Both socket-layer generations drive their packets through this
/// interface, so the same pump code runs over the perfect [`Wire`] and
/// over the adversarial [`crate::fault::FaultyLink`].
pub trait Link: Send + Sync {
    /// Sends a packet from `side` toward the other end.
    fn send(&self, side: Side, pkt: &Packet);
    /// Receives the next frame destined for `side`, decoded. `Ok(None)`
    /// when nothing is deliverable; `Err` for frames that fail to parse
    /// (they are consumed — a detected loss).
    fn recv(&self, side: Side) -> KResult<Option<Packet>>;
    /// Frames currently queued in both directions.
    fn in_flight(&self) -> usize;
    /// Fault/traffic counters.
    fn link_stats(&self) -> LinkStats;
}

/// Wire fault configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireFaults {
    /// Probability a frame is dropped.
    pub loss: f64,
    /// Probability a frame is duplicated.
    pub duplicate: f64,
}

struct WireInner {
    a_to_b: VecDeque<Vec<u8>>,
    b_to_a: VecDeque<Vec<u8>>,
    rng: StdRng,
    faults: WireFaults,
    sent: u64,
    dropped: u64,
}

/// A duplex in-memory link.
pub struct Wire {
    inner: Mutex<WireInner>,
}

impl Wire {
    /// A perfect wire.
    pub fn new() -> Wire {
        Wire::with_faults(WireFaults::default(), 0)
    }

    /// A lossy wire with deterministic faults.
    pub fn with_faults(faults: WireFaults, seed: u64) -> Wire {
        Wire {
            inner: Mutex::new(WireInner {
                a_to_b: VecDeque::new(),
                b_to_a: VecDeque::new(),
                rng: StdRng::seed_from_u64(seed),
                faults,
                sent: 0,
                dropped: 0,
            }),
        }
    }

    /// Sends a packet from `side` toward the other end.
    pub fn send(&self, side: Side, pkt: &Packet) {
        let mut inner = self.inner.lock();
        inner.sent += 1;
        let loss = inner.faults.loss;
        if loss > 0.0 && inner.rng.gen_bool(loss.clamp(0.0, 1.0)) {
            inner.dropped += 1;
            return;
        }
        let frame = pkt.encode();
        let dup_p = inner.faults.duplicate;
        let dup = dup_p > 0.0 && inner.rng.gen_bool(dup_p.clamp(0.0, 1.0));
        let queue = match side {
            Side::A => &mut inner.a_to_b,
            Side::B => &mut inner.b_to_a,
        };
        if dup {
            queue.push_back(frame.clone());
        }
        queue.push_back(frame);
    }

    /// Receives the next frame destined for `side`, decoded.
    ///
    /// Returns `Ok(None)` when the queue is empty, `Err` for frames that
    /// fail to parse (they are consumed).
    pub fn recv(&self, side: Side) -> KResult<Option<Packet>> {
        let frame = {
            let mut inner = self.inner.lock();
            let queue = match side {
                Side::A => &mut inner.b_to_a,
                Side::B => &mut inner.a_to_b,
            };
            queue.pop_front()
        };
        match frame {
            Some(bytes) => Packet::decode(&bytes).map(Some),
            None => Ok(None),
        }
    }

    /// Frames currently in flight in both directions.
    pub fn in_flight(&self) -> usize {
        let inner = self.inner.lock();
        inner.a_to_b.len() + inner.b_to_a.len()
    }

    /// (sent, dropped) counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.sent, inner.dropped)
    }
}

impl Default for Wire {
    fn default() -> Self {
        Wire::new()
    }
}

impl Link for Wire {
    fn send(&self, side: Side, pkt: &Packet) {
        Wire::send(self, side, pkt);
    }
    fn recv(&self, side: Side) -> KResult<Option<Packet>> {
        Wire::recv(self, side)
    }
    fn in_flight(&self) -> usize {
        Wire::in_flight(self)
    }
    fn link_stats(&self) -> LinkStats {
        let (sent, dropped) = self.stats();
        LinkStats {
            sent,
            dropped,
            ..LinkStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::proto;

    #[test]
    fn frames_flow_in_both_directions() {
        let w = Wire::new();
        w.send(Side::A, &Packet::new(proto::UDP, 1, 2));
        w.send(Side::B, &Packet::new(proto::UDP, 3, 4));
        let at_b = w.recv(Side::B).unwrap().unwrap();
        assert_eq!(at_b.src_port, 1);
        let at_a = w.recv(Side::A).unwrap().unwrap();
        assert_eq!(at_a.src_port, 3);
        assert_eq!(w.recv(Side::A).unwrap(), None);
    }

    #[test]
    fn ordering_preserved_per_direction() {
        let w = Wire::new();
        for port in 1..=3 {
            w.send(Side::A, &Packet::new(proto::UDP, port, 9));
        }
        for port in 1..=3 {
            assert_eq!(w.recv(Side::B).unwrap().unwrap().src_port, port);
        }
    }

    #[test]
    fn total_loss_drops_everything() {
        let w = Wire::with_faults(
            WireFaults {
                loss: 1.0,
                duplicate: 0.0,
            },
            1,
        );
        w.send(Side::A, &Packet::new(proto::UDP, 1, 2));
        assert_eq!(w.recv(Side::B).unwrap(), None);
        assert_eq!(w.stats(), (1, 1));
    }

    #[test]
    fn duplication_doubles_frames() {
        let w = Wire::with_faults(
            WireFaults {
                loss: 0.0,
                duplicate: 1.0,
            },
            1,
        );
        w.send(Side::A, &Packet::new(proto::UDP, 1, 2));
        assert!(w.recv(Side::B).unwrap().is_some());
        assert!(w.recv(Side::B).unwrap().is_some());
        assert!(w.recv(Side::B).unwrap().is_none());
    }
}
