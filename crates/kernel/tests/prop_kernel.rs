//! Property tests for the separation kernel: Proof of Separability holds
//! over a whole *family* of randomized regime programs, and channels never
//! lose, duplicate, or reorder messages.

use sep_kernel::channel::ChannelStatus;
use sep_kernel::config::{KernelConfig, RegimeSpec};
use sep_kernel::kernel::SeparationKernel;
use sep_kernel::regime::{NativeAction, NativeRegime, RegimeIo};
use sep_kernel::verify::KernelSystem;
use sep_model::check::SeparabilityChecker;
use sep_model::prop::{check, Gen};
use std::any::Any;

/// A randomized bounded register program: stride, modulus mask, scratch
/// value, and whether it toggles the carry.
fn regime_source(stride: u16, mask_bits: u16, scratch: u16, toggles_carry: bool) -> String {
    let mask = !((1u16 << mask_bits) - 1);
    let carry = if toggles_carry {
        "        BIT #1, R1\n        BEQ even\n        SEC\n        TRAP 0\n        BR start\neven:   CLC\n"
    } else {
        "        CLC\n"
    };
    format!(
        "
start:  ADD #{stride}, R1
        BIC #{mask}, R1
        MOV #{scratch}, R3
{carry}        TRAP 0
        BR start
"
    )
}

/// The paper's claim, quantified over programs: ANY pair of bounded
/// register regimes yields a separable kernel.
#[test]
fn random_register_regimes_are_separable() {
    // Stride, mask bits, scratch value and carry toggle of one regime.
    let regime = |g: &mut Gen| (g.int(1u16..6), g.int(2u16..4), g.int(1u16..1000), g.bool());
    check(
        6,
        |g| (regime(g), regime(g)),
        |((s1, m1, v1, c1), (s2, m2, v2, c2))| {
            let cfg = KernelConfig::new(vec![
                RegimeSpec::assembly("a", &regime_source(s1, m1, v1, c1)),
                RegimeSpec::assembly("b", &regime_source(s2, m2, v2, c2)),
            ]);
            let sys = KernelSystem::new(cfg).unwrap();
            let report = SeparabilityChecker::new().check(&sys, &sys.abstractions());
            assert!(report.is_separable(), "{report}");
        },
    );
}

/// A native sender that pushes numbered messages as fast as the channel
/// accepts.
struct Pusher {
    next: u32,
    sent: Vec<u32>,
}

impl NativeRegime for Pusher {
    fn step(&mut self, io: &mut dyn RegimeIo) -> NativeAction {
        let msg = self.next.to_le_bytes();
        if io.send(0, &msg) == ChannelStatus::Ok {
            self.sent.push(self.next);
            self.next += 1;
        }
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(Pusher {
            next: self.next,
            sent: self.sent.clone(),
        })
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A native receiver that drains with a randomized per-step appetite.
struct Drainer {
    appetite: Vec<u8>,
    pos: usize,
    received: Vec<u32>,
}

impl NativeRegime for Drainer {
    fn step(&mut self, io: &mut dyn RegimeIo) -> NativeAction {
        let n = self.appetite[self.pos % self.appetite.len()];
        self.pos += 1;
        for _ in 0..n {
            match io.recv(0) {
                Ok(m) => self
                    .received
                    .push(u32::from_le_bytes([m[0], m[1], m[2], m[3]])),
                Err(_) => break,
            }
        }
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(Drainer {
            appetite: self.appetite.clone(),
            pos: self.pos,
            received: self.received.clone(),
        })
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Channels deliver exactly the sent sequence: no loss, duplication, or
/// reordering, for any receiver appetite pattern and channel capacity.
#[test]
fn channels_are_lossless_fifos() {
    let gen = |g: &mut Gen| {
        (
            g.vec(1..8, |g| g.int(0u8..4)),
            g.int(1usize..6),
            g.int(50u64..300),
        )
    };
    check(16, gen, |(appetite, capacity, steps)| {
        let cfg = KernelConfig::new(vec![
            RegimeSpec::native(
                "pusher",
                Box::new(Pusher {
                    next: 0,
                    sent: Vec::new(),
                }),
            ),
            RegimeSpec::native(
                "drainer",
                Box::new(Drainer {
                    appetite,
                    pos: 0,
                    received: Vec::new(),
                }),
            ),
        ])
        .with_channel(0, 1, capacity);
        let mut k = SeparationKernel::boot(cfg).unwrap();
        k.run(steps);
        let sent = {
            let p = k.regimes[0].native.as_mut().unwrap();
            p.as_any().downcast_ref::<Pusher>().unwrap().sent.clone()
        };
        let received = {
            let d = k.regimes[1].native.as_mut().unwrap();
            d.as_any()
                .downcast_ref::<Drainer>()
                .unwrap()
                .received
                .clone()
        };
        // Received is a prefix of sent (the rest is still queued).
        assert!(received.len() <= sent.len());
        assert_eq!(&sent[..received.len()], &received[..]);
        // Conservation: everything sent is either received or in flight.
        let in_flight = k.channels[0].queue().len();
        assert_eq!(sent.len(), received.len() + in_flight);
    });
}

#[test]
fn kernel_clone_is_deep() {
    // Cloning a kernel and running the copies identically keeps them
    // identical; diverging one does not affect the other.
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("a", &regime_source(1, 2, 7, true)),
        RegimeSpec::assembly("b", &regime_source(2, 3, 9, false)),
    ]);
    let mut k1 = SeparationKernel::boot(cfg).unwrap();
    let mut k2 = k1.clone();
    k1.run(100);
    k2.run(100);
    assert_eq!(k1.state_vector(), k2.state_vector());
    k1.run(1);
    assert_ne!(k1.state_vector(), k2.state_vector());
}
