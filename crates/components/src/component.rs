//! The substrate-independent component interface and its two adapters.
//!
//! A [`Component`] sees the world as named ports carrying message frames —
//! nothing else. The [`NodeAdapter`] realizes ports as the dedicated wires
//! of a physically distributed network; the [`RegimeComponent`] realizes
//! them as separation-kernel channels. The component cannot tell which it is
//! running on; making that literally true is the kernel's entire job.

use sep_distributed::node::{Node, NodeIo};
use sep_kernel::channel::ChannelStatus;
use sep_kernel::regime::{NativeAction, NativeRegime, RegimeIo};
use std::any::Any;
use std::collections::VecDeque;

/// A component's window onto the world: its own named ports.
pub trait ComponentIo {
    /// Receives the next frame on an incoming port, if any.
    fn recv(&mut self, port: &str) -> Option<Vec<u8>>;

    /// Sends a frame on an outgoing port; `false` when the port is
    /// unconnected or full (back-pressure).
    fn send(&mut self, port: &str, msg: &[u8]) -> bool;

    /// The current round (the component's only clock).
    fn round(&self) -> u64;
}

/// A trusted (or untrusted) component of the secure-system design.
///
/// `Send + Sync` so components can ride inside cloned kernel states that
/// the parallel separability checker distributes across worker threads.
pub trait Component: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;

    /// Executes one round.
    fn step(&mut self, io: &mut dyn ComponentIo);

    /// Object-safe clone.
    fn boxed_clone(&self) -> Box<dyn Component>;

    /// Host-side introspection for tests and experiments.
    fn as_any(&mut self) -> &mut dyn Any;
}

impl Clone for Box<dyn Component> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

// ---------------------------------------------------------------------
// Adapter 1: distributed network node.
// ---------------------------------------------------------------------

/// Runs a component as a node of the physically distributed system.
pub struct NodeAdapter {
    component: Box<dyn Component>,
}

impl NodeAdapter {
    /// Wraps a component.
    pub fn new(component: Box<dyn Component>) -> Box<NodeAdapter> {
        Box::new(NodeAdapter { component })
    }

    /// Access to the wrapped component.
    pub fn component_mut(&mut self) -> &mut dyn Component {
        self.component.as_mut()
    }
}

impl Node for NodeAdapter {
    fn name(&self) -> &str {
        self.component.name()
    }

    fn step(&mut self, io: &mut dyn NodeIo) {
        let mut bridge = NodeBridge { io };
        self.component.step(&mut bridge);
    }
}

struct NodeBridge<'a> {
    io: &'a mut dyn NodeIo,
}

impl ComponentIo for NodeBridge<'_> {
    fn recv(&mut self, port: &str) -> Option<Vec<u8>> {
        self.io.recv(port)
    }

    fn send(&mut self, port: &str, msg: &[u8]) -> bool {
        self.io.send(port, msg.to_vec()).is_ok()
    }

    fn round(&self) -> u64 {
        self.io.round()
    }
}

// ---------------------------------------------------------------------
// Adapter 2: separation-kernel native regime.
// ---------------------------------------------------------------------

/// How one of a component's ports maps onto a kernel channel.
#[derive(Debug, Clone)]
pub enum PortBinding {
    /// Outgoing port: the regime is the channel's sender.
    Send {
        /// Port name.
        port: String,
        /// Channel index.
        channel: usize,
    },
    /// Incoming port: the regime is the channel's receiver.
    Recv {
        /// Port name.
        port: String,
        /// Channel index.
        channel: usize,
    },
}

/// Runs a component as a native regime on the separation kernel.
///
/// Each kernel step runs one component round and yields, so regimes
/// interleave round-robin exactly as network nodes do — which is what makes
/// the two substrates trace-comparable.
pub struct RegimeComponent {
    component: Box<dyn Component>,
    bindings: Vec<PortBinding>,
    round: u64,
}

impl RegimeComponent {
    /// Wraps a component with its port-to-channel map.
    pub fn new(component: Box<dyn Component>, bindings: Vec<PortBinding>) -> Box<RegimeComponent> {
        Box::new(RegimeComponent {
            component,
            bindings,
            round: 0,
        })
    }
}

impl NativeRegime for RegimeComponent {
    fn step(&mut self, io: &mut dyn RegimeIo) -> NativeAction {
        let mut bridge = RegimeBridge {
            io,
            bindings: &self.bindings,
            round: self.round,
        };
        self.component.step(&mut bridge);
        self.round += 1;
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(RegimeComponent {
            component: self.component.boxed_clone(),
            bindings: self.bindings.clone(),
            round: self.round,
        })
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.round.to_le_bytes().to_vec()
    }
}

impl RegimeComponent {
    /// Access to the wrapped component (host-side inspection through the
    /// kernel's regime records).
    pub fn component_mut(&mut self) -> &mut dyn Component {
        self.component.as_mut()
    }
}

struct RegimeBridge<'a, 'b> {
    io: &'a mut dyn RegimeIo,
    bindings: &'b [PortBinding],
    round: u64,
}

impl ComponentIo for RegimeBridge<'_, '_> {
    fn recv(&mut self, port: &str) -> Option<Vec<u8>> {
        let channel = self.bindings.iter().find_map(|b| match b {
            PortBinding::Recv { port: p, channel } if p == port => Some(*channel),
            _ => None,
        })?;
        self.io.recv(channel).ok()
    }

    fn send(&mut self, port: &str, msg: &[u8]) -> bool {
        let Some(channel) = self.bindings.iter().find_map(|b| match b {
            PortBinding::Send { port: p, channel } if p == port => Some(*channel),
            _ => None,
        }) else {
            return false;
        };
        self.io.send(channel, msg) == ChannelStatus::Ok
    }

    fn round(&self) -> u64 {
        self.round
    }
}

// ---------------------------------------------------------------------
// Test helpers: a loopback harness for driving components directly.
// ---------------------------------------------------------------------

/// A direct, in-memory [`ComponentIo`] for unit-testing components without
/// either substrate.
#[derive(Debug, Default)]
pub struct TestIo {
    /// Frames queued for the component, per port.
    pub inbox: std::collections::BTreeMap<String, VecDeque<Vec<u8>>>,
    /// Frames the component sent, per port.
    pub outbox: std::collections::BTreeMap<String, Vec<Vec<u8>>>,
    /// The round presented to the component.
    pub now: u64,
}

impl TestIo {
    /// An empty harness.
    pub fn new() -> TestIo {
        TestIo::default()
    }

    /// Queues a frame for the component.
    pub fn push(&mut self, port: &str, msg: &[u8]) {
        self.inbox
            .entry(port.to_string())
            .or_default()
            .push_back(msg.to_vec());
    }

    /// Everything the component sent on a port.
    pub fn sent(&self, port: &str) -> &[Vec<u8>] {
        self.outbox.get(port).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Takes everything the component sent on a port.
    pub fn take_sent(&mut self, port: &str) -> Vec<Vec<u8>> {
        self.outbox.remove(port).unwrap_or_default()
    }

    /// Runs a component for `rounds` rounds against this harness.
    pub fn run(&mut self, c: &mut dyn Component, rounds: u64) {
        for _ in 0..rounds {
            c.step(self);
            self.now += 1;
        }
    }
}

impl ComponentIo for TestIo {
    fn recv(&mut self, port: &str) -> Option<Vec<u8>> {
        self.inbox.get_mut(port)?.pop_front()
    }

    fn send(&mut self, port: &str, msg: &[u8]) -> bool {
        self.outbox
            .entry(port.to_string())
            .or_default()
            .push(msg.to_vec());
        true
    }

    fn round(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes frames from "in" to "out" with a byte prepended.
    #[derive(Clone)]
    struct Tag(u8);

    impl Component for Tag {
        fn name(&self) -> &str {
            "tag"
        }

        fn step(&mut self, io: &mut dyn ComponentIo) {
            while let Some(mut m) = io.recv("in") {
                m.insert(0, self.0);
                io.send("out", &m);
            }
        }

        fn boxed_clone(&self) -> Box<dyn Component> {
            Box::new(self.clone())
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn test_io_roundtrip() {
        let mut io = TestIo::new();
        io.push("in", b"abc");
        let mut c = Tag(9);
        io.run(&mut c, 1);
        assert_eq!(io.sent("out"), &[vec![9, b'a', b'b', b'c']]);
    }

    #[test]
    fn node_adapter_runs_on_network() {
        use sep_distributed::Network;
        let mut net = Network::new();
        let tagger = net.add_node(NodeAdapter::new(Box::new(Tag(1))));
        let echo = net.add_node(NodeAdapter::new(Box::new(Tag(2))));
        net.connect(tagger, "out", echo, "in", 8, 1);
        net.connect(echo, "out", tagger, "in", 8, 1);
        // Nothing moves until something is injected — components are quiet.
        net.run(4);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn regime_component_runs_on_kernel() {
        use sep_kernel::config::{KernelConfig, RegimeSpec};
        use sep_kernel::kernel::SeparationKernel;

        // Two tag components in a ring over kernel channels: 0→1 on channel
        // 0, 1→0 on channel 1. Seed a frame by hand.
        let a = RegimeComponent::new(
            Box::new(Tag(1)),
            vec![
                PortBinding::Send {
                    port: "out".into(),
                    channel: 0,
                },
                PortBinding::Recv {
                    port: "in".into(),
                    channel: 1,
                },
            ],
        );
        let b = RegimeComponent::new(
            Box::new(Tag(2)),
            vec![
                PortBinding::Send {
                    port: "out".into(),
                    channel: 1,
                },
                PortBinding::Recv {
                    port: "in".into(),
                    channel: 0,
                },
            ],
        );
        let cfg = KernelConfig::new(vec![RegimeSpec::native("a", a), RegimeSpec::native("b", b)])
            .with_channel(0, 1, 8)
            .with_channel(1, 0, 8);
        let mut k = SeparationKernel::boot(cfg).unwrap();
        // Seed: put a frame on channel 1 (towards component a).
        k.channels[1].restore_queue(vec![b"x".to_vec()]);
        k.run(20);
        // The frame circulates, gaining a tag byte per hop.
        let total: usize = k.channels.iter().map(|c| c.queue().len()).sum();
        assert!(k.stats.messages_sent >= 2, "frames moved: {:?}", k.stats);
        assert!(total <= 1, "no frame pile-up");
    }
}
