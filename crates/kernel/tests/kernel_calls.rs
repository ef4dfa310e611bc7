//! One kernel call, two regime kinds: the same scripted sequence of SEND,
//! RECV and POLL calls, issued once by TRAPs from a machine-code regime and
//! once through `RegimeIo` from a native regime, must get the same answers
//! and leave the same message accounting behind.

use sep_kernel::channel::{ChannelStatus, MAX_MSG};
use sep_kernel::config::{KernelConfig, RegimeSpec};
use sep_kernel::kernel::SeparationKernel;
use sep_kernel::regime::{NativeAction, NativeRegime, RegimeIo};
use sep_obs::{metrics_json, Json};

/// Channel A: the subject (regime 0) sends to the peer (regime 1).
const A: usize = 0;
/// Channel B: the peer sends to the subject.
const B: usize = 1;
/// Channel C: the peer sends to the bystander (regime 2); the subject is
/// neither end.
const C: usize = 2;

/// One kernel call of the script.
#[derive(Clone, Copy, Debug)]
enum Call {
    /// SEND `len` bytes on a channel.
    Send(usize, usize),
    /// RECV on a channel into a 16-byte buffer.
    Recv(usize),
    /// POLL a channel.
    Poll(usize),
    /// SWAP: the peer sends on B and halts while the subject is out.
    Swap,
}

/// What one call answered.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Send(ChannelStatus),
    Recv(ChannelStatus, Vec<u8>),
    Poll(Result<usize, ChannelStatus>),
}

const SCRIPT: [Call; 11] = [
    Call::Send(A, 3),           // Ok
    Call::Send(B, 3),           // Invalid: the subject receives on B
    Call::Send(A, MAX_MSG + 1), // Invalid: too long
    Call::Send(A, 3),           // Full: A holds one message
    Call::Recv(B),              // Empty: the peer has not sent yet
    Call::Poll(A),              // Ok(1): the sender's live depth
    Call::Poll(C),              // Invalid: not an end of C
    Call::Swap,
    Call::Recv(B), // Ok: the peer's message
    Call::Recv(B), // PeerDown: drained, and the peer halted
    Call::Poll(B), // PeerDown, likewise
];

/// The bytes a SEND of `len` bytes carries.
fn payload(len: usize) -> Vec<u8> {
    (1..=len).map(|i| i as u8).collect()
}

/// The peer: sends two bytes on B, then halts.
const PEER: &str = "
        MOV #1, R0
        MOV #msg, R1
        MOV #2, R2
        TRAP 1
        HALT
msg:    .byte 7, 9
";

/// The script as a machine-code program. Each call stores R0 (and, for a
/// RECV, R2) through R5 into `res`; RECV `i` lands in buffer `b{i}`.
fn assembly() -> String {
    let mut text = String::from("        MOV #res, R5\n");
    for (i, call) in SCRIPT.iter().enumerate() {
        text += &match *call {
            Call::Send(chan, len) => format!(
                "        MOV #{chan}, R0\n        MOV #msg, R1\n        MOV #{len}, R2\n\
                 \x20       TRAP 1\n        MOV R0, (R5)+\n"
            ),
            Call::Recv(chan) => format!(
                "        MOV #{chan}, R0\n        MOV #b{i}, R1\n        MOV #16, R2\n\
                 \x20       TRAP 2\n        MOV R0, (R5)+\n        MOV R2, (R5)+\n"
            ),
            Call::Poll(chan) => {
                format!("        MOV #{chan}, R0\n        TRAP 3\n        MOV R0, (R5)+\n")
            }
            Call::Swap => "        TRAP 0\n".into(),
        };
    }
    text += "done:   TRAP 0\n        BR done\n";
    let bytes: Vec<String> = payload(3).iter().map(u8::to_string).collect();
    text += &format!(
        "msg:    .byte {}\n        .even\nres:    .blkw 32\n",
        bytes.join(", ")
    );
    for (i, call) in SCRIPT.iter().enumerate() {
        if let Call::Recv(_) = call {
            text += &format!("b{i}:    .blkw 8\n");
        }
    }
    text
}

/// The script as a native regime, recording what each call answered.
#[derive(Clone, Default)]
struct Scripted {
    next: usize,
    out: Vec<Outcome>,
}

impl NativeRegime for Scripted {
    fn step(&mut self, io: &mut dyn RegimeIo) -> NativeAction {
        while let Some(call) = SCRIPT.get(self.next) {
            self.next += 1;
            let outcome = match *call {
                Call::Send(chan, len) => Outcome::Send(io.send(chan, &payload(len))),
                Call::Recv(chan) => match io.recv(chan) {
                    Ok(msg) => Outcome::Recv(ChannelStatus::Ok, msg),
                    Err(status) => Outcome::Recv(status, Vec::new()),
                },
                Call::Poll(chan) => Outcome::Poll(io.poll(chan)),
                Call::Swap => return NativeAction::Swap,
            };
            self.out.push(outcome);
        }
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn status(code: u16) -> ChannelStatus {
    [
        ChannelStatus::Ok,
        ChannelStatus::Full,
        ChannelStatus::Empty,
        ChannelStatus::Invalid,
        ChannelStatus::PeerDown,
    ]
    .into_iter()
    .find(|s| s.code() == code)
    .unwrap_or_else(|| panic!("no status has code {code}"))
}

/// Boots the three regimes with `subject` in slot 0 and runs them until
/// the script is done.
fn run(subject: RegimeSpec) -> SeparationKernel {
    let cfg = KernelConfig::new(vec![
        subject,
        RegimeSpec::assembly("peer", PEER),
        RegimeSpec::assembly("bystander", "HALT"),
    ])
    .with_channel(0, 1, 1)
    .with_channel(1, 0, 1)
    .with_channel(1, 2, 1);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    k.run(2000);
    k
}

/// The machine-code subject's answers, decoded from `res` and its buffers.
fn machine_outcomes(k: &SeparationKernel) -> Vec<Outcome> {
    let prog = sep_machine::assemble(&assembly()).unwrap();
    let base = k.regimes[0].partition_base;
    let word = |addr: u16| k.machine.mem.read_word(base + addr as u32);
    let mut res = prog.symbols["res"];
    let mut take = || {
        res += 2;
        word(res - 2)
    };
    let mut out = Vec::new();
    for (i, call) in SCRIPT.iter().enumerate() {
        out.push(match *call {
            Call::Send(..) => Outcome::Send(status(take())),
            Call::Recv(_) => {
                let (code, len) = (take(), take());
                let buf = base + prog.symbols[&format!("b{i}")] as u32;
                let bytes = (0..len as u32).map(|j| k.machine.mem.read_byte(buf + j));
                Outcome::Recv(status(code), bytes.collect())
            }
            Call::Poll(_) => Outcome::Poll(match take() {
                0o177777 => Err(ChannelStatus::Invalid),
                0o177776 => Err(ChannelStatus::PeerDown),
                n => Ok(n as usize),
            }),
            Call::Swap => continue,
        });
    }
    out
}

/// Every channel counter of a kernel's metrics registry, by path.
fn channel_counters(k: &SeparationKernel) -> Vec<(String, u64)> {
    fn walk(json: &Json, path: &str, out: &mut Vec<(String, u64)>) {
        const KEYS: [&str; 6] = [
            "messages",
            "channel_bytes",
            "messages_sent",
            "messages_received",
            "channel_bytes_sent",
            "channel_bytes_received",
        ];
        match json {
            Json::Obj(members) => {
                for (key, value) in members {
                    match value {
                        Json::Int(n) if KEYS.contains(&key.as_str()) => {
                            out.push((format!("{path}.{key}"), *n));
                        }
                        _ => walk(value, &format!("{path}.{key}"), out),
                    }
                }
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    walk(item, &format!("{path}[{i}]"), out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(&metrics_json(&k.machine.obs.metrics), "", &mut out);
    out
}

#[test]
fn machine_code_and_native_regimes_share_each_kernel_call() {
    let mut native = run(RegimeSpec::native("subject", Box::<Scripted>::default()));
    let code = run(RegimeSpec::assembly("subject", &assembly()));

    let regime = native.regimes[0].native.as_mut().expect("native subject");
    let native_out = regime
        .as_any()
        .downcast_mut::<Scripted>()
        .unwrap()
        .out
        .clone();
    use ChannelStatus::*;
    let expected = vec![
        Outcome::Send(Ok),
        Outcome::Send(Invalid),
        Outcome::Send(Invalid),
        Outcome::Send(Full),
        Outcome::Recv(Empty, vec![]),
        Outcome::Poll(Result::Ok(1)),
        Outcome::Poll(Err(Invalid)),
        Outcome::Recv(Ok, vec![7, 9]),
        Outcome::Recv(PeerDown, vec![]),
        Outcome::Poll(Err(PeerDown)),
    ];
    assert_eq!(machine_outcomes(&code), expected, "machine-code regime");
    assert_eq!(native_out, expected, "native regime");

    assert_eq!(native.stats.messages_sent, code.stats.messages_sent);
    assert_eq!(native.stats.bytes_copied, code.stats.bytes_copied);
    assert_eq!((code.stats.messages_sent, code.stats.bytes_copied), (2, 7));
    let counters = channel_counters(&code);
    assert!(counters.iter().any(|(_, n)| *n > 0), "{counters:?}");
    assert_eq!(channel_counters(&native), counters);
}
