//! Property tests for the trusted components: the security invariants hold
//! under randomized request streams.

use sep_components::component::TestIo;
use sep_components::fileserver::{request as fsreq, FileServer, FsClient};
use sep_components::guard::{Guard, ScriptedOfficer};
use sep_components::proto::{MsgReader, Status};
use sep_components::snfe::{Censor, CensorPolicy, Header, HEADER_LEN, HEADER_MAGIC};
use sep_model::prop::{check, Gen};
use sep_policy::level::{Classification, SecurityLevel};

fn level(rank: u8) -> SecurityLevel {
    SecurityLevel::plain(Classification::from_rank(rank % 4).unwrap())
}

/// A randomized file-server request.
#[derive(Debug, Clone)]
enum Req {
    Create(u8, u8), // name id, level rank
    Write(u8, u8),
    Read(u8, u8),
    Delete(u8, u8),
    List,
}

fn arb_req(g: &mut Gen) -> Req {
    let (n, l) = (g.int::<u8>(..) % 8, g.int(0u8..4));
    match g.int(0u8..5) {
        0 => Req::Create(n, l),
        1 => Req::Write(n, l),
        2 => Req::Read(n, l),
        3 => Req::Delete(n, l),
        _ => Req::List,
    }
}

/// The MLS invariant: a client NEVER receives file contents written at a
/// level its own level does not dominate, no matter the request stream.
#[test]
fn fileserver_never_leaks_upward_content() {
    check(
        32,
        |g| g.vec(1..60, |g| (g.int(0usize..3), arb_req(g))),
        |reqs| {
            let clients = [level(0), level(1), level(3)];
            let mut fs = FileServer::new(
                clients
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| FsClient {
                        name: format!("c{i}"),
                        level: l,
                        special_delete: false,
                    })
                    .collect(),
            );
            // Tag every written byte stream with its level so leaks are
            // recognizable: payload = [level_rank; 8].
            for (client, req) in &reqs {
                let frame = match req {
                    Req::Create(n, l) => fsreq::create(&format!("f{n}"), level(*l)),
                    Req::Write(n, l) => fsreq::write(&format!("f{n}"), level(*l), &[*l % 4; 8]),
                    Req::Read(n, l) => fsreq::read(&format!("f{n}"), level(*l)),
                    Req::Delete(n, l) => fsreq::delete(&format!("f{n}"), level(*l)),
                    Req::List => fsreq::list(),
                };
                let mut io = TestIo::new();
                io.push(&format!("c{client}.req"), &frame);
                io.run(&mut fs, 1);
                let responses = io.take_sent(&format!("c{client}.rsp"));
                assert_eq!(responses.len(), 1);
                let (status, payload) = fsreq::decode(&responses[0]);
                if status == Status::Ok {
                    if let Req::Read(_, _) = req {
                        let mut r = MsgReader::new(payload);
                        let data = r.bytes().unwrap();
                        if let Some(&tag) = data.first() {
                            // The data's provenance level must be dominated by
                            // the reader's level.
                            assert!(
                                clients[*client].dominates(&level(tag)),
                                "client {} at {:?} read data written at rank {}",
                                client,
                                clients[*client],
                                tag
                            );
                        }
                    }
                }
            }
        },
    );
}

/// Whatever the censor is fed, its canonical output is always a well-formed
/// header with zero padding and in-bounds fields.
#[test]
fn censor_canonical_output_is_always_canonical() {
    let gen = |g: &mut Gen| g.vec(1..40, |g| g.vec(0..14, |g| g.int::<u8>(..)));
    check(32, gen, |frames| {
        let mut censor = Censor::new(CensorPolicy::canonical());
        let mut io = TestIo::new();
        for f in &frames {
            io.push("red.in", f);
        }
        io.run(&mut censor, 1);
        for out in io.sent("black.out") {
            let h = Header::decode(out).expect("canonical output parses");
            assert_eq!(out.len(), HEADER_LEN);
            assert_eq!(out[0], HEADER_MAGIC);
            assert_eq!(h.pad, 0);
            assert!(h.dst <= 3);
            assert!(h.len <= 4096);
        }
    });
}

/// The rate limit is a hard bound per window regardless of input volume.
#[test]
fn censor_rate_limit_is_hard() {
    check(
        32,
        |g| (g.int(1usize..120), g.int(1u32..8)),
        |(n, limit)| {
            let mut censor = Censor::new(CensorPolicy {
                check_format: true,
                canonicalize: true,
                rate_limit: Some(limit),
            });
            let mut io = TestIo::new();
            let h = Header {
                seq: 0,
                len: 1,
                dst: 1,
                pad: 0,
            };
            for _ in 0..n {
                io.push("red.in", &h.encode());
            }
            io.run(&mut censor, 1); // all within one window
            assert!(io.sent("black.out").len() <= limit as usize);
        },
    );
}

/// The guard releases exactly the officer-approved prefix, in order, and
/// nothing else ever reaches the LOW side.
#[test]
fn guard_releases_only_approved() {
    check(
        32,
        |g| g.vec(1..20, Gen::bool),
        |script| {
            let mut guard = Guard::new(Box::new(ScriptedOfficer::new(&script)));
            let mut io = TestIo::new();
            let msgs: Vec<Vec<u8>> = (0..script.len() as u8).map(|i| vec![i, 0xEE]).collect();
            for m in &msgs {
                io.push("high.in", m);
            }
            io.run(&mut guard, script.len() as u64 + 2);
            let released: Vec<Vec<u8>> = io.take_sent("low.out");
            let expected: Vec<Vec<u8>> = msgs
                .iter()
                .zip(&script)
                .filter(|(_, &ok)| ok)
                .map(|(m, _)| m.clone())
                .collect();
            assert_eq!(released, expected);
            assert_eq!(guard.released + guard.denied, script.len() as u64);
        },
    );
}

/// CTR encryption never leaks 4-byte plaintext runs for plaintexts with
/// repeated structure.
#[test]
fn cipher_hides_structured_plaintext() {
    check(
        32,
        |g| (g.int::<u8>(..), g.int(16usize..64)),
        |(byte, len)| {
            use sep_components::snfe::xtea_ctr;
            let pt = vec![byte; len];
            let ct = xtea_ctr([1, 2, 3, 4], 99, &pt);
            assert_eq!(ct.len(), len);
            let run = [byte; 4];
            assert!(!ct.windows(4).any(|w| w == run));
        },
    );
}
