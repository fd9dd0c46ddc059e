//! Golden wire bytes: a real `Stack` behind netfront talks to a dom0 tap
//! that plays a minimal peer (answers ARP and the TCP handshake, sends one
//! ping), and the frames the stack emits are pinned byte for byte — one of
//! each kind the stack writes: ARP request, UDP datagram, ICMP echo reply,
//! SYN with MSS and window-scale options, full-MSS data segment and DHCP
//! discover.
//!
//! The data segment is emitted twice, in two worlds that send the same
//! packets in the same order. In one the stack's 256 TX pool pages are all
//! still held by a burst of datagrams queued in the same poll iteration, so
//! the segment is written into a heap buffer; in the other the pages have
//! been recycled first. Both frames must equal the golden bytes, and the
//! stack's `tx_heap_frames` counter shows which world took which path.

use std::sync::Arc;

use mirage::cstruct::PktBuf;
use mirage::devices::netfront::{CopyDiscipline, Netfront};
use mirage::devices::{DriverDomain, Tap, Xenstore};
use mirage::hypervisor::{Dur, Hypervisor};
use mirage::net::arp::{ArpOp, ArpPacket};
use mirage::net::ethernet::{self, EtherType, Frame};
use mirage::net::icmp::Echo;
use mirage::net::ipv4::{self, protocol, Ipv4Packet};
use mirage::net::tcp::{build_segment, Flags, SegmentOut, TcpSegment};
use mirage::net::udp::UdpDatagram;
use mirage::net::{Ipv4Addr, Mac, Stack, StackConfig, StackStats};
use mirage::runtime::UnikernelGuest;
use mirage_testkit::sync::Mutex;

const GUEST_MAC: Mac = Mac([0x02, 0, 0, 0, 0, 0x02]);
const DHCP_MAC: Mac = Mac([0x02, 0, 0, 0, 0, 0x03]);
const TAP_MAC: Mac = Mac([0x02, 0, 0, 0, 0, 0xEE]);
const GUEST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const TAP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
/// TCP payload of the data segment: one full default MSS.
const MSS: usize = 1460;
/// The stack's TX page pool size: a burst this long holds every page.
const POOL_PAGES: usize = 256;

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// The frames of interest, in the order the tap first saw each kind.
#[derive(Default)]
struct Golden {
    arp_request: Option<PktBuf>,
    udp: Option<PktBuf>,
    icmp_reply: Option<PktBuf>,
    syn: Option<PktBuf>,
    data: Option<PktBuf>,
    dhcp_discover: Option<PktBuf>,
    /// The guest's stack counters, read after the data segment is sent.
    stats: Option<StackStats>,
}

/// What an IPv4 frame from the stack carries, as the peer reads it.
enum Seen {
    Udp { dst_port: u16 },
    Icmp,
    Tcp(TcpSegment),
    Other,
}

fn classify(frame: &[u8]) -> Seen {
    let pkt = Ipv4Packet::parse(&frame[ethernet::HEADER_LEN..]).expect("valid IPv4");
    match pkt.protocol {
        protocol::UDP => match UdpDatagram::parse(pkt.src, pkt.dst, pkt.payload) {
            Some(d) => Seen::Udp {
                dst_port: d.dst_port,
            },
            None => Seen::Other,
        },
        protocol::ICMP => Seen::Icmp,
        protocol::TCP => {
            let seg = PktBuf::from_vec(pkt.payload.to_vec());
            TcpSegment::parse(pkt.src, pkt.dst, &seg).map_or(Seen::Other, Seen::Tcp)
        }
        _ => Seen::Other,
    }
}

fn ip_frame(proto: u8, ident: u16, l4: &[u8]) -> Vec<u8> {
    let packet = ipv4::build(TAP_IP, GUEST_IP, proto, ident, l4);
    ethernet::build(GUEST_MAC, TAP_MAC, EtherType::Ipv4, &packet)
}

/// Runs one world and returns the frames of interest. With `exhaust`, the
/// datagram burst and the data write land in one stack poll iteration.
fn run(exhaust: bool) -> Golden {
    let xs = Xenstore::new();
    let mut hv = Hypervisor::new();
    let tap = Tap::new(TAP_MAC.0);
    let mut dom0 = DriverDomain::new(xs.clone());
    dom0.add_tap(tap.clone());
    let d0 = hv.create_domain("dom0", 512, Box::new(dom0));

    let stats = Arc::new(Mutex::new(None));
    let stats_out = Arc::clone(&stats);
    let (front, nh) = Netfront::new(xs.clone(), "golden", GUEST_MAC.0, CopyDiscipline::ZeroCopy);
    let mut guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::static_ip(GUEST_IP));
        let rt2 = rt.clone();
        rt.spawn(async move {
            // Unresolved peer: the datagram waits for ARP.
            let sock = stack.udp_bind(5000).await.unwrap();
            sock.send_to(TAP_IP, 7, b"golden udp datagram".to_vec());
            rt2.sleep(Dur::millis(20)).await;
            let conn = stack.tcp_connect(TAP_IP, 80).await.unwrap();
            rt2.sleep(Dur::millis(10)).await;
            for _ in 0..POOL_PAGES {
                sock.send_to(TAP_IP, 9, vec![0u8; 32]);
            }
            if !exhaust {
                // Let netfront drain the burst so the pool refills.
                rt2.sleep(Dur::millis(1)).await;
            }
            conn.write(&pattern(MSS));
            rt2.sleep(Dur::millis(50)).await;
            *stats_out.lock() = stack.stack_stats().await.ok();
            0
        })
    });
    guest.add_device(Box::new(front));
    hv.create_domain("golden", 32, Box::new(guest));

    let (front, nh) = Netfront::new(xs.clone(), "dhcp", DHCP_MAC.0, CopyDiscipline::ZeroCopy);
    let mut dhcp_guest = UnikernelGuest::new(move |_env, rt| {
        let stack = Stack::spawn(rt, nh, StackConfig::dhcp());
        rt.spawn(async move {
            // No DHCP server answers; keep the stack alive while it asks.
            let _ = stack.wait_ready().await;
            0
        })
    });
    dhcp_guest.add_device(Box::new(front));
    hv.create_domain("dhcp", 32, Box::new(dhcp_guest));

    let mut g = Golden::default();
    let mut pinged = false;
    for _ in 0..120 {
        hv.run_for(Dur::millis(1));
        let mut inject = Vec::new();
        for frame in tap.harvest() {
            let Some(eth) = Frame::parse(&frame) else {
                continue;
            };
            if eth.src == DHCP_MAC {
                if let Seen::Udp { dst_port: 67 } = classify(&frame) {
                    g.dhcp_discover.get_or_insert(frame);
                }
                continue;
            }
            if eth.src != GUEST_MAC {
                continue;
            }
            if eth.ethertype == EtherType::Arp {
                let req = ArpPacket::parse(eth.payload).expect("valid ARP");
                assert_eq!(req.op, ArpOp::Request);
                assert_eq!(req.tpa, TAP_IP);
                let reply = ArpPacket {
                    op: ArpOp::Reply,
                    sha: TAP_MAC,
                    spa: TAP_IP,
                    tha: req.sha,
                    tpa: req.spa,
                }
                .build();
                inject.push(ethernet::build(req.sha, TAP_MAC, EtherType::Arp, &reply));
                g.arp_request.get_or_insert(frame);
                continue;
            }
            match classify(&frame) {
                Seen::Udp { dst_port: 7 } => {
                    g.udp.get_or_insert(frame);
                    if !pinged {
                        pinged = true;
                        let echo = Echo {
                            is_request: true,
                            ident: 0x77,
                            seq: 1,
                            payload: b"golden ping",
                        };
                        inject.push(ip_frame(protocol::ICMP, 1, &echo.build()));
                    }
                }
                Seen::Icmp => {
                    g.icmp_reply.get_or_insert(frame);
                }
                Seen::Tcp(seg) if seg.flags.syn && !seg.flags.ack => {
                    let synack = SegmentOut {
                        seq: 7000,
                        ack: seg.seq.wrapping_add(1),
                        flags: Flags {
                            syn: true,
                            ack: true,
                            ..Flags::default()
                        },
                        window: 65535,
                        mss: Some(MSS as u16),
                        wscale: Some(7),
                        payload: PktBuf::empty(),
                    };
                    let wire = build_segment(TAP_IP, 80, GUEST_IP, seg.src_port, &synack);
                    inject.push(ip_frame(protocol::TCP, 2, &wire));
                    g.syn.get_or_insert(frame);
                }
                Seen::Tcp(seg) if seg.payload.len() == MSS => {
                    g.data.get_or_insert(frame);
                }
                _ => {}
            }
        }
        if !inject.is_empty() {
            for f in inject {
                tap.inject(f);
            }
            hv.wake_external(d0);
        }
    }
    g.stats = stats.lock().take();
    g
}

/// Checks `frame` against golden header bytes (hex) followed by `tail`;
/// on a mismatch, describes the frame as it came out.
fn mismatch(name: &str, frame: &Option<PktBuf>, head: &str, tail: &[u8]) -> Option<String> {
    let Some(f) = frame else {
        return Some(format!("{name}: never emitted"));
    };
    let split = f.len().saturating_sub(tail.len());
    let tail_ok = &f[split..] == tail;
    let got = hex(&f[..split]);
    (got != head || !tail_ok)
        .then(|| format!("{name}: {got} (len {}, tail ok: {tail_ok})", f.len()))
}

const ARP_REQUEST: &str = concat!(
    "ffffffffffff0200000000020806",
    "00010800060400010200000000020a0000020000",
    "000000000a000009",
);
const UDP: &str = concat!(
    "0200000000ee0200000000020800",
    "4500002f00014000401126b30a0000020a000009",
    "13880007001b5755676f6c64656e2075647020646174616772616d",
);
const ICMP_REPLY: &str = concat!(
    "0200000000ee0200000000020800",
    "4500002700024000400126ca0a0000020a000009",
    "0000d56600770001676f6c64656e2070696e67",
);
const SYN: &str = concat!(
    "0200000000ee0200000000020800",
    "4500003000034000400626bb0a0000020a000009",
    "c000005000012110000000007002ffff8db20000020405b403030201",
);
/// Ethernet + IPv4 + TCP headers; the payload is `pattern(MSS)`.
const DATA_HEADERS: &str = concat!(
    "0200000000ee0200000000020800",
    "450005dc010540004006200d0a0000020a000009",
    "c00000500001211100001b595018fffff4c40000",
);
const DHCP_DISCOVER: &str = concat!(
    "ffffffffffff0200000000030800",
    "4500011000014000401139dd00000000ffffffff",
    "0044004300fc66fb010106004d49524100000000000000000000000000000000",
    "0000000002000000000300000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000000000000000063825363350101ff",
);

#[test]
fn stack_frames_match_golden_bytes_with_and_without_tx_pages() {
    for exhaust in [false, true] {
        let g = run(exhaust);
        let heap_frames = g.stats.expect("guest read its stack stats").tx_heap_frames;
        // Only the data segment follows the burst in its poll iteration.
        assert_eq!(
            heap_frames,
            u64::from(exhaust),
            "frames built in a heap buffer (pool exhausted: {exhaust})"
        );
        let cases = [
            ("arp request", &g.arp_request, ARP_REQUEST, vec![]),
            ("udp datagram", &g.udp, UDP, vec![]),
            ("icmp echo reply", &g.icmp_reply, ICMP_REPLY, vec![]),
            ("syn", &g.syn, SYN, vec![]),
            ("full-mss data", &g.data, DATA_HEADERS, pattern(MSS)),
            ("dhcp discover", &g.dhcp_discover, DHCP_DISCOVER, vec![]),
        ];
        let errors: Vec<String> = cases
            .iter()
            .filter_map(|(name, frame, head, tail)| mismatch(name, frame, head, tail))
            .collect();
        assert!(
            errors.is_empty(),
            "frames differ from the golden bytes (pool exhausted: {exhaust}):\n{}",
            errors.join("\n")
        );
    }
}
