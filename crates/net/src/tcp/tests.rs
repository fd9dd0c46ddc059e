//! Orchestrator-level tests: two [`Connection`]s talking over real
//! serialisation. Per-component tests live in each component's submodule;
//! these exercise the composition.

use super::*;
use mirage_hypervisor::Dur;
use mirage_testkit::prop::{any, collection};
use std::net::Ipv4Addr;

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Wire-level pump: carries segments between two connections with an
/// optional per-segment fault hook, via real serialisation.
fn pump(
    a: &mut Connection,
    b: &mut Connection,
    a_out: &mut Vec<SegmentOut>,
    b_out: &mut Vec<SegmentOut>,
    now: &mut Time,
    mut fault: impl FnMut(usize, bool) -> bool, // (index, a_to_b) -> deliver?
) -> (Vec<Event>, Vec<Event>) {
    let mut ev_a = Vec::new();
    let mut ev_b = Vec::new();
    let mut idx = 0;
    for _ in 0..400 {
        *now += Dur::millis(1);
        let mut quiet = true;
        for seg in std::mem::take(a_out) {
            let wire = PktBuf::from_vec(build_segment(A, 1000, B, 2000, &seg));
            idx += 1;
            if !fault(idx, true) {
                continue;
            }
            let parsed = TcpSegment::parse(A, B, &wire).expect("valid segment");
            let out = b.on_segment(&parsed, *now);
            b_out.extend(out.segments);
            ev_b.extend(out.events);
            quiet = false;
        }
        for seg in std::mem::take(b_out) {
            let wire = PktBuf::from_vec(build_segment(B, 2000, A, 1000, &seg));
            idx += 1;
            if !fault(idx, false) {
                continue;
            }
            let parsed = TcpSegment::parse(B, A, &wire).expect("valid segment");
            let out = a.on_segment(&parsed, *now);
            a_out.extend(out.segments);
            ev_a.extend(out.events);
            quiet = false;
        }
        if quiet {
            // Let timers fire (jump to the next deadline).
            let next = [a.next_deadline(), b.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            match next {
                Some(t) => {
                    *now = (*now).max(t);
                    let oa = a.poll(*now).output;
                    a_out.extend(oa.segments);
                    ev_a.extend(oa.events);
                    let ob = b.poll(*now).output;
                    b_out.extend(ob.segments);
                    ev_b.extend(ob.events);
                    if a_out.is_empty() && b_out.is_empty() {
                        break;
                    }
                }
                None => break,
            }
        }
    }
    (ev_a, ev_b)
}

/// Handshake between a client with `client_cfg` and a default server.
fn handshake_with(
    client_cfg: TcpConfig,
    server_cfg: TcpConfig,
) -> (Connection, Connection, Vec<SegmentOut>, Vec<SegmentOut>, Time) {
    let mut now = Time::ZERO;
    let (mut client, out) = Connection::connect(client_cfg, 100, now);
    let mut server = Connection::listen(server_cfg, 9000);
    let mut c_out = out.segments;
    let mut s_out = Vec::new();
    let (ev_c, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(ev_c.contains(&Event::Connected));
    assert!(ev_s.contains(&Event::Connected));
    assert_eq!(client.state(), State::Established);
    assert_eq!(server.state(), State::Established);
    (client, server, c_out, s_out, now)
}

fn handshake() -> (Connection, Connection, Vec<SegmentOut>, Vec<SegmentOut>, Time) {
    handshake_with(TcpConfig::default(), TcpConfig::default())
}

/// Delivers a hand-crafted segment from B to the client over real
/// serialisation.
fn deliver_from_b(client: &mut Connection, seg: &SegmentOut, now: Time) -> Output {
    let wire = PktBuf::from_vec(build_segment(B, 2000, A, 1000, seg));
    let parsed = TcpSegment::parse(B, A, &wire).expect("valid segment");
    client.on_segment(&parsed, now)
}

#[test]
fn zero_window_persist_probes_with_backoff_until_reopen() {
    let (mut client, _server, _c_out, _s_out, mut now) = handshake();
    // Peer advertises a zero window (pure window update: no data, no
    // sequence advance).
    let out = deliver_from_b(
        &mut client,
        &SegmentOut {
            seq: 9001,
            ack: 101,
            flags: Flags::ACK,
            window: 0,
            mss: None,
            wscale: None,
            payload: PktBuf::empty(),
        },
        now,
    );
    assert!(out.segments.is_empty());

    // Data queues but cannot be sent; the persist timer arms instead.
    let queued = 5000usize;
    let out = client.app_send(vec![0xAB; queued], now);
    assert!(out.segments.is_empty(), "zero window must block transmission");
    let mut deadline = client.next_deadline().expect("persist timer armed");
    let mut last_interval = deadline.since(now);

    // Probes carry exactly one byte each and back off exponentially,
    // capped at rto_max.
    let probes = 8u64;
    for i in 0..probes {
        now = deadline;
        let out = client.poll(now).output;
        assert_eq!(out.segments.len(), 1, "probe {i}");
        assert_eq!(out.segments[0].payload.len(), 1, "one byte per probe");
        assert_eq!(client.stats().persist_probes, i + 1);
        deadline = client.next_deadline().expect("persist re-armed");
        let interval = deadline.since(now);
        assert!(interval >= last_interval, "backoff never shrinks");
        assert!(interval <= TcpConfig::default().rto_max, "backoff capped");
        if i > 0 && last_interval < TcpConfig::default().rto_max {
            assert!(interval > last_interval, "backoff grows until the cap");
        }
        last_interval = interval;
        // The peer acks each probe at snd_una with the window still
        // closed; that must not look like dup-ack loss signals.
        let out = deliver_from_b(
            &mut client,
            &SegmentOut {
                seq: 9001,
                ack: 101,
                flags: Flags::ACK,
                window: 0,
                mss: None,
                wscale: None,
                payload: PktBuf::empty(),
            },
            now,
        );
        assert!(out.segments.is_empty());
    }
    assert_eq!(client.stats().fast_retransmits, 0, "probe acks are not loss");

    // The receiver frees its buffer: window reopens, covering the
    // probe bytes it absorbed. The persist timer cancels and the
    // blocked data flows immediately.
    let out = deliver_from_b(
        &mut client,
        &SegmentOut {
            seq: 9001,
            ack: 101 + probes as u32,
            flags: Flags::ACK,
            window: u16::MAX,
            mss: None,
            wscale: None,
            payload: PktBuf::empty(),
        },
        now,
    );
    let sent: usize = out.segments.iter().map(|s| s.payload.len()).sum();
    assert!(sent > 0, "reopen releases blocked data");
    let in_flight_cap = client.cwnd();
    assert!(sent <= in_flight_cap, "still congestion-controlled");
    let expected = (queued - probes as usize).min(in_flight_cap);
    assert_eq!(sent, expected, "everything the windows allow goes out");
    assert_eq!(
        client.stats().persist_probes,
        probes,
        "no further probes after reopen"
    );
}

fn collect_data(events: &[Event]) -> Vec<u8> {
    let mut data = Vec::new();
    for e in events {
        if let Event::Data(d) = e {
            data.extend_from_slice(d);
        }
    }
    data
}

#[test]
fn three_way_handshake_establishes_both_sides() {
    handshake();
}

#[test]
fn options_are_negotiated() {
    let (client, server, ..) = handshake();
    assert_eq!(client.effective_mss(), 1460);
    assert_eq!(server.effective_mss(), 1460);
    assert!(client.ws_enabled() && server.ws_enabled(), "window scaling on");
}

#[test]
fn bulk_transfer_delivers_in_order() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let data: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
    c_out.extend(client.app_send(&data, now).segments);
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert_eq!(collect_data(&ev_s), data);
    assert!(client.stats().rto_retransmits == 0, "clean path, no RTOs");
}

#[test]
fn bulk_transfer_under_cubic_delivers_in_order() {
    // Same transfer with both ends on CUBIC via the builder: the pluggable
    // seam must not disturb reliable delivery.
    let cfg = TcpConfig::builder()
        .congestion(Cubic::default())
        .build()
        .unwrap();
    let (mut client, mut server, mut c_out, mut s_out, mut now) =
        handshake_with(cfg.clone(), cfg);
    let data: Vec<u8> = (0..100_000u32).map(|i| (i * 3) as u8).collect();
    c_out.extend(client.app_send(&data, now).segments);
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |i, a2b| {
        !(a2b && i % 17 == 0) // some loss so CUBIC's recovery path runs
    });
    assert_eq!(collect_data(&ev_s), data);
    assert!(client.stats().cwnd > 0, "cwnd gauge is sampled into stats");
}

#[test]
fn bidirectional_transfer() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    c_out.extend(client.app_send(b"request", now).segments);
    s_out.extend(server.app_send(b"response", now).segments);
    let (ev_c, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert_eq!(collect_data(&ev_s), b"request");
    assert_eq!(collect_data(&ev_c), b"response");
}

#[test]
fn packet_loss_recovered_by_retransmission() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let data: Vec<u8> = (0..50_000u32).map(|i| (i * 7) as u8).collect();
    c_out.extend(client.app_send(&data, now).segments);
    // Drop every 9th a->b segment.
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |i, a2b| {
        !(a2b && i % 9 == 0)
    });
    assert_eq!(collect_data(&ev_s), data);
    let st = client.stats();
    assert!(
        st.fast_retransmits + st.rto_retransmits > 0,
        "losses forced retransmissions: {st:?}"
    );
}

#[test]
fn triple_dup_ack_triggers_fast_retransmit_not_rto() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let data = vec![0xAAu8; 20 * 1460];
    c_out.extend(client.app_send(&data, now).segments);
    // Drop exactly the first data segment a->b; plenty of dupacks follow.
    let mut dropped = false;
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, a2b| {
        if a2b && !dropped {
            dropped = true;
            return false;
        }
        true
    });
    assert_eq!(collect_data(&ev_s).len(), data.len());
    assert!(client.stats().fast_retransmits >= 1, "fast retransmit used");
}

#[test]
fn graceful_close_reaches_closed_on_both_ends() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    c_out.extend(client.app_close(now).segments);
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(ev_s.contains(&Event::PeerFin));
    assert_eq!(server.state(), State::CloseWait);
    s_out.extend(server.app_close(now).segments);
    let (ev_c, ev_s2) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(ev_s2.contains(&Event::Closed));
    assert!(ev_c.contains(&Event::PeerFin));
    // Client sits in TIME_WAIT until 2MSL expires.
    assert_eq!(client.state(), State::TimeWait);
    now += Dur::secs(3);
    let out = client.poll(now).output;
    assert!(out.events.contains(&Event::Closed));
    assert_eq!(client.state(), State::Closed);
}

#[test]
fn simultaneous_close_passes_through_closing() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    c_out.extend(client.app_close(now).segments);
    s_out.extend(server.app_close(now).segments);
    pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    for conn in [&mut client, &mut server] {
        assert!(
            matches!(conn.state(), State::TimeWait | State::Closed),
            "simultaneous close converges, got {:?}",
            conn.state()
        );
    }
}

#[test]
fn rst_tears_down_immediately() {
    let (mut client, _server, ..) = handshake();
    let mut rst = TcpSegment {
        src_port: 2000,
        dst_port: 1000,
        seq: 0,
        ack: 0,
        flags: Flags {
            rst: true,
            ..Flags::default()
        },
        window: 0,
        mss: None,
        wscale: None,
        payload: PktBuf::empty(),
    };
    // A blind RST with an out-of-window sequence number is dropped.
    let out = client.on_segment(&rst, Time::ZERO + Dur::secs(1));
    assert!(out.events.is_empty());
    assert_eq!(client.state(), State::Established);
    assert_eq!(client.stats().injections_dropped, 1);
    // Landing exactly on rcv_nxt tears the connection down.
    rst.seq = 9001;
    let out = client.on_segment(&rst, Time::ZERO + Dur::secs(1));
    assert!(out.events.contains(&Event::Reset));
    assert_eq!(client.state(), State::Closed);
}

#[test]
fn syn_retries_then_gives_up() {
    let mut now = Time::ZERO;
    let cfg = TcpConfig::builder().syn_retries(2).build().unwrap();
    let (mut client, out) = Connection::connect(cfg, 1, now);
    assert_eq!(out.segments.len(), 1);
    let mut resets = 0;
    for _ in 0..5 {
        let Some(d) = client.next_deadline() else { break };
        now = d;
        let out = client.poll(now).output;
        resets += out.events.iter().filter(|e| **e == Event::Reset).count();
    }
    assert_eq!(resets, 1, "gave up exactly once");
    assert_eq!(client.state(), State::Closed);
}

#[test]
fn cwnd_grows_in_slow_start_and_halves_on_loss() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let before = client.cwnd();
    let data = vec![1u8; 40 * 1460];
    c_out.extend(client.app_send(&data, now).segments);
    pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(client.cwnd() > before, "slow start grew the window");

    // Now force an RTO and observe multiplicative decrease.
    let data2 = vec![2u8; 5 * 1460];
    let segs = client.app_send(&data2, now).segments;
    assert!(!segs.is_empty());
    let deadline = client.next_deadline().expect("rtx armed");
    let out = client.poll(deadline).output;
    assert!(!out.segments.is_empty(), "RTO retransmission");
    assert_eq!(client.cwnd(), client.effective_mss(), "cwnd collapsed to 1 MSS");
}

#[test]
fn window_scaling_disabled_still_interoperates() {
    // A peer without RFC 7323 support: our side must fall back to
    // unscaled windows and still move data.
    let mut now = Time::ZERO;
    let no_ws = TcpConfig::builder().window_scale(0).build().unwrap();
    let (mut client, out) = Connection::connect(no_ws, 100, now);
    let mut server = Connection::listen(TcpConfig::default(), 9000);
    let mut c_out = out.segments;
    let mut s_out = Vec::new();
    pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert!(!client.ws_enabled(), "client never offered scaling");
    assert!(!server.ws_enabled(), "server disabled scaling in response");
    let data: Vec<u8> = (0..40_000u32).map(|i| i as u8).collect();
    c_out.extend(client.app_send(&data, now).segments);
    let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert_eq!(collect_data(&ev_s), data);
}

#[test]
fn duplicate_segments_do_not_duplicate_data() {
    let (mut client, mut server, mut c_out, mut s_out, mut now) = handshake();
    let out = client.app_send(b"exactly-once", now);
    let seg = &out.segments[0];
    let wire = PktBuf::from_vec(build_segment(A, 1000, B, 2000, seg));
    let parsed = TcpSegment::parse(A, B, &wire).unwrap();
    let mut events = Vec::new();
    // Deliver the same segment three times (a duplicating network).
    for _ in 0..3 {
        let o = server.on_segment(&parsed, now);
        events.extend(o.events);
        s_out.extend(o.segments);
    }
    assert_eq!(collect_data(&events), b"exactly-once");
    // Drain the ACKs so both sides settle.
    c_out.clear();
    pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |_, _| true);
    assert_eq!(server.stats().bytes_in, 12);
}

#[test]
fn out_of_order_segments_reassemble() {
    let (mut client, mut server, mut _c_out, mut s_out, now) = handshake();
    // Client produces two segments; deliver the second first.
    let out = client.app_send(vec![b'x'; 1460], now);
    let out2 = client.app_send(&[b'y'; 100], now);
    let first = &out.segments[0];
    let second = &out2.segments[0];
    let w1 = PktBuf::from_vec(build_segment(A, 1000, B, 2000, first));
    let w2 = PktBuf::from_vec(build_segment(A, 1000, B, 2000, second));
    let p1 = TcpSegment::parse(A, B, &w1).unwrap();
    let p2 = TcpSegment::parse(A, B, &w2).unwrap();

    let o = server.on_segment(&p2, now);
    assert!(
        o.events.iter().all(|e| !matches!(e, Event::Data(_))),
        "out-of-order data is held back"
    );
    assert!(!o.segments.is_empty(), "and a duplicate ACK is emitted");
    let o = server.on_segment(&p1, now);
    let data = collect_data(&o.events);
    assert_eq!(data.len(), 1560, "hole filled: both segments delivered");
    assert!(data[..1460].iter().all(|b| *b == b'x'));
    assert!(data[1460..].iter().all(|b| *b == b'y'));
    drop(s_out.drain(..));
}

mirage_testkit::property! {
    /// Sequence-space comparisons behave like signed distance.
    fn prop_seq_order_is_antisymmetric(a in any::<u32>(), delta in 1u32..0x7FFF_FFFF) {
        let b = a.wrapping_add(delta);
        assert!(seq::lt(a, b));
        assert!(seq::gt(b, a));
        assert!(!seq::lt(b, a));
        assert!(seq::le(a, a) && seq::ge(a, a));
    }

    /// Under random loss in both directions, the stream still arrives
    /// complete and in order (retransmission is sound) — for both
    /// congestion-control algorithms behind the pluggable seam.
    fn prop_lossy_link_preserves_stream(
        drop_mask in any::<u64>(),
        len in 1usize..30_000,
        use_cubic in any::<bool>(),
    ) {
        let cfg = if use_cubic {
            TcpConfig::builder().congestion(CongAlg::Cubic).build().unwrap()
        } else {
            TcpConfig::default()
        };
        let (mut client, mut server, mut c_out, mut s_out, mut now) =
            handshake_with(cfg.clone(), cfg);
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        c_out.extend(client.app_send(&data, now).segments);
        let (_, ev_s) = pump(&mut client, &mut server, &mut c_out, &mut s_out, &mut now, |i, _| {
            // Drop per the mask bits, but never starve forever.
            (drop_mask >> (i % 64)) & 1 == 0 || i > 200
        });
        assert_eq!(collect_data(&ev_s), data);
    }

    /// Out-of-order reassembly under `PktBuf` views: any shuffled set of
    /// segments tiling the stream — plus redundant overlapping segments —
    /// reassembles to exactly the original bytes, delivered once each.
    fn prop_ooo_reassembly_under_views(
        len in 200usize..6000,
        cuts in collection::vec(any::<usize>(), 1..12),
        extras in collection::vec((any::<usize>(), any::<usize>()), 0..8),
        shuffle in collection::vec(any::<usize>(), 4..32),
    ) {
        // handshake(): client iss 100, server iss 9000 — so the first
        // data byte towards the server is seq 101, acking 9001.
        let (_client, mut server, _c_out, _s_out, now) = handshake();
        let data: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
        // Tile [0, len) at pseudo-random cut points.
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
        points.push(0);
        points.push(len);
        points.sort_unstable();
        points.dedup();
        let mut ranges: Vec<(usize, usize)> =
            points.windows(2).map(|w| (w[0], w[1])).collect();
        // Redundant overlapping ranges on top of the tiling.
        for (a, b) in extras {
            let s = a % len;
            ranges.push((s, (s + 1 + b % 1460).min(len)));
        }
        // Split every range at the MSS, then shuffle deterministically.
        let mut segs = Vec::new();
        for (s, e) in ranges {
            let mut s = s;
            while s < e {
                let seg_end = (s + 1460).min(e);
                segs.push((s, seg_end));
                s = seg_end;
            }
        }
        for i in (1..segs.len()).rev() {
            segs.swap(i, shuffle[i % shuffle.len()] % (i + 1));
        }
        let mut events = Vec::new();
        for (s, e) in segs {
            let out = SegmentOut {
                seq: 101u32.wrapping_add(s as u32),
                ack: 9001,
                flags: Flags::ACK,
                window: 0xFFFF,
                mss: None,
                wscale: None,
                payload: PktBuf::from_vec(data[s..e].to_vec()),
            };
            let wire = PktBuf::from_vec(build_segment(A, 1000, B, 2000, &out));
            let parsed = TcpSegment::parse(A, B, &wire).unwrap();
            events.extend(server.on_segment(&parsed, now).events);
        }
        assert_eq!(collect_data(&events), data);
    }
}
