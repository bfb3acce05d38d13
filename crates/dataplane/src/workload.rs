//! Workload generation: well-formed packets, flow mixes, the
//! adversarial packets derived from verifier counterexamples, and
//! seeded config-update streams.

use crate::headers::*;
use crate::{Pipeline, TableConfig, TableContents, TableDelta, TableOp};
use dpir::PacketData;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Builder for Ethernet+IPv4(+TCP/UDP) test packets.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src: u32,
    dst: u32,
    ttl: u8,
    proto: u8,
    sport: u16,
    dport: u16,
    options: Vec<u8>,
    payload: Vec<u8>,
    ethertype: u16,
    broadcast: bool,
}

impl PacketBuilder {
    /// A UDP packet skeleton.
    pub fn ipv4_udp() -> Self {
        PacketBuilder {
            src: 0x0A000001,
            dst: 0x0A000002,
            ttl: 64,
            proto: PROTO_UDP,
            sport: 5000,
            dport: 5001,
            options: Vec::new(),
            payload: vec![0; 16],
            ethertype: ETHERTYPE_IPV4,
            broadcast: false,
        }
    }

    /// A TCP packet skeleton.
    pub fn ipv4_tcp() -> Self {
        PacketBuilder {
            proto: PROTO_TCP,
            ..Self::ipv4_udp()
        }
    }

    /// Sets the source address.
    pub fn src(mut self, a: u32) -> Self {
        self.src = a;
        self
    }
    /// Sets the destination address.
    pub fn dst(mut self, a: u32) -> Self {
        self.dst = a;
        self
    }
    /// Sets the TTL.
    pub fn ttl(mut self, t: u8) -> Self {
        self.ttl = t;
        self
    }
    /// Sets the L4 source port.
    pub fn sport(mut self, p: u16) -> Self {
        self.sport = p;
        self
    }
    /// Sets the L4 destination port.
    pub fn dport(mut self, p: u16) -> Self {
        self.dport = p;
        self
    }
    /// Appends raw IP option bytes (padded to a 4-byte multiple).
    pub fn options(mut self, opts: &[u8]) -> Self {
        self.options = opts.to_vec();
        while !self.options.len().is_multiple_of(4) {
            self.options.push(IPOPT_EOL);
        }
        self
    }
    /// Sets the payload length (zero bytes).
    pub fn payload_len(mut self, n: usize) -> Self {
        self.payload = vec![0; n];
        self
    }
    /// Uses a non-IPv4 EtherType (for classifier tests).
    pub fn ethertype(mut self, t: u16) -> Self {
        self.ethertype = t;
        self
    }
    /// Uses the broadcast destination MAC.
    pub fn broadcast(mut self) -> Self {
        self.broadcast = true;
        self
    }

    /// Assembles the packet with a correct IPv4 header checksum.
    pub fn build(self) -> PacketData {
        let ihl = 5 + self.options.len() / 4;
        let ip_len = ihl * 4 + 8 /* L4 stub */ + self.payload.len();
        let mut bytes = Vec::with_capacity(ETH_LEN + ip_len);
        // Ethernet.
        if self.broadcast {
            bytes.extend_from_slice(&[0xFF; 6]);
        } else {
            bytes.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01]);
        }
        bytes.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x02]);
        bytes.extend_from_slice(&self.ethertype.to_be_bytes());
        // IPv4.
        bytes.push(0x40 | ihl as u8);
        bytes.push(0);
        bytes.extend_from_slice(&(ip_len as u16).to_be_bytes());
        bytes.extend_from_slice(&[0x00, 0x01]); // id
        bytes.extend_from_slice(&[0x00, 0x00]); // flags/frag
        bytes.push(self.ttl);
        bytes.push(self.proto);
        bytes.extend_from_slice(&[0, 0]); // checksum (fixed below)
        bytes.extend_from_slice(&self.src.to_be_bytes());
        bytes.extend_from_slice(&self.dst.to_be_bytes());
        bytes.extend_from_slice(&self.options);
        // L4 stub: ports + 4 bytes (covers both UDP header and the
        // first half of TCP's).
        bytes.extend_from_slice(&self.sport.to_be_bytes());
        bytes.extend_from_slice(&self.dport.to_be_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        bytes.extend_from_slice(&self.payload);
        let mut pkt = PacketData::new(bytes);
        set_ipv4_checksum(&mut pkt);
        pkt
    }
}

/// A reproducible stream of well-formed packets drawn from `flows`
/// distinct 5-tuples — the "well-formed workload" of §5.3 that recent
/// research used to show multi-Gbps rates.
#[derive(Debug)]
pub struct FlowMix {
    rng: StdRng,
    flows: Vec<(u32, u32, u16, u16, u8)>,
}

impl FlowMix {
    /// Creates a mix of `flows` random flows from a seed.
    pub fn new(seed: u64, flows: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let flows = (0..flows)
            .map(|_| {
                (
                    rng.gen::<u32>(),
                    rng.gen::<u32>(),
                    rng.gen_range(1024..u16::MAX),
                    rng.gen_range(1..1024),
                    if rng.gen_bool(0.5) {
                        PROTO_TCP
                    } else {
                        PROTO_UDP
                    },
                )
            })
            .collect();
        FlowMix { rng, flows }
    }

    /// The next packet in the stream.
    pub fn next_packet(&mut self) -> PacketData {
        let &(src, dst, sp, dp, proto) = self
            .flows
            .get(self.rng.gen_range(0..self.flows.len()))
            .expect("non-empty");
        let mut b = PacketBuilder::ipv4_udp()
            .src(src)
            .dst(dst)
            .sport(sp)
            .dport(dp)
            .payload_len(self.rng.gen_range(0..64));
        b.proto = proto;
        b.build()
    }
}

/// Builds a packet directly from raw bytes plus a length — the shape in
/// which verifier counterexamples arrive ("a specific packet and
/// specific state that causes this instruction to be executed").
pub fn packet_from_bytes(bytes: Vec<u8>) -> PacketData {
    PacketData::new(bytes)
}

/// The §5.3 adversarial workloads: packets that exercise a pipeline's
/// exception paths.
pub mod adversarial {
    use super::*;

    /// A packet with `n` single-byte NOP options followed by EOL.
    pub fn with_nop_options(n: usize) -> PacketData {
        let mut opts = vec![IPOPT_NOP; n];
        opts.push(IPOPT_EOL);
        PacketBuilder::ipv4_udp().options(&opts).build()
    }

    /// The zero-length-option packet of bug #2: an option whose length
    /// byte is zero, freezing any option walker that trusts it.
    pub fn zero_length_option() -> PacketData {
        // Type 7 (Record Route) with length 0: malformed on purpose.
        PacketBuilder::ipv4_udp()
            .options(&[IPOPT_RR, 0, 0, 0])
            .build()
    }

    /// The LSRR packet of the firewall-bypass case study: loose source
    /// routing with one hop (the blacklisted source survives in the
    /// option's route data).
    pub fn lsrr(next_hop: u32) -> PacketData {
        let h = next_hop.to_be_bytes();
        // type, len=7 (3 header bytes + one 4-byte address), ptr=4
        PacketBuilder::ipv4_udp()
            .options(&[IPOPT_LSRR, 7, 4, h[0], h[1], h[2], h[3], IPOPT_EOL])
            .build()
    }

    /// The NAT hairpin packet of bug #3: source tuple == destination
    /// tuple == the NAT's public address/port.
    pub fn nat_hairpin(public_ip: u32, public_port: u16) -> PacketData {
        PacketBuilder::ipv4_tcp()
            .src(public_ip)
            .dst(public_ip)
            .sport(public_port)
            .dport(public_port)
            .build()
    }
}

/// A seedable stream of valid [`TableDelta`]s over `pipeline`'s static
/// tables — the input half of the churn differential harness
/// (`crates/bench/tests/churn.rs`) and of step 2's counterexample
/// differential over a stream (`crates/core/src/step2.rs`).
///
/// The generator tracks a shadow copy of every table so the stream
/// looks like control-plane churn rather than noise: most updates are
/// single-entry inserts or removes of *existing* entries, a few
/// overwrite an entry's value, some are deliberate no-ops (overwrite
/// with the same value, remove an absent key) and an occasional update
/// replaces a whole table. Generation is a pure function of
/// `(seed, pipeline tables, n)`, so two processes — or two reuse
/// levels in one process — always apply the same stream.
///
/// Tables are addressed the way [`TableDelta::apply`] resolves them:
/// by element name, so repeated elements (e.g. every `IPlookup`
/// instance sharing one FIB) receive each update together and their
/// shadows stay in lock-step. Panics if `pipeline` has no static
/// tables.
pub fn delta_stream(seed: u64, pipeline: &Pipeline, n: usize) -> Vec<TableDelta> {
    let mut r = StdRng::seed_from_u64(seed ^ 0x00d1_f7a5_u64);
    // One shadow per (element name, map): the state the stream evolves.
    let mut tables: Vec<(String, dpir::MapId, TableConfig)> = Vec::new();
    for stage in &pipeline.stages {
        for (map, cfg) in &stage.element.tables {
            if !tables
                .iter()
                .any(|(name, m, _)| *name == stage.element.name && m == map)
            {
                tables.push((stage.element.name.clone(), *map, cfg.clone()));
            }
        }
    }
    assert!(
        !tables.is_empty(),
        "delta_stream needs a pipeline with static tables"
    );
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t = (r.next_u64() as usize) % tables.len();
        let (name, map, shadow) = &mut tables[t];
        let op = match shadow.contents() {
            TableContents::Exact(_) => exact_op(&mut r, shadow),
            TableContents::Lpm(_) => lpm_op(&mut r, shadow),
        };
        let delta = TableDelta::new(name.clone(), *map, op);
        // Keep the shadow current so later removes target live entries.
        apply_shadow(&delta, shadow);
        out.push(delta);
    }
    out
}

fn apply_shadow(delta: &TableDelta, shadow: &mut TableConfig) {
    match &delta.op {
        TableOp::ExactInsert(es) => {
            for &(k, v) in es {
                shadow.insert_exact(k, v).expect("shadow kind matches");
            }
        }
        TableOp::ExactRemove(ks) => {
            for &k in ks {
                shadow.remove_exact(k).expect("shadow kind matches");
            }
        }
        TableOp::LpmInsert(rs) => {
            for &(p, l, v) in rs {
                shadow.insert_lpm(p, l, v).expect("shadow kind matches");
            }
        }
        TableOp::LpmRemove(rs) => {
            for &(p, l) in rs {
                shadow.remove_lpm(p, l).expect("shadow kind matches");
            }
        }
        TableOp::Replace(new) => {
            shadow.replace(new.clone());
        }
    }
}

/// One churn step against an exact-match shadow.
fn exact_op(r: &mut StdRng, shadow: &TableConfig) -> TableOp {
    let entries: Vec<(u64, u64)> = match shadow.contents() {
        TableContents::Exact(es) => es.clone(),
        TableContents::Lpm(_) => unreachable!("caller matched Exact"),
    };
    let pick = |r: &mut StdRng| entries[(r.next_u64() as usize) % entries.len()];
    match r.next_u64() % 10 {
        // Insert a fresh key (dominant churn mode).
        0..=3 => TableOp::ExactInsert(vec![(r.next_u64() % 4096, r.next_u64() % 16)]),
        // Remove an existing entry.
        4..=6 if !entries.is_empty() => TableOp::ExactRemove(vec![pick(r).0]),
        // Overwrite an existing entry's value.
        7 if !entries.is_empty() => {
            let (k, v) = pick(r);
            TableOp::ExactInsert(vec![(k, v ^ 1)])
        }
        // Deliberate no-ops: same-value overwrite / absent-key remove.
        8 if !entries.is_empty() => TableOp::ExactInsert(vec![pick(r)]),
        8 => TableOp::ExactRemove(vec![r.next_u64()]),
        // Whole-table replace with a perturbed copy.
        9 => {
            let mut new: Vec<(u64, u64)> = entries;
            new.push((r.next_u64() % 4096, r.next_u64() % 16));
            if new.len() > 1 {
                let i = (r.next_u64() as usize) % new.len();
                new.swap_remove(i);
            }
            TableOp::Replace(TableConfig::exact(new))
        }
        _ => TableOp::ExactInsert(vec![(r.next_u64() % 4096, r.next_u64() % 16)]),
    }
}

/// One churn step against an LPM shadow. Prefixes stay in a small pool
/// so removes and overwrites hit live routes often.
fn lpm_op(r: &mut StdRng, shadow: &TableConfig) -> TableOp {
    let routes: Vec<(u32, u32, u32)> = match shadow.contents() {
        TableContents::Lpm(rs) => rs.clone(),
        TableContents::Exact(_) => unreachable!("caller matched Lpm"),
    };
    let pick = |r: &mut StdRng| routes[(r.next_u64() as usize) % routes.len()];
    let fresh = |r: &mut StdRng| {
        (
            (10 + r.next_u64() % 64) as u32,
            (8 + 8 * (r.next_u64() % 3)) as u32,
            (r.next_u64() % 4) as u32,
        )
    };
    match r.next_u64() % 10 {
        0..=3 => TableOp::LpmInsert(vec![fresh(r)]),
        4..=6 if !routes.is_empty() => {
            let (p, l, _) = pick(r);
            TableOp::LpmRemove(vec![(p, l)])
        }
        // Overwrite an existing route's next hop.
        7 if !routes.is_empty() => {
            let (p, l, v) = pick(r);
            TableOp::LpmInsert(vec![(p, l, (v + 1) % 4)])
        }
        // Deliberate no-ops.
        8 if !routes.is_empty() => TableOp::LpmInsert(vec![pick(r)]),
        8 => TableOp::LpmRemove(vec![(200 + (r.next_u64() % 32) as u32, 16)]),
        9 => {
            let mut new = routes;
            new.push(fresh(r));
            if new.len() > 1 {
                let i = (r.next_u64() as usize) % new.len();
                new.swap_remove(i);
            }
            TableOp::Replace(TableConfig::lpm(new))
        }
        _ => TableOp::LpmInsert(vec![fresh(r)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_lengths() {
        let pkt = PacketBuilder::ipv4_udp().payload_len(10).build();
        let totlen = pkt.read_be(IP_TOTLEN, 2).unwrap() as usize;
        assert_eq!(totlen + ETH_LEN, pkt.len());
        assert_eq!(ip_ihl(&pkt), 5);
    }

    #[test]
    fn options_extend_ihl() {
        let pkt = adversarial::with_nop_options(3);
        assert_eq!(ip_ihl(&pkt), 6); // 5 + 4/4
        assert_eq!(pkt.bytes[IP_OPTS], IPOPT_NOP);
    }

    #[test]
    fn flow_mix_is_reproducible() {
        let mut a = FlowMix::new(7, 10);
        let mut b = FlowMix::new(7, 10);
        for _ in 0..20 {
            assert_eq!(a.next_packet().bytes, b.next_packet().bytes);
        }
    }

    #[test]
    fn lsrr_packet_layout() {
        let pkt = adversarial::lsrr(0x01020304);
        assert_eq!(pkt.bytes[IP_OPTS], IPOPT_LSRR);
        assert_eq!(pkt.bytes[IP_OPTS + 1], 7);
        assert_eq!(pkt.bytes[IP_OPTS + 2], 4);
        assert_eq!(pkt.read_be(IP_OPTS + 3, 4).unwrap(), 0x01020304);
    }

    #[test]
    fn hairpin_packet_tuple_collision() {
        let pkt = adversarial::nat_hairpin(0xC0A80001, 9999);
        assert_eq!(ip_src(&pkt), ip_dst(&pkt));
        assert_eq!(l4_src_port(&pkt), 9999);
        assert_eq!(l4_dst_port(&pkt), 9999);
    }
}
