//! The four workloads, built only through the simulator's public builders,
//! and the deterministic outputs read back out of a finished run.
//!
//! Each workload stresses a different layer (see `perfbench/README.md`):
//! `ping-central` the fabric and the centralized EPC user plane,
//! `ping-dlte` the X2 full mesh, `handover-storm` the control plane
//! (NAS/EPS-AKA, path switch, X2 context fetch, faults) and `cbr-sharded`
//! the sharded runtime and set-up.

use dlte::ap::DlteApNode;
use dlte::mobility::{cell_index_for, MovementModel};
use dlte::scenario::{DlteNetworkBuilder, DltePlan, KeyDistribution};
use dlte_epc::topology::{CentralizedLteBuilder, UePlan};
use dlte_epc::ue::{MobilityMode, UeApp, UeNode};
use dlte_faults::{FaultPlan, FaultSpec, MovePlan};
use dlte_net::{Addr, LinkId, NodeId, ShardedSim};
use dlte_sim::stats::Samples;
use dlte_sim::{SimDuration, SimTime};
use dlte_x2::CoordinationMode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PingCentral,
    PingDlte,
    HandoverStorm,
    CbrSharded,
}

/// Topology size: the benchmark's own, or the reduced one the smoke tests
/// use to exercise every code path in well under a second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PingCentral,
        Workload::PingDlte,
        Workload::HandoverStorm,
        Workload::CbrSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingCentral => "ping-central",
            Workload::PingDlte => "ping-dlte",
            Workload::HandoverStorm => "handover-storm",
            Workload::CbrSharded => "cbr-sharded",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Simulated seconds each arm runs. Sized so one repetition (set-up plus
    /// run) takes one to four host seconds on a 2-core x86-64 box.
    pub fn horizon_s(self, size: Size) -> f64 {
        match (self, size) {
            (Workload::PingCentral, Size::Full) => 10.0,
            (Workload::PingDlte, Size::Full) => 4.0,
            (Workload::HandoverStorm, Size::Full) => 16.0,
            (Workload::CbrSharded, Size::Full) => 6.0,
            (Workload::HandoverStorm, Size::Smoke) => 8.0,
            (_, Size::Smoke) => 2.0,
        }
    }

    /// Engine shards of the end-to-end runs. Only `cbr-sharded` goes
    /// through the multi-shard runtime.
    pub fn shards(self) -> usize {
        match self {
            Workload::CbrSharded => 2,
            _ => 1,
        }
    }
}

/// One runnable simulation of a workload (`handover-storm` has two).
pub struct Arm {
    pub label: &'static str,
    pub sim: ShardedSim,
    pub ues: Vec<NodeId>,
    /// dLTE access points (empty on the centralized arms).
    pub aps: Vec<NodeId>,
    /// Cells (eNBs or APs): the X2 peer count the share probe is sized by.
    pub cells: usize,
    /// IMSIs of the UEs running constant-bit-rate uplinks; their packets
    /// are counted delivered from the fabric trace's per-flow tallies.
    pub cbr_imsis: BTreeSet<u64>,
    pub horizon: SimTime,
}

fn pinger(dst: Addr, interval_ms: u64, probe_bytes: u32) -> UeApp {
    UeApp::Pinger {
        dst,
        interval: SimDuration::from_millis(interval_ms),
        probe_bytes,
    }
}

/// (cells, UEs per cell) of the two ping workloads: E15's shape at 2,000
/// nodes.
fn ping_shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (200, 9),
        Size::Smoke => (10, 4),
    }
}

/// Build the workload's arms: everything from builder construction to a
/// runnable simulation. This is what `setup_s` times.
pub fn build(w: Workload, seed: u64, shards: usize, size: Size) -> Vec<Arm> {
    let horizon = SimTime::from_secs_f64(w.horizon_s(size));
    match w {
        Workload::PingCentral => {
            let (cells, per_cell) = ping_shape(size);
            let mut b = CentralizedLteBuilder::new(cells, per_cell);
            b.seed = seed;
            let net = b
                .with_ue_plan(|_| UePlan {
                    app: pinger(CentralizedLteBuilder::ott_addr(), 200, 200),
                    ..Default::default()
                })
                .build();
            vec![Arm {
                label: "centralized",
                sim: ShardedSim::single(net.sim),
                ues: net.ues,
                aps: Vec::new(),
                cells,
                cbr_imsis: BTreeSet::new(),
                horizon,
            }]
        }
        Workload::PingDlte => {
            let (aps, per_ap) = ping_shape(size);
            let mut b = DlteNetworkBuilder::new(aps, per_ap);
            b.seed = seed;
            let net = b
                .with_ue_plan(|_| DltePlan {
                    app: pinger(DlteNetworkBuilder::ott_addr(), 200, 200),
                    ..Default::default()
                })
                .build_sharded(shards);
            vec![Arm {
                label: "dlte",
                sim: net.sim,
                ues: net.ues,
                cells: net.aps.len(),
                aps: net.aps,
                cbr_imsis: BTreeSet::new(),
                horizon,
            }]
        }
        Workload::HandoverStorm => {
            let (n_aps, per_ap) = match size {
                Size::Full => (20, 20),
                Size::Smoke => (4, 2),
            };
            let plan = storm_plan(seed, n_aps, per_ap, w.horizon_s(size));
            vec![
                storm_centralized(seed, n_aps, per_ap, plan.clone(), horizon),
                storm_dlte(seed, n_aps, per_ap, plan, shards, horizon),
            ]
        }
        Workload::CbrSharded => {
            let (n_aps, per_ap) = match size {
                Size::Full => (500, 10),
                Size::Smoke => (12, 4),
            };
            vec![cbr_sharded(seed, n_aps, per_ap, shards, horizon)]
        }
    }
}

/// E18's waypoint churn with a 0.7–1.3 s dwell, confined to
/// `[2, horizon - 3)` so the last moves drain before the snapshot.
fn storm_plan(seed: u64, n_aps: usize, per_ap: usize, horizon_s: f64) -> MovePlan {
    MovementModel::Waypoint {
        dwell_min_s: 0.7,
        dwell_max_s: 1.3,
    }
    .plan(seed, n_aps * per_ap, n_aps, 2.0, horizon_s - 3.0)
}

/// E18's fixed backhaul chaos: a flap and a loss burst on two backhauls.
fn storm_chaos(seed: u64, backhauls: &[LinkId]) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultSpec::LinkFlap {
            link: backhauls[0],
            at_s: 6.0,
            down_s: 1.2,
            times: 1,
            gap_s: 0.0,
        })
        .with(FaultSpec::LossBurst {
            link: backhauls[1 % backhauls.len()],
            at_s: 8.0,
            for_s: 1.5,
            loss: 0.3,
        })
}

fn storm_centralized(
    seed: u64,
    n_aps: usize,
    per_ap: usize,
    plan: MovePlan,
    horizon: SimTime,
) -> Arm {
    let mut b = CentralizedLteBuilder::new(n_aps, per_ap);
    b.wire_all_cells = true;
    b.seed = seed;
    let net = b
        .with_ue_plan(move |i| {
            let home = i / per_ap;
            UePlan {
                app: pinger(CentralizedLteBuilder::ott_addr(), 25, 100),
                mode: MobilityMode::PathSwitch,
                schedule: plan
                    .schedule_for(i)
                    .into_iter()
                    .filter(|&(_, ap)| ap < n_aps)
                    .map(|(t, ap)| (t, cell_index_for(home, ap, n_aps)))
                    .collect(),
            }
        })
        .build();
    let mut sim = ShardedSim::single(net.sim);
    storm_chaos(seed, &net.enb_backhaul).inject_sharded(&mut sim);
    Arm {
        label: "centralized-path-switch",
        sim,
        ues: net.ues,
        aps: Vec::new(),
        cells: n_aps,
        cbr_imsis: BTreeSet::new(),
        horizon,
    }
}

fn storm_dlte(
    seed: u64,
    n_aps: usize,
    per_ap: usize,
    plan: MovePlan,
    shards: usize,
    horizon: SimTime,
) -> Arm {
    let mut b = DlteNetworkBuilder::new(n_aps, per_ap);
    b.seed = seed;
    b.keys = KeyDistribution::RemoteDirectory;
    b.x2_context_fetch = true;
    let mut net = b
        .with_ue_plan(|_| DltePlan {
            app: pinger(DlteNetworkBuilder::ott_addr(), 25, 100),
            mode: MobilityMode::ReAttach,
            schedule: Vec::new(),
        })
        .with_move_plan(plan)
        .build_sharded(shards);
    storm_chaos(seed, &net.ap_backhaul).inject_sharded(&mut net.sim);
    Arm {
        label: "dlte-x2-fetch",
        sim: net.sim,
        ues: net.ues,
        cells: net.aps.len(),
        aps: net.aps,
        cbr_imsis: BTreeSet::new(),
        horizon,
    }
}

/// E16's shape with X2 `Independent`: even UEs run E16's AP-local CBR
/// (aimed at a neighbour slot of their own AP's pool), odd UEs ping the OTT
/// echo server through the core on shard 0, so traffic crosses the cut.
fn cbr_sharded(seed: u64, n_aps: usize, per_ap: usize, shards: usize, horizon: SimTime) -> Arm {
    let mut b = DlteNetworkBuilder::new(n_aps, per_ap);
    b.seed = seed;
    b.x2_mode = CoordinationMode::Independent;
    let net = b
        .with_ue_plan(move |i| {
            let (home_ap, within) = (i / per_ap, i % per_ap);
            let app = if i % 2 == 0 {
                let peer = if within ^ 1 < per_ap {
                    within ^ 1
                } else {
                    within
                };
                let pool = DlteNetworkBuilder::ap_pool(home_ap).addr;
                UeApp::UplinkCbr {
                    dst: Addr(pool.0 | (peer as u32 + 1)),
                    rate_bps: 100e3,
                    packet_bytes: 400,
                }
            } else {
                pinger(DlteNetworkBuilder::ott_addr(), 200, 200)
            };
            DltePlan {
                app,
                ..Default::default()
            }
        })
        .build_sharded(shards);
    let cbr_imsis = (0..net.ues.len())
        .step_by(2)
        .map(DlteNetworkBuilder::imsi_of)
        .collect();
    Arm {
        label: "dlte-cbr",
        sim: net.sim,
        ues: net.ues,
        cells: net.aps.len(),
        aps: net.aps,
        cbr_imsis,
        horizon,
    }
}

/// The deterministic outputs of a finished run, summed over arms. A
/// speed-up must leave every field bit-identical; the digest of this
/// struct is the benchmark's correctness gate.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Outputs {
    pub events: u64,
    /// Transmissions the links accepted (`NetAudit::fabric.accepted`).
    pub pkts_forwarded: u64,
    /// `PacketArrive` events consumed by a handler.
    pub absorbed: u64,
    pub drops_queue: u64,
    pub drops_loss: u64,
    pub drops_no_route: u64,
    pub drops_ttl: u64,
    pub drops_link_down: u64,
    pub drops_node_down: u64,
    pub probes_sent: u64,
    pub pongs: u64,
    pub cbr_sent: u64,
    pub cbr_delivered: u64,
    pub attaches: u64,
    pub attach_retries: u64,
    pub moves: u64,
    pub fetch_hits: u64,
    pub fetch_fallbacks: u64,
    pub rtt_p50_ms: f64,
    pub rtt_p99_ms: f64,
    pub attach_p99_ms: f64,
    pub gap_p99_ms: f64,
    /// Conservation-oracle violations (`dlte_check::check_conservation`).
    pub violations: Vec<String>,
}

impl Outputs {
    /// UE application packets sent.
    pub fn sent(&self) -> u64 {
        self.probes_sent + self.cbr_sent
    }

    /// UE application packets answered (pongs) or delivered (CBR).
    pub fn delivered(&self) -> u64 {
        self.pongs + self.cbr_delivered
    }

    /// Hash of every deterministic field (FNV-1a over the canonical JSON).
    pub fn digest(&self) -> String {
        let text = serde_json::to_string(self).expect("outputs serialize");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Share of UE application packets sent with no pong/delivery by the
/// horizon. In-flight packets at the horizon count as failed.
pub fn fail_share(sent: u64, delivered: u64) -> f64 {
    if sent == 0 {
        return 0.0;
    }
    sent.saturating_sub(delivered) as f64 / sent as f64
}

fn p(s: &Samples, q: f64) -> f64 {
    if s.is_empty() {
        0.0
    } else {
        s.percentile(q)
    }
}

/// Read every deterministic output out of the finished arms. Handlers must
/// be the simulator's own (any timing wrapper removed).
pub fn outputs(arms: &[Arm]) -> Outputs {
    let mut o = Outputs::default();
    let (mut rtt, mut attach, mut gap) = (Samples::new(), Samples::new(), Samples::new());
    for arm in arms {
        let sim = &arm.sim;
        let audit = sim.audit_merged();
        o.violations.extend(
            dlte_check::check_conservation(&audit)
                .into_iter()
                .map(|v| format!("{}: {v:?}", arm.label)),
        );
        o.events += sim.events_dispatched();
        o.pkts_forwarded += audit.fabric.accepted;
        o.absorbed += audit.fabric.absorbed;
        o.drops_queue += audit.drops_queue;
        o.drops_loss += audit.drops_loss;
        o.drops_no_route += audit.drops_no_route;
        o.drops_ttl += audit.drops_ttl;
        o.drops_link_down += audit.drops_link_down;
        o.drops_node_down += audit.drops_node_down;
        for &u in &arm.ues {
            let ue = sim.handler_as::<UeNode>(u).expect("UE handler");
            let s = &ue.stats;
            o.probes_sent += s.probes_sent;
            o.pongs += s.pongs;
            o.cbr_sent += s.cbr_packets_sent;
            o.attaches += s.attaches_completed;
            o.attach_retries += s.attach_retries;
            o.moves += s.cell_moves;
            rtt.extend(&s.rtt_ms);
            attach.extend(&s.attach_latency_ms);
            gap.extend(&s.handover_gap_ms);
        }
        if !arm.cbr_imsis.is_empty() {
            let trace = sim.trace_merged();
            o.cbr_delivered += arm
                .cbr_imsis
                .iter()
                .filter_map(|&f| trace.flow(f))
                .map(|t| t.delivered_packets)
                .sum::<u64>();
        }
        for &a in &arm.aps {
            let ap = sim.handler_as::<DlteApNode>(a).expect("AP handler");
            o.fetch_hits += ap.fetch_stats.hits;
            o.fetch_fallbacks += ap.fetch_stats.fallbacks;
        }
    }
    o.rtt_p50_ms = p(&rtt, 0.5);
    o.rtt_p99_ms = p(&rtt, 0.99);
    o.attach_p99_ms = p(&attach, 0.99);
    o.gap_p99_ms = p(&gap, 0.99);
    o
}
