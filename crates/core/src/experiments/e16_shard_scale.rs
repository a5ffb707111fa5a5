//! E16 — shard scale: one simulation, N engine shards.
//!
//! The ROADMAP north star is a core that "serves heavy traffic from
//! millions of users"; PR 5 made the fabric fast on one core, and this
//! experiment proves the sharded engine buys the next axis: a *single*
//! run split across cores. It builds a wide dLTE deployment (many APs,
//! every UE's traffic breaking out locally at its home AP), partitions it
//! by AP cluster ([`DlteNetworkBuilder::build_sharded`]), and sweeps the
//! shard count over the same topology sizes.
//!
//! Two claims, both enforced here rather than eyeballed:
//!
//! * **Invariance** — events dispatched, packets forwarded and packets
//!   delivered are bit-identical at every shard count. The sweep returns
//!   a [`ShardDivergence`] if any counter diverges (the table panics on
//!   it), so a golden run at `--shards 4` *is* the single-engine result.
//! * **Throughput** — with AP-local traffic the shards exchange no
//!   packets, so wall-clock throughput (events/sec) scales with cores.
//!   Timing never enters the golden-checked table; it lives in
//!   `BENCH_shard.json`, written by `dlte-run bench e16`.

use super::Table;
use crate::scenario::{DlteNetworkBuilder, DltePlan};
use dlte_epc::ue::UeApp;
use dlte_net::Addr;
use dlte_sim::SimTime;
use dlte_x2::CoordinationMode;
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    /// Total UE counts to sweep (each size runs once per shard count).
    pub sizes: Vec<usize>,
    /// UEs homed on each AP; the AP count is `size / ues_per_ap`.
    pub ues_per_ap: usize,
    /// Shard counts to run each size at.
    pub shard_counts: Vec<usize>,
    pub seed: u64,
    /// Simulated seconds each run covers.
    pub total_s: f64,
    /// Per-UE constant uplink rate toward its paired neighbor.
    pub rate_bps: f64,
    pub packet_bytes: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            sizes: vec![600],
            ues_per_ap: 10,
            shard_counts: vec![1, 2, 4],
            seed: 1,
            total_s: 2.0,
            rate_bps: 100e3,
            packet_bytes: 400,
        }
    }
}

/// One measured run. The counter fields are identical for a given
/// (size, seed, total_s) at *any* shard count — enforced by
/// [`bench_runs`] — while `wall_ms`/`events_per_sec` are this machine's
/// timing and only appear in `BENCH_shard.json`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct ShardBenchRun {
    pub size: usize,
    pub shards: usize,
    pub nodes: usize,
    pub ues: usize,
    pub events_dispatched: u64,
    pub packets_forwarded: u64,
    /// UE↔UE packets delivered across all flows.
    pub delivered: u64,
    pub wall_ms: f64,
    pub events_per_sec: f64,
}

fn run_one(size: usize, n_shards: usize, p: &Params) -> ShardBenchRun {
    let ues_per_ap = p.ues_per_ap.clamp(1, 250);
    let n_aps = (size / ues_per_ap).max(1);
    let (rate_bps, packet_bytes) = (p.rate_bps, p.packet_bytes);
    let mut b = DlteNetworkBuilder::new(n_aps, ues_per_ap);
    b.seed = p.seed;
    // Independent APs: no X2 reporting, so the only inter-shard links are
    // the (idle) backhauls — the workload the sharding is built for.
    b.x2_mode = CoordinationMode::Independent;
    let mut net = b
        .with_ue_plan(move |i| {
            let home_ap = i / ues_per_ap;
            let within = i % ues_per_ap;
            // Pair neighbors (0↔1, 2↔3, …); an odd tail UE talks to its
            // own future address — still a valid AP-local flow. Pool
            // addresses are handed out in attach order, so the peer slot
            // maps to *some* UE homed on the same AP either way: all user
            // traffic breaks out locally and never crosses shards.
            let peer = if within ^ 1 < ues_per_ap {
                within ^ 1
            } else {
                within
            };
            let pool = DlteNetworkBuilder::ap_pool(home_ap).addr;
            DltePlan {
                app: UeApp::UplinkCbr {
                    dst: Addr(pool.0 | (peer as u32 + 1)),
                    rate_bps,
                    packet_bytes,
                },
                ..Default::default()
            }
        })
        .build_sharded(n_shards);
    let ((), report) = dlte_sim::report::scope(|| {
        net.sim
            .run_until(SimTime::from_secs_f64(p.total_s), u64::MAX);
    });
    let trace = net.sim.trace_merged();
    let delivered = trace
        .flow_ids()
        .iter()
        .map(|&f| trace.flow(f).map(|t| t.delivered_packets).unwrap_or(0))
        .sum();
    let nodes = net.sim.shards()[0].world().core.nodes.len();
    ShardBenchRun {
        size,
        shards: net.sim.num_shards(),
        nodes,
        ues: net.ues.len(),
        events_dispatched: report.events_dispatched,
        packets_forwarded: net.sim.audit_merged().fabric.accepted,
        delivered,
        wall_ms: report.wall_ms,
        events_per_sec: report.events_per_sec,
    }
}

/// A work counter that differed across shard counts at one size: the
/// invariance claim failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardDivergence {
    pub size: usize,
    /// Shard count of the size's first run, which the others must match.
    pub base_shards: usize,
    pub shards: usize,
    /// `(events_dispatched, packets_forwarded, delivered)` of each run.
    pub base: (u64, u64, u64),
    pub got: (u64, u64, u64),
}

impl std::fmt::Display for ShardDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard-count invariance violated at size {} ({} vs {} shards): \
             (events, pkts forwarded, delivered) {:?} vs {:?}",
            self.size, self.base_shards, self.shards, self.base, self.got
        )
    }
}

impl std::error::Error for ShardDivergence {}

fn counters(r: &ShardBenchRun) -> (u64, u64, u64) {
    (r.events_dispatched, r.packets_forwarded, r.delivered)
}

/// Check that the runs of one size all report the first run's work
/// counters, whatever their shard count.
pub fn check_invariance(runs: &[ShardBenchRun]) -> Result<(), ShardDivergence> {
    let Some(base) = runs.first() else {
        return Ok(());
    };
    match runs.iter().find(|r| counters(r) != counters(base)) {
        None => Ok(()),
        Some(r) => Err(ShardDivergence {
            size: r.size,
            base_shards: base.shards,
            shards: r.shards,
            base: counters(base),
            got: counters(r),
        }),
    }
}

/// Run the full (size × shard count) sweep sequentially (each run owns
/// the machine, so its wall-clock is honest) and enforce the invariance
/// claim: every counter must be bit-identical across shard counts. Stops
/// at the first size whose runs diverge. This is the entry point
/// `dlte-run bench e16` uses.
pub fn bench_runs(p: &Params) -> Result<Vec<ShardBenchRun>, ShardDivergence> {
    let mut runs = Vec::new();
    for &size in &p.sizes {
        let start = runs.len();
        for &n in &p.shard_counts {
            runs.push(run_one(size, n, p));
        }
        check_invariance(&runs[start..])?;
    }
    Ok(runs)
}

pub fn run_with(p: Params) -> Table {
    let runs = bench_runs(&p).unwrap_or_else(|e| panic!("{e}"));
    let mut t = Table::new(
        "E16",
        "Shard scale sweep: one dLTE deployment on N engine shards, counters shard-invariant",
        &[
            "size",
            "shards",
            "nodes",
            "UEs",
            "events",
            "pkts forwarded",
            "delivered",
        ],
    );
    for r in &runs {
        t.row(vec![
            r.size.to_string(),
            r.shards.to_string(),
            r.nodes.to_string(),
            r.ues.to_string(),
            r.events_dispatched.to_string(),
            r.packets_forwarded.to_string(),
            r.delivered.to_string(),
        ]);
    }
    t.expect(
        "for each size, every counter column is identical across the shard rows (the sweep \
         asserts it) and traffic flowed; wall-clock scaling lives in BENCH_shard.json, \
         never in golden cells",
    );
    t
}

pub fn run() -> Table {
    run_with(Params::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_bit_identical_across_shard_counts() {
        let p = Params {
            sizes: vec![120],
            ues_per_ap: 4,
            shard_counts: vec![1, 2, 4],
            total_s: 2.0,
            ..Default::default()
        };
        // bench_runs itself checks invariance; here we also check the
        // runs actually did meaningful, distinct-shard work.
        let runs = bench_runs(&p).expect("counters agree across shard counts");
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].shards, 1);
        assert_eq!(runs[1].shards, 2);
        assert_eq!(runs[2].shards, 4);
        for r in &runs {
            assert_eq!(r.ues, 120);
            assert!(r.events_dispatched > 0);
            assert!(r.delivered > 0, "no UE↔UE traffic delivered");
        }
    }

    #[test]
    fn table_is_deterministic_and_shard_invariant_per_size() {
        let p = Params {
            sizes: vec![40],
            ues_per_ap: 4,
            shard_counts: vec![1, 2],
            total_s: 1.0,
            ..Default::default()
        };
        let t = run_with(p.clone());
        assert_eq!(t.rows.len(), 2);
        // Counter cells (events, pkts, delivered) agree across shard rows.
        for col in 4..7 {
            assert_eq!(t.rows[0][col], t.rows[1][col], "column {col} diverged");
        }
        let again = run_with(p);
        assert_eq!(t.rows, again.rows);
    }

    fn run(size: usize, shards: usize, counters: (u64, u64, u64)) -> ShardBenchRun {
        ShardBenchRun {
            size,
            shards,
            events_dispatched: counters.0,
            packets_forwarded: counters.1,
            delivered: counters.2,
            ..Default::default()
        }
    }

    #[test]
    fn invariance_check_names_the_first_divergent_run() {
        let agree = [run(10, 1, (5, 4, 3)), run(10, 2, (5, 4, 3))];
        assert_eq!(check_invariance(&agree), Ok(()));
        let diverged = [
            run(10, 1, (5, 4, 3)),
            run(10, 2, (5, 4, 3)),
            run(10, 4, (5, 4, 2)),
            run(10, 8, (6, 4, 3)),
        ];
        let err = check_invariance(&diverged).unwrap_err();
        assert_eq!(
            err,
            ShardDivergence {
                size: 10,
                base_shards: 1,
                shards: 4,
                base: (5, 4, 3),
                got: (5, 4, 2),
            }
        );
        assert!(err.to_string().contains("size 10 (1 vs 4 shards)"), "{err}");
    }
}
