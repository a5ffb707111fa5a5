//! Per-layer metrics of a traced run: the trace aggregates, the finished
//! run's deterministic outputs, and direct timed calls into public layer
//! functions (FIB lookup, X2 share computation, one EPS-AKA vector).

use crate::trace::{self, Layer, Traced};
use crate::workload::{Arm, Outputs};
use dlte_auth::milenage;
use dlte_net::Addr;
use dlte_sim::SimRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Calls per timed direct probe: enough that clock reads are noise.
const PROBE_CALLS: u64 = 200_000;

/// (name, unit) of every per-layer metric, in report order.
pub const METRICS: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.step_ns", "ns"),
    ("sim.queue_peak", "count"),
    ("shard.events_max_share", "fraction"),
    ("shard.cpu_util", "fraction"),
    ("net.hop_events", "count"),
    ("net.hop_ns", "ns"),
    ("net.pkts_forwarded", "count"),
    ("net.fib_lookup_ns", "ns"),
    ("net.routes", "count"),
    ("net.drops.queue", "count"),
    ("net.drops.loss", "count"),
    ("net.drops.no_route", "count"),
    ("net.drops.ttl", "count"),
    ("net.drops.link_down", "count"),
    ("net.drops.node_down", "count"),
    ("mem.allocs_per_kevent", "count"),
    ("mem.alloc_bytes_per_event", "B"),
    ("epc.ue.calls", "count"),
    ("epc.ue.self_ms", "ms"),
    ("epc.enb.calls", "count"),
    ("epc.enb.self_ms", "ms"),
    ("epc.mme.calls", "count"),
    ("epc.mme.self_ms", "ms"),
    ("epc.sgw.calls", "count"),
    ("epc.sgw.self_ms", "ms"),
    ("epc.pgw.calls", "count"),
    ("epc.pgw.self_ms", "ms"),
    ("epc.hss.calls", "count"),
    ("epc.hss.self_ms", "ms"),
    ("epc.local_core.calls", "count"),
    ("epc.local_core.self_ms", "ms"),
    ("epc.key_dir.calls", "count"),
    ("epc.key_dir.self_ms", "ms"),
    ("epc.attaches", "count"),
    ("epc.attach_retries", "count"),
    ("auth.aka_ns", "ns"),
    ("x2.msgs", "count"),
    ("x2.msg_self_ms", "ms"),
    ("x2.ticks", "count"),
    ("x2.tick_us", "us"),
    ("x2.setup_self_ms", "ms"),
    ("x2.handler_share", "fraction"),
    ("x2.share_ns", "ns"),
    ("x2.fetch_hits", "count"),
    ("x2.fetch_fallbacks", "count"),
    ("mobility.moves", "count"),
    ("model.rtt_p50_ms", "ms"),
    ("model.rtt_p99_ms", "ms"),
    ("model.attach_p99_ms", "ms"),
    ("model.gap_p99_ms", "ms"),
    ("model.delivered", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "fraction"),
    ("trace.call_ns", "ns"),
];

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Mean host ns of `NodeInfo::route_for` over the built nodes, toward every
/// address the nodes own (UE addresses included once attached).
pub fn fib_lookup_ns(arms: &[Arm], seed: u64) -> f64 {
    let mut nodes = Vec::new();
    let mut dsts: Vec<Addr> = Vec::new();
    for w in arms.iter().map(|a| a.sim.world()) {
        for n in &w.core.nodes {
            // Compile every FIB before timing (compilation is lazy).
            black_box(n.route_for(Addr(0)));
            nodes.push(n);
            dsts.extend_from_slice(n.addrs());
        }
    }
    if nodes.is_empty() || dsts.is_empty() {
        return 0.0;
    }
    let mut rng = SimRng::new(seed ^ 0xF1B);
    let pairs: Vec<(usize, Addr)> = (0..PROBE_CALLS)
        .map(|_| {
            let n = (rng.unit() * nodes.len() as f64) as usize % nodes.len();
            let d = (rng.unit() * dsts.len() as f64) as usize % dsts.len();
            (n, dsts[d])
        })
        .collect();
    let t = Instant::now();
    for &(n, d) in &pairs {
        black_box(nodes[n].route_for(black_box(d)));
    }
    t.elapsed().as_nanos() as f64 / pairs.len() as f64
}

/// Σ routing-table entries over every node (shard 0's replica).
pub fn routes(arms: &[Arm]) -> u64 {
    arms.iter()
        .map(|a| a.sim.shards()[0].world())
        .flat_map(|w| w.core.nodes.iter())
        .map(|n| n.routes().len() as u64)
        .sum()
}

/// Mean host ns of one X2 max-min share computation over `n` peers.
pub fn share_ns(n: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed ^ 0x5A4E);
    let demands: Vec<f64> = (0..n.max(1)).map(|_| rng.unit() * 2.0 / n as f64).collect();
    let (mut shares, mut scratch) = (Vec::new(), Vec::new());
    let calls = (PROBE_CALLS / n.max(1) as u64).max(100);
    let t = Instant::now();
    for _ in 0..calls {
        dlte_x2::fair_share::max_min_shares_into(
            black_box(&demands),
            1.0,
            &mut shares,
            &mut scratch,
        );
        black_box(&shares);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Mean host ns of one EPS-AKA vector: MILENAGE f1–f5 plus K_ASME.
pub fn aka_ns(seed: u64) -> f64 {
    let mut rng = SimRng::new(seed ^ 0xA4A);
    let inputs: Vec<(u128, u128, u64)> = (0..1024)
        .map(|i| {
            let k = (rng.unit().to_bits() as u128) << 64 | i;
            let rand = (rng.unit().to_bits() as u128) << 32 | i;
            (k, rand, i as u64 * 32)
        })
        .collect();
    let t = Instant::now();
    for i in 0..PROBE_CALLS as usize {
        let (k, rand, sqn) = black_box(inputs[i % inputs.len()]);
        let mac = milenage::f1(k, rand, sqn, 0x8000);
        let res = milenage::f2(k, rand);
        let ck = milenage::f3(k, rand);
        let ik = milenage::f4(k, rand);
        let ak = milenage::f5(k, rand);
        black_box((mac, res, milenage::kasme(ck, ik, 0xF110, sqn ^ ak)));
    }
    t.elapsed().as_nanos() as f64 / PROBE_CALLS as f64
}

/// Every per-layer metric the traced child can compute by itself (all but
/// `shard.*` and `trace.overhead`, which need the untraced runs).
pub fn traced_metrics(
    arms: &[Arm],
    out: &Outputs,
    tr: &Traced,
    (allocs, alloc_bytes): (u64, u64),
    routes: u64,
    seed: u64,
) -> BTreeMap<String, f64> {
    let a = &tr.agg;
    let ms = |l: Layer| a.layer(l).self_ns as f64 / 1e6;
    let x2_ns = [Layer::X2Msg, Layer::X2Tick, Layer::X2Setup]
        .iter()
        .map(|&l| a.layer(l).self_ns)
        .sum::<u64>();
    let cells = arms.iter().map(|arm| arm.cells).max().unwrap_or(1);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("sim.events", out.events as f64);
    // Step self time less the wrapper's own cost per handler call.
    let call_ns = trace::call_overhead_ns();
    let wrapper_ns = call_ns * a.handler_calls() as f64;
    put(
        "sim.step_ns",
        per((a.step_self_ns as f64 - wrapper_ns).max(0.0), a.steps),
    );
    put("sim.queue_peak", a.queue_peak as f64);
    put("net.hop_events", a.hop_steps as f64);
    put("net.hop_ns", per(a.hop_ns as f64, a.hop_steps));
    put("net.pkts_forwarded", out.pkts_forwarded as f64);
    put("net.fib_lookup_ns", fib_lookup_ns(arms, seed));
    put("net.routes", routes as f64);
    put("net.drops.queue", out.drops_queue as f64);
    put("net.drops.loss", out.drops_loss as f64);
    put("net.drops.no_route", out.drops_no_route as f64);
    put("net.drops.ttl", out.drops_ttl as f64);
    put("net.drops.link_down", out.drops_link_down as f64);
    put("net.drops.node_down", out.drops_node_down as f64);
    put(
        "mem.allocs_per_kevent",
        per(allocs as f64 * 1e3, out.events),
    );
    put(
        "mem.alloc_bytes_per_event",
        per(alloc_bytes as f64, out.events),
    );
    for l in [
        Layer::Ue,
        Layer::Enb,
        Layer::Mme,
        Layer::Sgw,
        Layer::Pgw,
        Layer::Hss,
        Layer::LocalCore,
        Layer::KeyDir,
    ] {
        put(&format!("{}.calls", l.name()), a.layer(l).calls as f64);
        put(&format!("{}.self_ms", l.name()), ms(l));
    }
    put("epc.attaches", out.attaches as f64);
    put("epc.attach_retries", out.attach_retries as f64);
    put("auth.aka_ns", aka_ns(seed));
    put("x2.msgs", a.layer(Layer::X2Msg).calls as f64);
    put("x2.msg_self_ms", ms(Layer::X2Msg));
    put("x2.ticks", a.layer(Layer::X2Tick).calls as f64);
    put(
        "x2.tick_us",
        per(
            a.layer(Layer::X2Tick).self_ns as f64 / 1e3,
            a.layer(Layer::X2Tick).calls,
        ),
    );
    put("x2.setup_self_ms", ms(Layer::X2Setup));
    put("x2.handler_share", per(x2_ns as f64, a.handler_self_ns()));
    put("x2.share_ns", share_ns(cells, seed));
    put("x2.fetch_hits", out.fetch_hits as f64);
    put("x2.fetch_fallbacks", out.fetch_fallbacks as f64);
    put("mobility.moves", out.moves as f64);
    put("model.rtt_p50_ms", out.rtt_p50_ms);
    put("model.rtt_p99_ms", out.rtt_p99_ms);
    put("model.attach_p99_ms", out.attach_p99_ms);
    put("model.gap_p99_ms", out.gap_p99_ms);
    put("model.delivered", out.delivered() as f64);
    put("trace.unattributed_share", tr.unattributed_share());
    put("trace.call_ns", call_ns);
    m
}
