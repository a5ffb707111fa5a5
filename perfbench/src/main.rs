//! perfbench — the dLTE simulator's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ping-dlte --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload in fresh child processes (each one
//! builds, runs and exits, so its peak RSS is its own) for `--seconds` and
//! reports the end-to-end metrics over them (medians over the
//! repetitions, the times scaled to a nominal host speed by the `calib`
//! kernel timed beside them). `--trace 1` adds one traced
//! child and reports the per-layer metrics. Every run is gated: the
//! conservation oracle must pass, every repetition's output digest must
//! match (for `cbr-sharded` also between 1 and 2 shards, and traced
//! against untraced), and the traced layer counts must close. The last
//! line of stdout is the JSON result; a gate failure exits 1.

mod alloc;
mod calib;
mod layers;
mod trace;
mod workload;

use dlte_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::{Outputs, Size, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Repetitions each run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Slices each arm's untraced run is cut into (by simulated time), with a
/// calibration sample after each.
const SLICES: u64 = 64;

/// (name, unit) of the end-to-end metrics, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fail_share", "fraction"),
];

/// Where results and span files are written, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

/// One repetition, as measured by the child process that ran it.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Rep {
    shards: usize,
    traced: bool,
    /// Times as measured, calibration samples excluded.
    setup_s: f64,
    run_s: f64,
    /// Process CPU over set-up and run.
    cpu_s: f64,
    /// Process CPU over the run alone (all shard threads).
    run_cpu_s: f64,
    /// Mean calibration sample just before and just after set-up, and over
    /// the run's slices (`calib::sample`; none in the traced run).
    calib_setup_s: f64,
    calib_run_s: Option<f64>,
    /// Peak RSS less the calibrator's table.
    peak_rss_mb: f64,
    outputs: Outputs,
    digest: String,
    /// `events_dispatched` per shard, summed over arms.
    shard_events: Vec<u64>,
    /// Per-layer metrics (traced repetitions only).
    layers: BTreeMap<String, f64>,
    /// Layer-count closure and coverage failures (traced only).
    closure: Vec<String>,
}

impl Rep {
    /// `(setup_s, run_s, cpu_s)` scaled to the nominal host speed by the
    /// calibration samples taken beside them (`calib`). Untraced only.
    fn normalised(&self) -> (f64, f64, f64) {
        let fs = calib::factor(self.calib_setup_s);
        let fr = self.calib_run_s.map_or(1.0, calib::factor);
        let setup_cpu_s = self.cpu_s - self.run_cpu_s;
        (
            self.setup_s * fs,
            self.run_s * fr,
            setup_cpu_s * fs + self.run_cpu_s * fr,
        )
    }
}

/// Build, run and measure one repetition in this process.
fn run_rep(
    w: Workload,
    seed: u64,
    shards: usize,
    traced: bool,
    size: Size,
) -> (Rep, Vec<trace::Span>) {
    let cal = calib::Calibrator::new();
    let before = cal.sample();
    let (t, cpu0) = (Instant::now(), process_cpu_s());
    let mut arms = workload::build(w, seed, shards, size);
    let setup_s = t.elapsed().as_secs_f64();
    let setup_cpu_s = process_cpu_s() - cpu0;
    let calib_setup_s = (before + cal.sample()) / 2.0;
    // Routing state as built (attaches add per-UE routes during the run).
    let routes = layers::routes(&arms);
    // The traced run wraps handlers before the allocation count starts and
    // unwraps them after it ends, so the count is the simulator's alone.
    if traced {
        trace::wrap(&mut arms);
    }
    let (mut run_s, mut run_cpu_s, mut samples) = (0.0, 0.0, Vec::new());
    let (tr, allocs, alloc_bytes) = if traced {
        let (t, cpu0) = (Instant::now(), process_cpu_s());
        let (tr, a, b) = alloc::counted(|| trace::run(&mut arms));
        (run_s, run_cpu_s) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu0);
        (Some(tr), a, b)
    } else {
        for arm in &mut arms {
            let h = arm.horizon.as_nanos();
            for i in 1..=SLICES {
                let end = SimTime::from_nanos((h as u128 * i as u128 / SLICES as u128) as u64);
                let (t, cpu0) = (Instant::now(), process_cpu_s());
                arm.sim.run_until(end, u64::MAX);
                run_s += t.elapsed().as_secs_f64();
                run_cpu_s += process_cpu_s() - cpu0;
                samples.push(cal.sample());
            }
        }
        (None, 0, 0)
    };
    if traced {
        trace::unwrap(&mut arms);
    }
    let outputs = workload::outputs(&arms);
    let mut shard_events = vec![0; shards.max(1)];
    for arm in &arms {
        for (i, s) in arm.sim.shards().iter().enumerate() {
            shard_events[i] += s.events_dispatched();
        }
    }
    let (mut layers, mut closure, mut spans) = (BTreeMap::new(), Vec::new(), Vec::new());
    if let Some(tr) = tr {
        layers = layers::traced_metrics(&arms, &outputs, &tr, (allocs, alloc_bytes), routes, seed);
        let handler_free = trace::handler_free_events(&arms);
        closure = tr
            .agg
            .check_closure(outputs.events, outputs.absorbed, handler_free);
        let share = tr.unattributed_share();
        if share > trace::MAX_UNATTRIBUTED {
            closure.push(format!(
                "step spans cover only {:.3} of the traced wall time (allowed gap {})",
                1.0 - share,
                trace::MAX_UNATTRIBUTED
            ));
        }
        spans = tr.sampled;
    }
    drop(arms);
    let rep = Rep {
        shards,
        traced,
        setup_s,
        run_s,
        cpu_s: setup_cpu_s + run_cpu_s,
        run_cpu_s,
        calib_setup_s,
        calib_run_s: (!samples.is_empty())
            .then(|| samples.iter().sum::<f64>() / samples.len() as f64),
        peak_rss_mb: (proc_status_kib("VmHWM") - (calib::TABLE_BYTES / 1024) as f64) / 1024.0,
        digest: outputs.digest(),
        outputs,
        shard_events,
        layers,
        closure,
    };
    (rep, spans)
}

/// User+system CPU seconds of this process so far, every thread included
/// (exited shard workers too). `/proc/self/stat` has the same figure at
/// 10 ms resolution, too coarse for runs of one to three seconds.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `kB` field of `/proc/self/status`, in KiB.
fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn median(xs: &[f64]) -> f64 {
    let mut s = dlte_sim::stats::Samples::new();
    xs.iter().for_each(|&x| s.push(x));
    s.median()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: engine shards, and where to write sampled spans.
    shards: usize,
    spans: Option<PathBuf>,
}

/// Parse the command line. `--shards` and `--spans` exist only to pass a
/// repetition's settings to a `rep` child, so only `child` accepts them.
fn parse_args(argv: &[String], child: bool) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let take = |k: &str| kv.get(k).cloned();
    let num = |k: &str, default: Option<u64>| -> Result<u64, String> {
        match take(k) {
            Some(v) => v.parse().map_err(|_| format!("--{k}: not a number: {v:?}")),
            None => default.ok_or_else(|| format!("--{k} is required")),
        }
    };
    let child_only = ["shards", "spans"];
    for k in kv.keys() {
        let known = ["workload", "seed", "seconds", "trace"].contains(&k.as_str())
            || (child && child_only.contains(&k.as_str()));
        if !known {
            return Err(format!("unknown option --{k}"));
        }
    }
    let name = take("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let trace = match num("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = num("seconds", Some(10))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: num("seed", None)?,
        seconds,
        trace,
        shards: num("shards", Some(workload.shards() as u64))?.clamp(1, 64) as usize,
        spans: take("spans").map(PathBuf::from),
    })
}

const USAGE: &str =
    "usage: perfbench --workload <ping-central|ping-dlte|handover-storm|cbr-sharded> \
--seed <n> [--seconds <n>] [--trace 0|1]";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (child, rest) = match argv.first().map(String::as_str) {
        Some("rep") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let args = match parse_args(rest, child) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if child {
        child_main(&args);
    } else {
        std::process::exit(bench_main(&args));
    }
}

/// Child mode: one repetition, its `Rep` as the single line of stdout.
fn child_main(a: &Args) {
    let (rep, spans) = run_rep(a.workload, a.seed, a.shards, a.trace, Size::Full);
    if let Some(path) = &a.spans {
        if let Err(e) = std::fs::write(path, trace::spans_jsonl(&spans)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", serde_json::to_string(&rep).expect("rep serializes"));
}

/// Run one repetition in a fresh child process.
fn spawn_rep(a: &Args, shards: usize, traced: bool, spans: Option<&Path>) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("rep")
        .args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--shards", &shards.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(p) = spans {
        cmd.arg("--spans").arg(p);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a repetition: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "repetition ({shards} shards, traced {traced}) exited with {}",
            out.status
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("unreadable repetition result: {e:?}"))
}

fn command_line(prog: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(prog)
        .args(args)
        // Never look for a repository above the checkout.
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir().ok()?.parent()?,
        )
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !s.is_empty()).then_some(s)
}

/// Where a result came from: written into every result file.
#[derive(Serialize)]
struct Provenance {
    commit: String,
    nproc: usize,
    rustc: String,
    cargo_features: &'static str,
    profile: &'static str,
    workload: &'static str,
    seed: u64,
    horizon_s: f64,
    shards: usize,
    seconds: u64,
    trace: bool,
}

fn provenance(a: &Args) -> Provenance {
    Provenance {
        commit: command_line("git", &["rev-parse", "HEAD"])
            .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        cargo_features: "none (the counting allocator is compiled in and switched on only in traced repetitions)",
        profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        workload: a.workload.name(),
        seed: a.seed,
        horizon_s: a.workload.horizon_s(Size::Full),
        shards: a.workload.shards(),
        seconds: a.seconds,
        trace: a.trace,
    }
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

/// The last line of stdout.
#[derive(Serialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// The result file: the outcome with its provenance and every repetition.
#[derive(Serialize)]
struct ResultFile {
    provenance: Provenance,
    outcome: Outcome,
    failures: Vec<String>,
    reps: Vec<Rep>,
}

/// Gate failures of one repetition, judged against the reference digest.
fn rep_failures(r: &Rep, reference: &str) -> Vec<String> {
    let who = format!(
        "{} shard(s){}",
        r.shards,
        if r.traced { ", traced" } else { "" }
    );
    let mut f: Vec<String> = r
        .outputs
        .violations
        .iter()
        .map(|v| format!("{who}: conservation: {v}"))
        .collect();
    f.extend(r.closure.iter().map(|c| format!("{who}: closure: {c}")));
    if r.digest != reference {
        f.push(format!("{who}: output digest {} != {reference}", r.digest));
    }
    if r.outputs.sent() == 0 || r.outputs.delivered() == 0 {
        f.push(format!("{who}: no application traffic completed"));
    }
    f
}

fn record(r: Result<Rep, String>, reps: &mut Vec<Rep>, failures: &mut Vec<String>) {
    match r {
        Ok(rep) => reps.push(rep),
        Err(e) => failures.push(e),
    }
}

/// Orchestrator: repeat, gate, report. Returns the exit code.
fn bench_main(a: &Args) -> i32 {
    let started = Instant::now();
    let budget = Duration::from_secs(a.seconds);
    let primary = a.workload.shards();
    let mut reps: Vec<Rep> = Vec::new();
    // Everything that makes the run incorrect. Repeating stops at the
    // first repetition that does not complete.
    let mut failures: Vec<String> = Vec::new();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: creating {OUT_DIR}: {e}");
        return 1;
    }
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        a.workload.name(),
        a.seed,
        a.trace as u8
    );
    // A multi-shard workload also runs once on one engine: its outputs must
    // match the sharded ones, and it is the untraced baseline of
    // `trace.overhead`.
    if primary > 1 {
        record(spawn_rep(a, 1, false, None), &mut reps, &mut failures);
    }
    // A traced repetition takes up to twice an untraced one; keep that out
    // of the untraced budget.
    let reserve = if a.trace { 2 } else { 0 };
    let mut longest = Duration::ZERO;
    while failures.is_empty() {
        let n = reps.iter().filter(|r| r.shards == primary).count();
        if n >= MIN_REPS && started.elapsed() + longest * (1 + reserve) > budget {
            break;
        }
        let t = Instant::now();
        record(spawn_rep(a, primary, false, None), &mut reps, &mut failures);
        longest = longest.max(t.elapsed());
    }
    let spans_path = PathBuf::from(format!("{stem}-spans.jsonl"));
    if a.trace && failures.is_empty() {
        record(
            spawn_rep(a, 1, true, Some(&spans_path)),
            &mut reps,
            &mut failures,
        );
    }
    let attempted = (reps.len() + failures.len()) as u64;
    let mut failed = failures.len() as u64;

    if let Some(reference) = reps.first().map(|r| r.digest.clone()) {
        for r in &reps {
            let f = rep_failures(r, &reference);
            failed += !f.is_empty() as u64;
            failures.extend(f);
        }
    }
    let main_reps: Vec<&Rep> = reps
        .iter()
        .filter(|r| r.shards == primary && !r.traced)
        .collect();
    let med = |f: &dyn Fn(&Rep) -> f64| median(&main_reps.iter().map(|r| f(r)).collect::<Vec<_>>());
    let mut metrics: BTreeMap<String, Metric> = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    };
    if main_reps.is_empty() {
        failures.push("no repetition completed".into());
    } else if !a.trace {
        let o = &main_reps[0].outputs;
        let values = [
            med(&|r| r.normalised().1),
            med(&|r| r.normalised().0),
            med(&|r| r.normalised().2),
            med(&|r| r.peak_rss_mb),
            workload::fail_share(o.sent(), o.delivered()),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            put(name, v, unit);
        }
    } else if let Some(t) = reps.iter().find(|r| r.traced) {
        let mut m = t.layers.clone();
        let one_shard: Vec<f64> = reps
            .iter()
            .filter(|r| r.shards == 1 && !r.traced)
            .map(|r| r.run_s)
            .collect();
        m.insert(
            "shard.events_max_share".into(),
            med(&|r| {
                let total: u64 = r.shard_events.iter().sum();
                *r.shard_events.iter().max().unwrap_or(&0) as f64 / total.max(1) as f64
            }),
        );
        m.insert(
            "shard.cpu_util".into(),
            med(&|r| r.run_cpu_s / (r.run_s * primary as f64)),
        );
        m.insert("trace.overhead".into(), t.run_s / median(&one_shard));
        for (name, unit) in layers::METRICS {
            match m.get(*name) {
                Some(&v) => put(name, v, unit),
                None => failures.push(format!("metric {name} missing from the traced run")),
            }
        }
    } else {
        failures.push("the traced repetition did not complete".into());
    }

    let outcome = Outcome {
        correct: failures.is_empty(),
        attempted,
        failed: failed.max(!failures.is_empty() as u64),
        metrics,
    };
    for (name, m) in &outcome.metrics {
        println!("metric {name} = {} {}", m.value, m.unit);
    }
    for f in &failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let prov = provenance(a);
    println!(
        "provenance {}",
        serde_json::to_string(&prov).expect("serializes")
    );
    let last_line = serde_json::to_string(&outcome).expect("serializes");
    let correct = outcome.correct;
    let file = ResultFile {
        provenance: prov,
        outcome,
        failures,
        reps,
    };
    let path = format!("{stem}.json");
    if let Err(e) = std::fs::write(
        &path,
        serde_json::to_string_pretty(&file).expect("serializes"),
    ) {
        eprintln!("perfbench: writing {path}: {e}");
    }
    println!("{last_line}");
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str, child: bool) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv, child)
    }

    fn args(s: &str) -> Result<Args, String> {
        parse(s, false)
    }

    #[test]
    fn median_of_odd_and_even_fixtures() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn model_percentiles_interpolate_and_default_to_zero() {
        let mut s = dlte_sim::stats::Samples::new();
        (1..=100).for_each(|x| s.push(x as f64));
        assert_eq!(s.percentile(0.5), 50.5);
        assert!((s.percentile(0.99) - 99.01).abs() < 1e-9);
        // A run with no samples (no moves, so no handover gaps) reads 0.
        let empty = workload::outputs(&[]);
        assert_eq!((empty.rtt_p99_ms, empty.gap_p99_ms), (0.0, 0.0));
    }

    #[test]
    fn normalised_times_scale_by_their_own_samples() {
        let (smoke, _) = run_rep(Workload::PingCentral, 7, 1, false, Size::Smoke);
        let r = Rep {
            setup_s: 0.2,
            run_s: 3.0,
            cpu_s: 3.5,
            run_cpu_s: 3.0,
            calib_setup_s: calib::NOMINAL_S,
            calib_run_s: Some(2.0 * calib::NOMINAL_S),
            ..smoke
        };
        // Set-up ran at nominal speed, the run in a phase twice as slow.
        assert_eq!(r.normalised(), (0.2, 1.5, 0.5 + 1.5));
        let traced = Rep {
            calib_run_s: None,
            ..r
        };
        assert_eq!(traced.normalised().1, 3.0, "no samples, no scaling");
    }

    #[test]
    fn fail_share_counts_unanswered_packets() {
        assert_eq!(workload::fail_share(200, 150), 0.25);
        assert_eq!(workload::fail_share(10, 10), 0.0);
        assert_eq!(workload::fail_share(0, 0), 0.0);
        let o = Outputs {
            probes_sent: 90,
            pongs: 60,
            cbr_sent: 10,
            cbr_delivered: 10,
            ..Default::default()
        };
        assert_eq!(workload::fail_share(o.sent(), o.delivered()), 0.3);
    }

    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let field = |m: &serde_json::Value, k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .expect("name and unit")
                    .to_string()
            };
            let metrics = doc.get(key).and_then(|v| v.as_array()).expect(key);
            metrics
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let owned = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(layers::METRICS));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(args("--workload ping-dlte --seed 3").is_ok());
        assert!(args("--workload nope --seed 3").is_err());
        assert!(args("--workload ping-dlte").is_err(), "seed is required");
        assert!(args("--workload ping-dlte --seed 3 --trace 2").is_err());
        assert!(args("--workload ping-dlte --seed x").is_err());
        assert!(args("--workload ping-dlte --seed 3 --bogus 1").is_err());
        assert!(args("--workload ping-dlte --seed 3 --seconds 0").is_err());
        // Repetition settings are the orchestrator's to pass, not the user's.
        assert!(args("--workload cbr-sharded --seed 3 --shards 1").is_err());
        assert!(args("--workload ping-dlte --seed 3 --spans x.jsonl").is_err());
        let rep = "--workload cbr-sharded --seed 3 --shards 1 --spans x.jsonl";
        let a = parse(rep, true).expect("a rep child takes --shards and --spans");
        assert_eq!((a.shards, a.spans), (1, Some(PathBuf::from("x.jsonl"))));
    }

    /// Reduced-size run of one workload: untraced repetitions replay the
    /// same digest, the traced run matches it and its layer counts close.
    fn smoke(w: Workload) {
        let (a, _) = run_rep(w, 7, w.shards(), false, Size::Smoke);
        let (b, _) = run_rep(w, 7, w.shards(), false, Size::Smoke);
        assert!(
            a.outputs.violations.is_empty(),
            "{:?}",
            a.outputs.violations
        );
        assert!(a.outputs.delivered() > 0, "no traffic completed");
        assert_eq!(a.digest, b.digest, "repetitions diverged");
        if w.shards() > 1 {
            let (one, _) = run_rep(w, 7, 1, false, Size::Smoke);
            assert_eq!(one.digest, a.digest, "1 vs {} shards diverged", w.shards());
        }
        let mut arms = workload::build(w, 7, 1, Size::Smoke);
        trace::wrap(&mut arms);
        let tr = trace::run(&mut arms);
        trace::unwrap(&mut arms);
        let out = workload::outputs(&arms);
        assert_eq!(out.digest(), a.digest, "traced run diverged");
        let handler_free = trace::handler_free_events(&arms);
        assert_eq!(
            tr.agg.check_closure(out.events, out.absorbed, handler_free),
            Vec::<String>::new()
        );
        assert!(tr.agg.hop_steps > 0 && tr.agg.handler_steps > 0);
        assert!(!tr.sampled.is_empty());
    }

    #[test]
    fn smoke_ping_central() {
        smoke(Workload::PingCentral);
    }

    #[test]
    fn smoke_ping_dlte() {
        smoke(Workload::PingDlte);
    }

    #[test]
    fn smoke_handover_storm() {
        smoke(Workload::HandoverStorm);
    }

    #[test]
    fn smoke_cbr_sharded() {
        smoke(Workload::CbrSharded);
    }
}
