//! Shared plumbing for the `dlte-run` experiment runner.
//!
//! The [`runner`] module holds everything the `dlte-run` binary does —
//! argument parsing, registry resolution, parameter overrides, execution,
//! rendering — so the integration tests can drive the exact same code path
//! without spawning a process.
//!
//! With the `count-allocs` feature, the crate installs a counting global
//! allocator so `dlte-run bench`/`profile` can report heap-allocation
//! columns (see [`count_allocs`]).

/// Counting global allocator (feature `count-allocs`): wraps the system
/// allocator and reports every allocation to the thread-local tally behind
/// [`dlte_sim::report::scope`], which turns into the `allocs` /
/// `alloc_bytes` columns of `BENCH_fabric.json` and `BENCH_profile.json`.
/// Dealloc is deliberately uncounted — the interesting number is allocator
/// pressure per event, and the reporting hook must stay allocation-free
/// (it only bumps const-initialized thread-local `Cell`s, so reentry is
/// impossible).
#[cfg(feature = "count-allocs")]
pub mod count_allocs {
    use std::alloc::{GlobalAlloc, Layout, System};

    pub struct CountingAlloc;

    // SAFETY: defers every allocation to `System`; the tally hook touches
    // only a const-initialized thread-local `Cell` (no allocation, no lazy
    // init, no destructor), so it is safe to call from inside the
    // allocator on any thread.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            dlte_sim::report::note_alloc(layout.size());
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            dlte_sim::report::note_alloc(layout.size());
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            dlte_sim::report::note_alloc(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING_ALLOC: CountingAlloc = CountingAlloc;
}

pub mod runner {
    use dlte::experiments::registry::{find, registry, Experiment, ExperimentError};
    use dlte::experiments::Table;
    use serde_json::{Map, Value};

    /// A parsed `dlte-run` command line.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Invocation {
        /// Experiment ids, run in the order given; `"all"` expands to the
        /// whole registry in report order.
        pub targets: Vec<String>,
        /// Emit JSON instead of human-readable tables.
        pub json: bool,
        /// Worker-thread override for parallel sweeps (`--jobs N`).
        pub jobs: Option<usize>,
        /// Seed override, injected into each experiment's params as `seed`
        /// (ignored by experiments without a seed knob).
        pub seed: Option<u64>,
        /// JSON object of parameter overrides; fields it omits keep their
        /// defaults, fields unknown to an experiment are ignored.
        pub params: Option<Value>,
        /// List registry ids and titles instead of running anything.
        pub list: bool,
        /// Write the structured event trace as JSONL to this file
        /// (`--trace FILE`). Deterministic for a given seed and independent
        /// of `--jobs`.
        pub trace: Option<String>,
        /// Attach the full metrics snapshot (counters, gauges, histograms)
        /// to each table's `meta` (`--metrics`).
        pub metrics: bool,
        /// Profile mode (`dlte-run profile <id...>`): run the targets and
        /// write per-experiment timing to `BENCH_profile.json`.
        pub profile: bool,
        /// Engine shard count for every simulation built by this run
        /// (`--shards N`; 0 = one shard per CPU core). Results are
        /// bit-identical for any value.
        pub shards: Option<usize>,
    }

    impl Default for Invocation {
        fn default() -> Self {
            Invocation {
                targets: vec!["all".to_string()],
                json: false,
                jobs: None,
                seed: None,
                params: None,
                list: false,
                trace: None,
                metrics: false,
                profile: false,
                shards: None,
            }
        }
    }

    pub const USAGE: &str = "usage: dlte-run <id...|all> [--json] [--jobs N] [--shards N] [--seed S] [--params JSON] [--trace FILE] [--metrics]\n       dlte-run profile <id...> [--jobs N] [--seed S] [--params JSON]\n       dlte-run bench [id...] [--sizes N,N,...] [--shards N,N,...] [--ues-per-ap N] [--seed S] [--total SECS] [--out FILE] [--baseline FILE | --mem-baseline]\n       dlte-run fuzz [--seeds A..B] [--shards N] [--out DIR] [--repro FILE] [--registry] [--mobility]\n       dlte-run --list";

    /// Parse command-line arguments (without the program name).
    pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, String> {
        let mut inv = Invocation::default();
        let mut targets: Vec<String> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => inv.json = true,
                "--list" => inv.list = true,
                "--metrics" => inv.metrics = true,
                "--trace" => {
                    let v = args.next().ok_or("--trace needs a file path")?;
                    inv.trace = Some(v);
                }
                "profile" if targets.is_empty() && !inv.profile => inv.profile = true,
                "--jobs" => {
                    let v = args.next().ok_or("--jobs needs a thread count")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    inv.jobs = Some(n);
                }
                "--shards" => {
                    let v = args
                        .next()
                        .ok_or("--shards needs a shard count (0 = per-CPU)")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --shards value {v:?}"))?;
                    inv.shards = Some(n);
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    inv.seed = Some(v.parse().map_err(|_| format!("bad --seed value {v:?}"))?);
                }
                "--params" => {
                    let v = args.next().ok_or("--params needs a JSON object")?;
                    let parsed: Value =
                        serde_json::from_str(&v).map_err(|e| format!("bad --params JSON: {e}"))?;
                    if !matches!(parsed, Value::Object(_)) {
                        return Err("--params must be a JSON object".into());
                    }
                    inv.params = Some(parsed);
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag:?}\n{USAGE}"));
                }
                id => targets.push(id.to_string()),
            }
        }
        if targets.is_empty() && !inv.list {
            return Err(USAGE.to_string());
        }
        if !targets.is_empty() {
            inv.targets = targets;
        }
        Ok(inv)
    }

    /// The params an invocation hands to one experiment: the caller's
    /// `--params` object (or `{}`), with `--seed` injected on top.
    /// Defaults for omitted fields come from the experiment's own
    /// `#[serde(default)]` fallback.
    pub fn effective_params(inv: &Invocation) -> Value {
        let mut params = inv
            .params
            .clone()
            .unwrap_or_else(|| Value::Object(Map::new()));
        if let (Some(seed), Value::Object(map)) = (inv.seed, &mut params) {
            map.insert(
                "seed".to_string(),
                serde_json::to_value(seed).expect("u64 serializes"),
            );
        }
        params
    }

    /// The experiments an invocation selects, in execution order. Each
    /// target resolves independently; `all` expands in place to the whole
    /// registry.
    pub fn selection(inv: &Invocation) -> Result<Vec<&'static dyn Experiment>, ExperimentError> {
        let mut out = Vec::new();
        for target in &inv.targets {
            if target.eq_ignore_ascii_case("all") {
                out.extend(registry().iter().copied());
            } else {
                out.push(find(target)?);
            }
        }
        Ok(out)
    }

    /// Execute an invocation: apply `--jobs`, resolve the selection, run each
    /// experiment instrumented, and return the tables in execution order.
    ///
    /// With `trace` set, event tracing is enabled for the whole invocation;
    /// the caller collects the buffered records afterwards with
    /// [`take_trace_jsonl`] (which also turns tracing back off). With
    /// `metrics` set, each table's `meta` carries the full metrics snapshot.
    pub fn run(inv: &Invocation) -> Result<Vec<Table>, ExperimentError> {
        if let Some(n) = inv.jobs {
            dlte_sim::set_jobs(n);
        }
        if let Some(n) = inv.shards {
            dlte_sim::set_shards(n);
        }
        dlte_obs::metrics::set_capture(inv.metrics);
        if inv.trace.is_some() {
            dlte_obs::set_tracing(true);
        }
        let params = effective_params(inv);
        selection(inv)?
            .iter()
            .map(|exp| exp.run_instrumented(&params))
            .collect()
    }

    /// Drain the event trace buffered by a `run` with tracing enabled and
    /// render it as JSONL — one [`dlte_obs::Record`] per line, `seq` dense
    /// from 0 across the whole invocation. Disables tracing afterwards.
    pub fn take_trace_jsonl() -> String {
        let records = dlte_obs::take_records();
        dlte_obs::set_tracing(false);
        let mut out = String::with_capacity(records.len() * 64);
        for r in &records {
            out.push_str(&serde_json::to_string(r).expect("record serializes"));
            out.push('\n');
        }
        out
    }

    /// One `BENCH_profile.json` entry: an experiment's identity plus the
    /// run instrumentation from its table's `meta`.
    #[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
    pub struct ProfileEntry {
        pub id: String,
        pub title: String,
        pub wall_ms: f64,
        pub events_dispatched: u64,
        pub sim_time_ns: u64,
        pub events_per_sec: f64,
        pub drops: std::collections::BTreeMap<String, u64>,
        /// Memory columns: heap allocations / bytes requested during the
        /// run (non-zero only under the `count-allocs` allocator) and
        /// packet bytes duplicated by `Packet::clone`.
        #[serde(default)]
        pub allocs: u64,
        #[serde(default)]
        pub alloc_bytes: u64,
        #[serde(default)]
        pub bytes_copied: u64,
    }

    /// The `BENCH_profile.json` document shape.
    #[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
    pub struct Profile {
        pub profile: Vec<ProfileEntry>,
    }

    /// Render profile-mode output: one entry per table with the run's
    /// timing and work counters, as written to `BENCH_profile.json`.
    pub fn render_profile(tables: &[Table]) -> String {
        let entries = tables
            .iter()
            .map(|t| {
                let m = t.meta.clone().unwrap_or_default();
                ProfileEntry {
                    id: t.id.clone(),
                    title: t.title.clone(),
                    wall_ms: m.wall_ms,
                    events_dispatched: m.events_dispatched,
                    sim_time_ns: m.sim_time_ns,
                    events_per_sec: m.events_per_sec,
                    drops: m.drops,
                    allocs: m.allocs,
                    alloc_bytes: m.alloc_bytes,
                    bytes_copied: m.bytes_copied,
                }
            })
            .collect();
        serde_json::to_string_pretty(&Profile { profile: entries }).expect("profile serializes")
    }

    /// One line per registry entry: `id  title`, plus a footer naming the
    /// experiments `dlte-run bench` can size-sweep.
    pub fn render_list() -> String {
        let mut out = registry()
            .iter()
            .map(|e| format!("{:<4} {}", e.id(), e.title()))
            .collect::<Vec<_>>()
            .join("\n");
        out.push_str(&format!(
            "\n\nbench-capable (dlte-run bench): {}",
            SIZEABLE.join(", ")
        ));
        out
    }

    /// Render run output. JSON: a single table prints as one object, several
    /// print as an array (both carry `meta`). Text: each table followed by a
    /// one-line run summary from its meta.
    pub fn render(tables: &[Table], json: bool) -> String {
        if json {
            if tables.len() == 1 {
                tables[0].to_json()
            } else {
                serde_json::to_string_pretty(&tables.iter().collect::<Vec<_>>())
                    .expect("tables serialize")
            }
        } else {
            tables
                .iter()
                .map(|t| {
                    let mut s = t.to_string();
                    if let Some(m) = &t.meta {
                        s.push_str(&format!(
                            "run: {:.1} ms wall, {} events, {:.1} s simulated, {:.0} events/s\n",
                            m.wall_ms,
                            m.events_dispatched,
                            m.sim_secs(),
                            m.events_per_sec
                        ));
                    }
                    s
                })
                .collect::<Vec<_>>()
                .join("\n")
        }
    }

    /// Experiments whose `Params` accept a `sizes` topology sweep — the
    /// only valid `dlte-run bench` targets. `e15` sweeps architectures
    /// into `BENCH_fabric.json`; `e16` sweeps engine shard counts into
    /// `BENCH_shard.json`.
    pub const SIZEABLE: &[&str] = &["e15", "e16"];

    /// A parsed `dlte-run bench` command line: a macro-benchmark sweep
    /// over topology sizes, written to `BENCH_fabric.json` (or, for the
    /// shard sweep, `BENCH_shard.json`; override with `--out`).
    /// `--baseline FILE` loads a previous document and attaches
    /// per-(arch, size) events/sec speedups against its runs.
    #[derive(Clone, Debug, PartialEq)]
    pub struct BenchInvocation {
        /// Bench targets; every id must be in [`SIZEABLE`].
        pub targets: Vec<String>,
        /// Topology sizes to sweep (approximate node counts for `e15`,
        /// total UE counts for `e16`).
        pub sizes: Vec<usize>,
        pub seed: Option<u64>,
        /// Simulated seconds per arm (`--total`).
        pub total_s: Option<f64>,
        /// Output document path; `None` picks the target's default name.
        pub out: Option<String>,
        /// Previous `BENCH_fabric.json` to compare against (`e15` only).
        pub baseline: Option<String>,
        /// Record the baseline in the same process by first running every
        /// arm in naive-memory mode (`dlte_net::set_naive_memory`), then in
        /// the default fast mode (`e15` only; excludes `--baseline`).
        pub mem_baseline: bool,
        /// Engine shard counts each size runs at (`e16` only).
        pub shards: Option<Vec<usize>>,
        /// UEs homed on each AP (`e16` only); the AP count follows as
        /// `size / ues_per_ap`.
        pub ues_per_ap: Option<usize>,
    }

    impl Default for BenchInvocation {
        fn default() -> Self {
            BenchInvocation {
                targets: vec!["e15".to_string()],
                sizes: vec![50, 200, 1000],
                seed: None,
                total_s: None,
                out: None,
                baseline: None,
                mem_baseline: false,
                shards: None,
                ues_per_ap: None,
            }
        }
    }

    impl BenchInvocation {
        /// Where the document goes: `--out` if given, else the default
        /// name for the target kind.
        pub fn out_path(&self) -> &str {
            match &self.out {
                Some(p) => p,
                None if self.targets.iter().any(|t| t == "e16") => "BENCH_shard.json",
                None => "BENCH_fabric.json",
            }
        }
    }

    /// Parse the arguments after the leading `bench` word. Targets must
    /// support topology sizing; anything else gets a pointed error rather
    /// than a silent single-size run.
    pub fn parse_bench_args<I: IntoIterator<Item = String>>(
        args: I,
    ) -> Result<BenchInvocation, String> {
        let mut inv = BenchInvocation::default();
        let mut targets: Vec<String> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--sizes" => {
                    let v = args.next().ok_or("--sizes needs a list like 50,200,1000")?;
                    let sizes: Result<Vec<usize>, _> =
                        v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                    inv.sizes =
                        sizes.map_err(|_| format!("bad --sizes value {v:?} (want 50,200,1000)"))?;
                    if inv.sizes.is_empty() || inv.sizes.contains(&0) {
                        return Err(format!("--sizes must be positive node counts, got {v:?}"));
                    }
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    inv.seed = Some(v.parse().map_err(|_| format!("bad --seed value {v:?}"))?);
                }
                "--total" => {
                    let v = args.next().ok_or("--total needs simulated seconds")?;
                    let t: f64 = v.parse().map_err(|_| format!("bad --total value {v:?}"))?;
                    if !t.is_finite() || t <= 0.0 {
                        return Err(format!("--total must be positive, got {v:?}"));
                    }
                    inv.total_s = Some(t);
                }
                "--out" => {
                    inv.out = Some(args.next().ok_or("--out needs a file path")?);
                }
                "--baseline" => {
                    inv.baseline = Some(args.next().ok_or("--baseline needs a file path")?);
                }
                "--mem-baseline" => {
                    inv.mem_baseline = true;
                }
                "--shards" => {
                    let v = args.next().ok_or("--shards needs a list like 1,2,4")?;
                    let shards: Result<Vec<usize>, _> =
                        v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                    let shards =
                        shards.map_err(|_| format!("bad --shards value {v:?} (want 1,2,4)"))?;
                    if shards.is_empty() || shards.contains(&0) {
                        return Err(format!("--shards must be positive shard counts, got {v:?}"));
                    }
                    inv.shards = Some(shards);
                }
                "--ues-per-ap" => {
                    let v = args.next().ok_or("--ues-per-ap needs a count")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("bad --ues-per-ap value {v:?}"))?;
                    if n == 0 {
                        return Err("--ues-per-ap must be at least 1".into());
                    }
                    inv.ues_per_ap = Some(n);
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown bench flag {flag:?}\n{USAGE}"));
                }
                id => targets.push(id.to_string()),
            }
        }
        if !targets.is_empty() {
            inv.targets = targets;
        }
        let mut kinds = std::collections::BTreeSet::new();
        for id in &inv.targets {
            // Unknown ids get the registry's error; known-but-unsizeable
            // ids get told which experiments bench can sweep.
            let exp = find(id).map_err(|e| e.to_string())?;
            if !SIZEABLE.contains(&exp.id()) {
                return Err(format!(
                    "experiment {:?} does not support topology sizing; \
                     bench targets must take a `sizes` sweep (try: {})",
                    exp.id(),
                    SIZEABLE.join(", ")
                ));
            }
            kinds.insert(exp.id());
        }
        // The two bench kinds write different document shapes; one
        // invocation produces one document.
        if kinds.len() > 1 {
            return Err(format!(
                "bench targets {:?} write different documents (fabric vs shard sweep); \
                 run them as separate invocations",
                inv.targets
            ));
        }
        let shard_sweep = kinds.contains("e16");
        if !shard_sweep && inv.shards.is_some() {
            return Err("--shards only applies to the shard sweep (bench e16)".into());
        }
        if !shard_sweep && inv.ues_per_ap.is_some() {
            return Err("--ues-per-ap only applies to the shard sweep (bench e16)".into());
        }
        if shard_sweep && inv.baseline.is_some() {
            return Err(
                "bench e16 compares shard counts within one run and takes no --baseline".into(),
            );
        }
        if shard_sweep && inv.mem_baseline {
            return Err("--mem-baseline only applies to the fabric sweep (bench e15)".into());
        }
        if inv.mem_baseline && inv.baseline.is_some() {
            return Err(
                "--baseline and --mem-baseline both define the comparison baseline; pick one"
                    .into(),
            );
        }
        Ok(inv)
    }

    /// One entry of the bench document's `speedup` array: the optimized
    /// run's events/sec over the baseline's, per (arch, size).
    #[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
    #[serde(default)]
    pub struct Speedup {
        pub arch: String,
        pub size: usize,
        pub baseline_events_per_sec: f64,
        pub events_per_sec: f64,
        pub ratio: f64,
        /// Heap allocations per dispatched event, baseline vs this run.
        /// Zero when either side was recorded without the counting
        /// allocator (`count-allocs`), in which case `alloc_ratio` is also
        /// zero rather than a misleading infinity.
        pub baseline_allocs_per_event: f64,
        pub allocs_per_event: f64,
        /// How many times fewer allocations per event this run does than
        /// the baseline (`baseline_allocs_per_event / allocs_per_event`).
        pub alloc_ratio: f64,
    }

    impl Default for Speedup {
        fn default() -> Self {
            Speedup {
                arch: String::new(),
                size: 0,
                baseline_events_per_sec: 0.0,
                events_per_sec: 0.0,
                ratio: 0.0,
                baseline_allocs_per_event: 0.0,
                allocs_per_event: 0.0,
                alloc_ratio: 0.0,
            }
        }
    }

    /// The `BENCH_fabric.json` document: the current runs, the baseline
    /// runs they were compared against (empty without `--baseline`), and
    /// the per-(arch, size) speedups.
    #[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
    #[serde(default)]
    pub struct FabricBench {
        pub sizes: Vec<usize>,
        pub seed: u64,
        pub total_s: f64,
        pub runs: Vec<dlte::experiments::e15_fabric_scale::BenchRun>,
        pub baseline: Vec<dlte::experiments::e15_fabric_scale::BenchRun>,
        pub speedup: Vec<Speedup>,
        /// True when `baseline` holds naive-memory arms recorded by this
        /// same process (`--mem-baseline`) rather than a loaded file.
        pub mem_baseline: bool,
    }

    /// Match current runs to baseline runs by (arch, size) and compute
    /// events/sec ratios. A baseline that cannot be compared — a current
    /// run with no (arch, size) counterpart, or a baseline run whose
    /// recorded throughput is not a positive finite number — is an error,
    /// not a silently-dropped row or a 0.0 ratio.
    pub fn bench_speedups(
        baseline: &[dlte::experiments::e15_fabric_scale::BenchRun],
        runs: &[dlte::experiments::e15_fabric_scale::BenchRun],
    ) -> Result<Vec<Speedup>, String> {
        runs.iter()
            .map(|r| {
                let b = baseline
                    .iter()
                    .find(|b| b.arch == r.arch && b.size == r.size)
                    .ok_or_else(|| {
                        format!(
                            "baseline has no run for arch {:?} at size {} — it was recorded \
                             for a different sweep; re-record it with matching --sizes",
                            r.arch, r.size
                        )
                    })?;
                if !(b.events_per_sec.is_finite() && b.events_per_sec > 0.0) {
                    return Err(format!(
                        "baseline run for arch {:?} at size {} records a non-positive \
                         throughput ({} events/s) — the file is corrupt or was written \
                         by a failed run; re-record it",
                        b.arch, b.size, b.events_per_sec
                    ));
                }
                let per_event = |allocs: u64, events: u64| {
                    if events == 0 {
                        0.0
                    } else {
                        allocs as f64 / events as f64
                    }
                };
                let base_ape = per_event(b.allocs, b.events_dispatched);
                let ape = per_event(r.allocs, r.events_dispatched);
                Ok(Speedup {
                    arch: r.arch.clone(),
                    size: r.size,
                    baseline_events_per_sec: b.events_per_sec,
                    events_per_sec: r.events_per_sec,
                    ratio: r.events_per_sec / b.events_per_sec,
                    baseline_allocs_per_event: base_ape,
                    allocs_per_event: ape,
                    // Meaningful only when both sides were counted.
                    alloc_ratio: if base_ape > 0.0 && ape > 0.0 {
                        base_ape / ape
                    } else {
                        0.0
                    },
                })
            })
            .collect()
    }

    /// Execute a bench invocation: run the size sweep sequentially (each
    /// arm's wall clock is measured unshared), load the baseline document
    /// if given, and return the comparison document. The caller writes it
    /// to `inv.out`.
    pub fn run_bench(inv: &BenchInvocation) -> Result<FabricBench, String> {
        use dlte::experiments::e15_fabric_scale as e15;
        let mut p = e15::Params {
            sizes: inv.sizes.clone(),
            ..Default::default()
        };
        if let Some(s) = inv.seed {
            p.seed = s;
        }
        if let Some(t) = inv.total_s {
            p.total_s = t;
        }
        let baseline = if inv.mem_baseline {
            // Record the before/after memory comparison in one process:
            // naive-memory arms first (heap-spilled tunnels, Arc-always
            // control, boxed arrivals, clone-per-handler), then the fast
            // arms below. The mode is captured at topology build time, so
            // flipping the flag between sweeps is sufficient.
            dlte_net::set_naive_memory(true);
            let naive = e15::bench_runs(&p);
            dlte_net::set_naive_memory(false);
            naive
        } else {
            match &inv.baseline {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("reading --baseline {path}: {e}"))?;
                    let doc: FabricBench = serde_json::from_str(&text)
                        .map_err(|e| format!("parsing --baseline {path}: {e}"))?;
                    // Fail before the (expensive) sweep runs: a baseline
                    // recorded for different sizes can't be compared, and an
                    // empty `runs` means the file isn't a bench document at
                    // all (every field defaults, so any JSON object parses).
                    if doc.runs.is_empty() {
                        return Err(format!(
                            "--baseline {path} contains no runs — not a BENCH_fabric.json \
                             document (or written by a failed run)"
                        ));
                    }
                    if doc.sizes != p.sizes {
                        return Err(format!(
                            "--baseline {path} was recorded for sizes {:?} but this run sweeps \
                             {:?}; pass matching --sizes or re-record the baseline",
                            doc.sizes, p.sizes
                        ));
                    }
                    doc.runs
                }
                None => Vec::new(),
            }
        };
        let runs = e15::bench_runs(&p);
        let speedup = if baseline.is_empty() {
            Vec::new()
        } else {
            let what = if inv.mem_baseline {
                "--mem-baseline".to_string()
            } else {
                format!("--baseline {}", inv.baseline.as_deref().unwrap_or(""))
            };
            bench_speedups(&baseline, &runs).map_err(|e| format!("{what}: {e}"))?
        };
        Ok(FabricBench {
            sizes: p.sizes.clone(),
            seed: p.seed,
            total_s: p.total_s,
            runs,
            baseline,
            speedup,
            mem_baseline: inv.mem_baseline,
        })
    }

    /// Human-readable bench report: one line per run, plus speedup lines
    /// when a baseline was compared.
    pub fn render_bench(doc: &FabricBench) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut line = |r: &dlte::experiments::e15_fabric_scale::BenchRun, tag: &str| {
            let _ = write!(
                out,
                "{:<12} size {:>5} ({} nodes, {} UEs): {} events in {:.1} ms \
                 ({:.0} events/s), {} pkts forwarded, {} pongs",
                format!("{}{}", r.arch, tag),
                r.size,
                r.nodes,
                r.ues,
                r.events_dispatched,
                r.wall_ms,
                r.events_per_sec,
                r.packets_forwarded,
                r.pongs
            );
            if r.allocs > 0 {
                let _ = write!(
                    out,
                    ", {} allocs ({} B), {} B copied",
                    r.allocs, r.alloc_bytes, r.bytes_copied
                );
            }
            out.push('\n');
        };
        if doc.mem_baseline {
            for r in &doc.baseline {
                line(r, "/naive");
            }
        }
        for r in &doc.runs {
            line(r, "");
        }
        for s in &doc.speedup {
            let _ = write!(
                out,
                "speedup {:<12} size {:>5}: {:.2}x ({:.0} -> {:.0} events/s)",
                s.arch, s.size, s.ratio, s.baseline_events_per_sec, s.events_per_sec
            );
            if s.alloc_ratio > 0.0 {
                let _ = write!(
                    out,
                    ", {:.1}x fewer allocs/event ({:.1} -> {:.1})",
                    s.alloc_ratio, s.baseline_allocs_per_event, s.allocs_per_event
                );
            }
            out.push('\n');
        }
        out
    }

    /// The `BENCH_shard.json` document: one dLTE deployment per size, run
    /// at each shard count. The counter columns are bit-identical across
    /// shard counts (asserted by the sweep itself); the timing columns are
    /// this machine's.
    #[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
    #[serde(default)]
    pub struct ShardBench {
        pub sizes: Vec<usize>,
        pub ues_per_ap: usize,
        pub shard_counts: Vec<usize>,
        pub seed: u64,
        pub total_s: f64,
        /// Worker threads `available_parallelism` reported on the machine
        /// that recorded the document — context for the speedup numbers.
        pub cores: usize,
        pub runs: Vec<dlte::experiments::e16_shard_scale::ShardBenchRun>,
    }

    /// Execute a shard-sweep bench invocation (`bench e16`): run every
    /// (size × shard count) combination sequentially and return the
    /// document for `BENCH_shard.json`. Fails, naming the size and shard
    /// counts, if any work counter diverges across shard counts.
    pub fn run_shard_bench(inv: &BenchInvocation) -> Result<ShardBench, String> {
        use dlte::experiments::e16_shard_scale as e16;
        let mut p = e16::Params {
            sizes: inv.sizes.clone(),
            ..Default::default()
        };
        if let Some(s) = inv.seed {
            p.seed = s;
        }
        if let Some(t) = inv.total_s {
            p.total_s = t;
        }
        if let Some(shards) = &inv.shards {
            p.shard_counts = shards.clone();
        }
        if let Some(n) = inv.ues_per_ap {
            p.ues_per_ap = n;
        }
        let runs = e16::bench_runs(&p).map_err(|e| e.to_string())?;
        Ok(ShardBench {
            sizes: p.sizes.clone(),
            ues_per_ap: p.ues_per_ap,
            shard_counts: p.shard_counts.clone(),
            seed: p.seed,
            total_s: p.total_s,
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            runs,
        })
    }

    /// Human-readable shard-bench report: one line per run, plus a
    /// per-size speedup line against that size's single-shard run.
    pub fn render_shard_bench(doc: &ShardBench) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &doc.runs {
            let _ = writeln!(
                out,
                "size {:>7} x {} shard(s) ({} nodes, {} UEs): {} events in {:.1} ms \
                 ({:.0} events/s), {} pkts forwarded, {} delivered",
                r.size,
                r.shards,
                r.nodes,
                r.ues,
                r.events_dispatched,
                r.wall_ms,
                r.events_per_sec,
                r.packets_forwarded,
                r.delivered
            );
        }
        for &size in &doc.sizes {
            let base = doc
                .runs
                .iter()
                .find(|r| r.size == size && r.shards == 1)
                .map(|r| r.events_per_sec);
            if let Some(base) = base.filter(|b| *b > 0.0) {
                for r in doc.runs.iter().filter(|r| r.size == size && r.shards > 1) {
                    let _ = writeln!(
                        out,
                        "speedup size {:>7} at {} shards: {:.2}x ({:.0} -> {:.0} events/s, {} cores)",
                        size,
                        r.shards,
                        r.events_per_sec / base,
                        base,
                        r.events_per_sec,
                        doc.cores
                    );
                }
            }
        }
        out
    }

    /// The two documents `dlte-run bench` can produce, unified so the
    /// binary has one code path for running, rendering and writing.
    #[derive(Clone, Debug)]
    pub enum BenchDoc {
        Fabric(FabricBench),
        Shard(ShardBench),
    }

    // Untagged: each document serializes as itself, so the files on disk
    // stay plain FabricBench / ShardBench shapes.
    impl serde::Serialize for BenchDoc {
        fn serialize_value(&self) -> serde_json::Value {
            match self {
                BenchDoc::Fabric(d) => d.serialize_value(),
                BenchDoc::Shard(d) => d.serialize_value(),
            }
        }
    }

    /// Run whichever bench kind the invocation selects (`parse_bench_args`
    /// guarantees the targets are all one kind).
    pub fn run_bench_doc(inv: &BenchInvocation) -> Result<BenchDoc, String> {
        if inv.targets.iter().any(|t| t == "e16") {
            run_shard_bench(inv).map(BenchDoc::Shard)
        } else {
            run_bench(inv).map(BenchDoc::Fabric)
        }
    }

    /// Render either bench document for the terminal.
    pub fn render_bench_doc(doc: &BenchDoc) -> String {
        match doc {
            BenchDoc::Fabric(d) => render_bench(d),
            BenchDoc::Shard(d) => render_shard_bench(d),
        }
    }

    /// A parsed `dlte-run fuzz` command line. Fuzz mode is a separate
    /// dispatch from the experiment registry: `dlte-run fuzz [--seeds A..B]
    /// [--out DIR]` sweeps seeds through `dlte::fuzz`, and `--repro FILE`
    /// replays one minimized case bit-for-bit instead.
    #[derive(Clone, Debug, PartialEq)]
    pub struct FuzzInvocation {
        pub seed_start: u64,
        pub seed_end: u64,
        /// Directory minimized `fuzz_repro_<seed>.json` files are written to.
        pub out_dir: String,
        /// Replay this repro file instead of sweeping.
        pub repro: Option<String>,
        /// Engine shard count for every fuzz case (`--shards N`; 0 =
        /// per-CPU). Oracles and evidence are bit-identical for any value.
        pub shards: Option<usize>,
        /// Fuzz the spectrum registry (`dlte::fuzz_registry`) instead of
        /// the network chaos cases. Repros are
        /// `fuzz_repro_registry_<seed>.json`.
        pub registry: bool,
        /// Layer seeded moving-UE populations (handover storms) under the
        /// chaos plans (`--mobility`; `dlte::fuzz::generate_mobility`).
        pub mobility: bool,
    }

    impl Default for FuzzInvocation {
        fn default() -> Self {
            FuzzInvocation {
                seed_start: 0,
                seed_end: 100,
                out_dir: ".".to_string(),
                repro: None,
                shards: None,
                registry: false,
                mobility: false,
            }
        }
    }

    /// Parse the arguments after the leading `fuzz` word.
    pub fn parse_fuzz_args<I: IntoIterator<Item = String>>(
        args: I,
    ) -> Result<FuzzInvocation, String> {
        let mut inv = FuzzInvocation::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seeds" => {
                    let v = args.next().ok_or("--seeds needs a range like 0..200")?;
                    let (a, b) = v
                        .split_once("..")
                        .ok_or_else(|| format!("bad --seeds range {v:?} (want A..B)"))?;
                    inv.seed_start = a.parse().map_err(|_| format!("bad --seeds start {a:?}"))?;
                    inv.seed_end = b.parse().map_err(|_| format!("bad --seeds end {b:?}"))?;
                    if inv.seed_end <= inv.seed_start {
                        return Err(format!("empty --seeds range {v:?}"));
                    }
                }
                "--out" => {
                    inv.out_dir = args.next().ok_or("--out needs a directory")?;
                }
                "--repro" => {
                    inv.repro = Some(args.next().ok_or("--repro needs a file path")?);
                }
                "--registry" => {
                    inv.registry = true;
                }
                "--mobility" => {
                    inv.mobility = true;
                }
                "--shards" => {
                    let v = args
                        .next()
                        .ok_or("--shards needs a shard count (0 = per-CPU)")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --shards value {v:?}"))?;
                    inv.shards = Some(n);
                }
                other => return Err(format!("unknown fuzz argument {other:?}\n{USAGE}")),
            }
        }
        if inv.registry && inv.mobility {
            return Err(
                "--mobility layers moving UEs under network chaos; it does not apply to --registry"
                    .to_string(),
            );
        }
        Ok(inv)
    }

    /// Execute a fuzz invocation. Returns the rendered report and whether
    /// every oracle held (`false` means the caller should exit nonzero).
    /// Failing sweep seeds write their minimized repro to
    /// `<out_dir>/fuzz_repro_<seed>.json`.
    pub fn run_fuzz(inv: &FuzzInvocation) -> (String, bool) {
        use dlte::fuzz;
        use std::fmt::Write as _;
        if let Some(n) = inv.shards {
            dlte_sim::set_shards(n);
        }
        if inv.registry {
            return run_fuzz_registry(inv);
        }
        let mut out = String::new();
        if let Some(path) = &inv.repro {
            match fuzz::replay_repro(std::path::Path::new(path)) {
                Ok((repro, report)) => {
                    let _ = writeln!(
                        out,
                        "replay seed {} ({}, {} cells x {} ues, {} fault specs):",
                        repro.seed,
                        repro.case.arch,
                        repro.case.n_cells,
                        repro.case.ues_per_cell,
                        repro.case.plan.faults.len()
                    );
                    for v in &report.violations {
                        let _ = writeln!(out, "  {v}");
                    }
                    if report.violations.is_empty() {
                        let _ = writeln!(out, "  all oracles green (bug no longer reproduces)");
                    }
                    (out, report.violations.is_empty())
                }
                Err(e) => (format!("fuzz replay: {e}\n"), false),
            }
        } else {
            let mut failures = 0u64;
            for seed in inv.seed_start..inv.seed_end {
                if let Some(repro) = fuzz::fuzz_seed_with(seed, inv.mobility) {
                    failures += 1;
                    let _ = writeln!(
                        out,
                        "seed {seed} FAILED ({} violations, minimized to {} fault specs in {} runs):",
                        repro.violations.len(),
                        repro.case.plan.faults.len(),
                        repro.shrink_runs
                    );
                    for v in &repro.violations {
                        let _ = writeln!(out, "  {v}");
                    }
                    match fuzz::write_repro(&repro, std::path::Path::new(&inv.out_dir)) {
                        Ok(path) => {
                            let _ = writeln!(out, "  repro: {}", path.display());
                        }
                        Err(e) => {
                            let _ = writeln!(out, "  repro write failed: {e}");
                        }
                    }
                }
            }
            let cases = inv.seed_end - inv.seed_start;
            let _ = writeln!(
                out,
                "fuzz{}: {cases} cases ({}..{}), {failures} failed",
                if inv.mobility { " --mobility" } else { "" },
                inv.seed_start,
                inv.seed_end
            );
            (out, failures == 0)
        }
    }

    /// The `--registry` arm of [`run_fuzz`]: sweep (or replay) seeded
    /// registry chaos workloads through `dlte::fuzz_registry`.
    fn run_fuzz_registry(inv: &FuzzInvocation) -> (String, bool) {
        use dlte::fuzz_registry;
        use std::fmt::Write as _;
        let mut out = String::new();
        if let Some(path) = &inv.repro {
            match fuzz_registry::replay_registry_repro(std::path::Path::new(path)) {
                Ok((repro, outcome)) => {
                    let w = &repro.workload;
                    let _ = writeln!(
                        out,
                        "replay registry seed {} ({}, {} zones, {} replicas, {} aps, {} fault specs):",
                        repro.seed,
                        w.flavour,
                        w.n_zones,
                        w.n_replicas,
                        w.n_aps,
                        w.plan.faults.len()
                    );
                    for v in &outcome.violations {
                        let _ = writeln!(out, "  {v}");
                    }
                    if outcome.violations.is_empty() {
                        let _ = writeln!(out, "  all oracles green (bug no longer reproduces)");
                    }
                    (out, outcome.violations.is_empty())
                }
                Err(e) => (format!("registry fuzz replay: {e}\n"), false),
            }
        } else {
            let mut failures = 0u64;
            for seed in inv.seed_start..inv.seed_end {
                if let Some(repro) = fuzz_registry::fuzz_registry_seed(seed) {
                    failures += 1;
                    let _ = writeln!(
                        out,
                        "registry seed {seed} FAILED ({} violations, minimized to {} fault specs in {} runs):",
                        repro.violations.len(),
                        repro.workload.plan.faults.len(),
                        repro.shrink_runs
                    );
                    for v in &repro.violations {
                        let _ = writeln!(out, "  {v}");
                    }
                    match fuzz_registry::write_registry_repro(
                        &repro,
                        std::path::Path::new(&inv.out_dir),
                    ) {
                        Ok(path) => {
                            let _ = writeln!(out, "  repro: {}", path.display());
                        }
                        Err(e) => {
                            let _ = writeln!(out, "  repro write failed: {e}");
                        }
                    }
                }
            }
            let cases = inv.seed_end - inv.seed_start;
            let _ = writeln!(
                out,
                "registry fuzz: {cases} cases ({}..{}), {failures} failed",
                inv.seed_start, inv.seed_end
            );
            (out, failures == 0)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(s: &str) -> Vec<String> {
            s.split_whitespace().map(String::from).collect()
        }

        #[test]
        fn parses_the_documented_forms() {
            let inv = parse_args(args("e5 --json --jobs 4 --seed 7")).unwrap();
            assert_eq!(inv.targets, vec!["e5"]);
            assert!(inv.json);
            assert_eq!(inv.jobs, Some(4));
            assert_eq!(inv.seed, Some(7));
            assert_eq!(inv.shards, None);

            let inv = parse_args(args("e13 --shards 4")).unwrap();
            assert_eq!(inv.shards, Some(4));
            // 0 = one shard per CPU core.
            let inv = parse_args(args("e13 --shards 0")).unwrap();
            assert_eq!(inv.shards, Some(0));

            let inv = parse_args(args("all")).unwrap();
            assert_eq!(inv.targets, vec!["all"]);
            assert!(!inv.json);

            // Several ids run back to back, in the order given.
            let inv = parse_args(args("e13 e14 --json")).unwrap();
            assert_eq!(inv.targets, vec!["e13", "e14"]);
            assert!(inv.json);

            let inv = parse_args(args("--list")).unwrap();
            assert!(inv.list);

            let inv = parse_args(args("e14 --trace /tmp/t.jsonl --metrics")).unwrap();
            assert_eq!(inv.trace.as_deref(), Some("/tmp/t.jsonl"));
            assert!(inv.metrics);

            let inv = parse_args(args("profile e1 e9")).unwrap();
            assert!(inv.profile);
            assert_eq!(inv.targets, vec!["e1", "e9"]);
        }

        #[test]
        fn rejects_malformed_command_lines() {
            assert!(parse_args(args("")).is_err());
            assert!(parse_args(args("e1 --trace")).is_err());
            assert!(parse_args(args("profile")).is_err(), "profile needs ids");
            assert!(parse_args(args("e1 --jobs zero")).is_err());
            assert!(parse_args(args("e1 --jobs 0")).is_err());
            assert!(parse_args(args("e1 --shards two")).is_err());
            assert!(parse_args(args("e1 --frobnicate")).is_err());
            assert!(parse_args(vec!["e1".into(), "--params".into(), "[1,2]".into()]).is_err());
        }

        #[test]
        fn parses_fuzz_command_lines() {
            let inv = parse_fuzz_args(args("--seeds 0..200 --out target/fuzz")).unwrap();
            assert_eq!(inv.seed_start, 0);
            assert_eq!(inv.seed_end, 200);
            assert_eq!(inv.out_dir, "target/fuzz");
            assert_eq!(inv.repro, None);

            let inv = parse_fuzz_args(args("--repro fuzz_repro_7.json")).unwrap();
            assert_eq!(inv.repro.as_deref(), Some("fuzz_repro_7.json"));

            let inv = parse_fuzz_args(args("--seeds 0..10 --shards 2")).unwrap();
            assert_eq!(inv.shards, Some(2));
            assert!(parse_fuzz_args(args("--shards two")).is_err());

            let inv = parse_fuzz_args(args("--registry --seeds 0..50")).unwrap();
            assert!(inv.registry);
            assert_eq!((inv.seed_start, inv.seed_end), (0, 50));
            assert!(!parse_fuzz_args(args("--seeds 0..50")).unwrap().registry);

            let inv = parse_fuzz_args(args("--mobility --seeds 0..120")).unwrap();
            assert!(inv.mobility && !inv.registry);
            assert!(!parse_fuzz_args(args("--seeds 0..50")).unwrap().mobility);
            assert!(
                parse_fuzz_args(args("--registry --mobility")).is_err(),
                "mobility does not compose with registry fuzzing"
            );

            assert_eq!(
                parse_fuzz_args(args("")).unwrap(),
                FuzzInvocation::default()
            );
            assert!(parse_fuzz_args(args("--seeds 5")).is_err());
            assert!(parse_fuzz_args(args("--seeds 7..7")).is_err());
            assert!(parse_fuzz_args(args("--seeds x..9")).is_err());
            assert!(parse_fuzz_args(args("--frobnicate")).is_err());
        }

        #[test]
        fn fuzz_sweep_runs_green_on_a_small_range() {
            let inv = FuzzInvocation {
                seed_start: 0,
                seed_end: 3,
                ..FuzzInvocation::default()
            };
            let (report, ok) = run_fuzz(&inv);
            assert!(ok, "seeds 0..3 should be green:\n{report}");
            assert!(report.contains("3 cases (0..3), 0 failed"));
        }

        #[test]
        fn mobility_fuzz_sweep_runs_green_on_a_small_range() {
            let inv = FuzzInvocation {
                seed_start: 0,
                seed_end: 2,
                mobility: true,
                ..FuzzInvocation::default()
            };
            let (report, ok) = run_fuzz(&inv);
            assert!(ok, "mobility seeds 0..2 should be green:\n{report}");
            assert!(report.contains("fuzz --mobility: 2 cases (0..2), 0 failed"));
        }

        #[test]
        fn registry_fuzz_sweep_runs_green_on_a_small_range() {
            let inv = FuzzInvocation {
                seed_start: 0,
                seed_end: 5,
                registry: true,
                ..FuzzInvocation::default()
            };
            let (report, ok) = run_fuzz(&inv);
            assert!(ok, "registry seeds 0..5 should be green:\n{report}");
            assert!(report.contains("registry fuzz: 5 cases (0..5), 0 failed"));
        }

        #[test]
        fn parses_bench_command_lines() {
            assert_eq!(
                parse_bench_args(args("")).unwrap(),
                BenchInvocation::default()
            );
            let inv = parse_bench_args(args(
                "e15 --sizes 50,200,1000 --seed 7 --total 5.0 --out B.json --baseline old.json",
            ))
            .unwrap();
            assert_eq!(inv.targets, vec!["e15"]);
            assert_eq!(inv.sizes, vec![50, 200, 1000]);
            assert_eq!(inv.seed, Some(7));
            assert_eq!(inv.total_s, Some(5.0));
            assert_eq!(inv.out_path(), "B.json");
            assert_eq!(inv.baseline.as_deref(), Some("old.json"));

            // The shard sweep: its own flags, its own default document.
            let inv = parse_bench_args(args("e16 --sizes 10000 --shards 1,2,4,8 --ues-per-ap 20"))
                .unwrap();
            assert_eq!(inv.targets, vec!["e16"]);
            assert_eq!(inv.shards, Some(vec![1, 2, 4, 8]));
            assert_eq!(inv.ues_per_ap, Some(20));
            assert_eq!(inv.out_path(), "BENCH_shard.json");
            assert_eq!(
                parse_bench_args(args("e15")).unwrap().out_path(),
                "BENCH_fabric.json"
            );

            // Same-process memory baseline.
            let inv = parse_bench_args(args("e15 --mem-baseline")).unwrap();
            assert!(inv.mem_baseline);
        }

        #[test]
        fn bench_rejects_unsizeable_and_malformed_targets() {
            // A real experiment without a `sizes` sweep is refused with a
            // pointer at what bench can run.
            let err = parse_bench_args(args("e14")).unwrap_err();
            assert!(
                err.contains("does not support topology sizing") && err.contains("e15"),
                "unhelpful error: {err}"
            );
            // Unknown ids get the registry's unknown-experiment error.
            let err = parse_bench_args(args("e99")).unwrap_err();
            assert!(err.contains("unknown experiment"), "got: {err}");
            assert!(parse_bench_args(args("--sizes")).is_err());
            assert!(parse_bench_args(args("--sizes 50,x")).is_err());
            assert!(parse_bench_args(args("--sizes 0")).is_err());
            assert!(parse_bench_args(args("--total -1")).is_err());
            assert!(parse_bench_args(args("--frobnicate")).is_err());
            // Shard-sweep flag plumbing: no zero shard counts, no
            // fabric/shard document mixing, no kind-mismatched flags.
            assert!(parse_bench_args(args("e16 --shards 0,2")).is_err());
            assert!(parse_bench_args(args("e16 --shards x")).is_err());
            assert!(parse_bench_args(args("e16 --ues-per-ap 0")).is_err());
            let err = parse_bench_args(args("e15 e16")).unwrap_err();
            assert!(err.contains("separate invocations"), "got: {err}");
            let err = parse_bench_args(args("e15 --shards 1,2")).unwrap_err();
            assert!(err.contains("bench e16"), "got: {err}");
            let err = parse_bench_args(args("e15 --ues-per-ap 10")).unwrap_err();
            assert!(err.contains("bench e16"), "got: {err}");
            let err = parse_bench_args(args("e16 --baseline old.json")).unwrap_err();
            assert!(err.contains("no --baseline"), "got: {err}");
            let err = parse_bench_args(args("e16 --mem-baseline")).unwrap_err();
            assert!(err.contains("bench e15"), "got: {err}");
            let err = parse_bench_args(args("e15 --baseline x.json --mem-baseline")).unwrap_err();
            assert!(err.contains("pick one"), "got: {err}");
        }

        /// `--mem-baseline` records naive-memory arms and fast arms in one
        /// process; the naive arms clone per delivery, the fast arms never
        /// copy a packet.
        #[test]
        fn mem_baseline_records_naive_arms_in_one_process() {
            let inv = BenchInvocation {
                sizes: vec![20],
                total_s: Some(2.0),
                mem_baseline: true,
                ..Default::default()
            };
            let doc = run_bench(&inv).unwrap();
            assert!(doc.mem_baseline);
            assert_eq!(doc.baseline.len(), 2, "naive arm per architecture");
            assert_eq!(doc.runs.len(), 2);
            assert_eq!(doc.speedup.len(), 2);
            for (naive, fast) in doc.baseline.iter().zip(&doc.runs) {
                assert_eq!(
                    (naive.arch.as_str(), naive.size),
                    (fast.arch.as_str(), fast.size)
                );
                // Identical simulation work either way — only memory
                // behavior differs.
                assert_eq!(naive.events_dispatched, fast.events_dispatched);
                assert_eq!(naive.packets_forwarded, fast.packets_forwarded);
                assert_eq!(naive.pongs, fast.pongs);
                assert!(naive.bytes_copied > 0, "naive arms clone per delivery");
                assert_eq!(fast.bytes_copied, 0, "fast arms never copy a packet");
            }
        }

        #[test]
        fn bench_speedups_match_runs_by_arch_and_size() {
            use dlte::experiments::e15_fabric_scale::BenchRun;
            let base = vec![BenchRun {
                arch: "dlte".into(),
                size: 50,
                events_per_sec: 100.0,
                ..Default::default()
            }];
            let now = vec![BenchRun {
                arch: "dlte".into(),
                size: 50,
                events_per_sec: 250.0,
                ..Default::default()
            }];
            let s = bench_speedups(&base, &now).unwrap();
            assert_eq!(s.len(), 1);
            assert_eq!((s[0].arch.as_str(), s[0].size), ("dlte", 50));
            assert!((s[0].ratio - 2.5).abs() < 1e-9);

            // A run with no baseline counterpart is an error, not a
            // silently-missing speedup entry.
            let extra = vec![BenchRun {
                arch: "dlte".into(),
                size: 200,
                events_per_sec: 300.0,
                ..Default::default()
            }];
            let err = bench_speedups(&base, &extra).unwrap_err();
            assert!(err.contains("no run for arch"), "got: {err}");

            // A baseline recorded with zero throughput (failed or corrupt
            // run) is an error, not a 0.0 ratio.
            let dead = vec![BenchRun {
                arch: "dlte".into(),
                size: 50,
                events_per_sec: 0.0,
                ..Default::default()
            }];
            let err = bench_speedups(&dead, &now).unwrap_err();
            assert!(err.contains("non-positive"), "got: {err}");
        }

        #[test]
        fn bench_baseline_failures_are_loud_and_early() {
            let dir = std::env::temp_dir();
            // Missing file.
            let inv = BenchInvocation {
                sizes: vec![20],
                baseline: Some(dir.join("dlte_no_such_baseline.json").display().to_string()),
                ..Default::default()
            };
            let err = run_bench(&inv).unwrap_err();
            assert!(err.contains("reading --baseline"), "got: {err}");

            // Malformed JSON.
            let bad = dir.join("dlte_bad_baseline.json");
            std::fs::write(&bad, "{not json").unwrap();
            let inv = BenchInvocation {
                sizes: vec![20],
                baseline: Some(bad.display().to_string()),
                ..Default::default()
            };
            let err = run_bench(&inv).unwrap_err();
            assert!(err.contains("parsing --baseline"), "got: {err}");

            // Parses, but isn't a bench document (every field defaults).
            let empty = dir.join("dlte_empty_baseline.json");
            std::fs::write(&empty, "{}").unwrap();
            let inv = BenchInvocation {
                sizes: vec![20],
                baseline: Some(empty.display().to_string()),
                ..Default::default()
            };
            let err = run_bench(&inv).unwrap_err();
            assert!(err.contains("contains no runs"), "got: {err}");

            // Recorded for different sizes: refused before the sweep runs.
            let doc = FabricBench {
                sizes: vec![50],
                runs: vec![dlte::experiments::e15_fabric_scale::BenchRun {
                    arch: "dlte".into(),
                    size: 50,
                    events_per_sec: 100.0,
                    ..Default::default()
                }],
                ..Default::default()
            };
            let mismatched = dir.join("dlte_mismatched_baseline.json");
            std::fs::write(&mismatched, serde_json::to_string(&doc).unwrap()).unwrap();
            let inv = BenchInvocation {
                sizes: vec![20],
                baseline: Some(mismatched.display().to_string()),
                ..Default::default()
            };
            let err = run_bench(&inv).unwrap_err();
            assert!(
                err.contains("recorded for sizes [50]") && err.contains("[20]"),
                "got: {err}"
            );
        }

        #[test]
        fn shard_bench_smoke_runs_and_round_trips() {
            let inv = parse_bench_args(args(
                "e16 --sizes 40 --shards 1,2 --ues-per-ap 4 --total 1.0",
            ))
            .unwrap();
            let doc = match run_bench_doc(&inv).unwrap() {
                BenchDoc::Shard(d) => d,
                BenchDoc::Fabric(_) => panic!("e16 must produce the shard document"),
            };
            assert_eq!(doc.runs.len(), 2, "one run per shard count");
            assert_eq!(doc.shard_counts, vec![1, 2]);
            assert!(doc.cores >= 1);
            // The sweep asserts counter invariance itself; spot-check the
            // document agrees.
            assert_eq!(
                doc.runs[0].events_dispatched, doc.runs[1].events_dispatched,
                "counters must be shard-invariant"
            );
            let json = serde_json::to_string(&doc).unwrap();
            let back: ShardBench = serde_json::from_str(&json).unwrap();
            assert_eq!(back.runs.len(), 2);
            let report = render_shard_bench(&doc);
            assert!(
                report.contains("2 shard(s)") && report.contains("speedup"),
                "{report}"
            );
        }

        #[test]
        fn bench_smoke_runs_and_round_trips() {
            let inv = BenchInvocation {
                sizes: vec![20],
                total_s: Some(2.0),
                ..Default::default()
            };
            let doc = run_bench(&inv).unwrap();
            assert_eq!(doc.runs.len(), 2, "both arms at one size");
            assert!(doc.baseline.is_empty() && doc.speedup.is_empty());
            for r in &doc.runs {
                assert!(r.events_dispatched > 0 && r.pongs > 0);
            }
            let json = serde_json::to_string(&doc).unwrap();
            let back: FabricBench = serde_json::from_str(&json).unwrap();
            assert_eq!(back.runs.len(), 2);
            let report = render_bench(&doc);
            assert!(report.contains("centralized") && report.contains("events/s"));
        }

        #[test]
        fn list_names_the_bench_targets() {
            let list = render_list();
            assert!(list.contains("e15"));
            assert!(list.contains("e16"));
            assert!(list.contains("bench-capable (dlte-run bench): e15, e16"));
        }

        #[test]
        fn seed_overrides_params_object() {
            let mut inv = parse_args(vec![
                "e1".into(),
                "--params".into(),
                r#"{"distances_km": [1.0], "seed": 3}"#.into(),
                "--seed".into(),
                "9".into(),
            ])
            .unwrap();
            let params = effective_params(&inv);
            assert_eq!(params.get("seed").and_then(Value::as_u64), Some(9));
            inv.seed = None;
            let params = effective_params(&inv);
            assert_eq!(params.get("seed").and_then(Value::as_u64), Some(3));
        }

        #[test]
        fn selection_resolves_all_single_and_multiple_ids() {
            let all = selection(&Invocation::default()).unwrap();
            assert_eq!(all.len(), 21);
            let one = selection(&Invocation {
                targets: vec!["E13".into()],
                ..Invocation::default()
            })
            .unwrap();
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].id(), "e13");
            let pair = selection(&Invocation {
                targets: vec!["e14".into(), "e13".into()],
                ..Invocation::default()
            })
            .unwrap();
            let ids: Vec<&str> = pair.iter().map(|e| e.id()).collect();
            assert_eq!(ids, vec!["e14", "e13"], "order as given");
            assert!(selection(&Invocation {
                targets: vec!["nope".into()],
                ..Invocation::default()
            })
            .is_err());
        }
    }
}
