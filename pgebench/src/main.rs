//! `pgebench` — the detector's shared benchmark.
//!
//! ```text
//! pgebench --workload {scan-catalog|serve-zipf|train-catalog}
//!          --seed N --seconds S --trace {0|1}
//! ```
//!
//! Every workload makes its inputs from `--seed` alone, measures for
//! `--seconds`, checks the program's outputs, and prints as its last
//! stdout line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end figures
//! (the same four names on every workload); with `--trace 1` a
//! separate run reports every per-layer figure (0 for a layer the
//! workload does not run), the unexplained share of the end-to-end
//! time, and the tracing overhead. The line before it is the run manifest
//! (source revision, host, kernel, build, seed and scale).
//!
//! Layer numbers are taken from outside the program: timed calls into
//! each layer's public functions on the workload's own inputs, the
//! counters the program already returns, and the flight-recorder
//! stages it already exposes. See `README.md` beside this file.

mod prep;
mod scan;
mod serve;
mod train;

use pge_obs::json::Json;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups timed before and again after the measured phase of a scan
/// or serve run; the median of all of them is reported.
const SETUPS: usize = 11;

/// Command-line options shared by every workload.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: run one measured phase or one set-up in a child
    /// process (see [`run_child`] and [`around_setups`]).
    pub phase: Option<String>,
    /// Internal: the work directory a child phase reads its inputs
    /// from.
    pub dir: Option<PathBuf>,
}

fn parse_opts() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let num = |name: &str, default: &str| -> Result<f64, String> {
        get(name)
            .unwrap_or_else(|| default.to_string())
            .parse::<f64>()
            .map_err(|_| format!("{name} expects a number"))
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed")
        .unwrap_or_else(|| "1".into())
        .parse::<u64>()
        .map_err(|_| "--seed expects a whole number".to_string())?;
    let seconds = num("--seconds", "10")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        phase: get("--phase"),
        dir: get("--dir").map(PathBuf::from),
    })
}

/// The end-to-end metrics every workload reports with `--trace 0`,
/// as `BENCHMARK.json` names them. Each means the same kind of thing
/// on every workload; `README.md` says what it measures on each.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("us_per_op", "us"),
    ("pr_auc", "ratio"),
];

/// The per-layer metrics a `--trace 1` run reports, as
/// `BENCHMARK.json` names them. A workload that does not run a layer
/// reports 0 for it.
const PER_LAYER: [(&str, &str); 60] = [
    ("read.ns_per_row", "ns"),
    ("bank.hits", "count"),
    ("bank.misses", "count"),
    ("bank.evictions", "count"),
    ("tokenize.ns_per_text", "ns"),
    ("encode.calls", "count"),
    ("encode.ns_per_call", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.memo_hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_ns", "ns"),
    ("cache.hit_ns.contended", "ns"),
    ("score.ns_per_row", "ns"),
    ("scan.effective_parallelism", "ratio"),
    ("scan.worker_busy_frac", "ratio"),
    ("scan.chunk_read_s", "s"),
    ("scan.chunk_score_s", "s"),
    ("scan.chunk_commit_s", "s"),
    ("scan.commit_ns_per_row", "ns"),
    ("snapshot.open_s", "s"),
    ("scan.flag_rate", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("scan.unexplained_frac", "ratio"),
    ("gateway.shed", "count"),
    ("gateway.routing_skew", "ratio"),
    ("serve.flag_rate", "ratio"),
    ("loadgen.late_ms", "ms"),
    ("serve.e2e_p50_ms", "ms"),
    ("serve.e2e_p99_ms", "ms"),
    ("http.parse_ns_per_req", "ns"),
    ("json.parse_ns_per_item", "ns"),
    ("bank.lookup_ns", "ns"),
    ("gateway.route_us.p50", "us"),
    ("gateway.route_us.p99", "us"),
    ("gateway.queue_wait_us.p50", "us"),
    ("gateway.queue_wait_us.p99", "us"),
    ("gateway.batch_assemble_us.p50", "us"),
    ("gateway.batch_assemble_us.p99", "us"),
    ("gateway.encode_us.p50", "us"),
    ("gateway.encode_us.p99", "us"),
    ("gateway.score_us.p50", "us"),
    ("gateway.score_us.p99", "us"),
    ("gateway.write_back_us.p50", "us"),
    ("gateway.write_back_us.p99", "us"),
    ("gateway.batch_items", "count"),
    ("gateway.traced_requests", "count"),
    ("serve.unexplained_frac", "ratio"),
    ("train.corpus_s", "s"),
    ("train.word2vec_s", "s"),
    ("train.checkpoint_s_per_epoch", "s"),
    ("train.checkpoint_bytes", "bytes"),
    ("train.worker_util", "ratio"),
    ("train.sample_ns_per_triple", "ns"),
    ("train.forward_ns_per_triple", "ns"),
    ("train.backward_ns_per_triple", "ns"),
    ("train.reduce_ns_per_batch", "ns"),
    ("train.adam_ns_per_step", "ns"),
    ("train.confidence_ns_per_triple", "ns"),
    ("train.unexplained_frac", "ratio"),
];

/// Ordered `name → (value, unit)` pairs for the result line.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The value put under `name`, or 0 when there is none.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }

    /// Bring the metrics to exactly the manifest's list for the run:
    /// every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in the manifest's order, each finite. A per-layer
    /// metric the workload does not run is 0.
    fn complete(&self, trace: bool) -> Result<Metrics, String> {
        let list = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        if let Some((name, ..)) = self.0.iter().find(|(n, ..)| !list.iter().any(|l| l.0 == n)) {
            return Err(format!("metric {name} is not in the manifest"));
        }
        let mut out = Metrics::default();
        for &(name, unit) in list {
            let found = self.0.iter().find(|(n, ..)| n == name);
            let value = match found {
                Some((_, v, u)) if *u == unit => *v,
                Some((_, _, u)) => return Err(format!("metric {name} in {u}, not {unit}")),
                None if trace => 0.0,
                None => return Err(format!("workload did not measure {name}")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            out.put(name, value, known_unit(unit));
        }
        Ok(out)
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(*v)),
                            ("unit".into(), Json::Str((*u).into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    fn from_json(j: &Json) -> Metrics {
        let mut m = Metrics::default();
        if let Json::Obj(pairs) = j {
            for (name, entry) in pairs {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                m.put(name, value, known_unit(unit));
            }
        }
        m
    }
}

/// Units come from a fixed set; map a child's unit string back to it.
fn known_unit(u: &str) -> &'static str {
    const UNITS: [&str; 10] = [
        "s", "ms", "us", "ns", "1/s", "MiB", "count", "ratio", "bytes", "",
    ];
    UNITS.iter().find(|&&k| k == u).copied().unwrap_or("")
}

/// What one workload run produced: operations attempted and failed,
/// the metrics, and a manifest fragment (scale and checksums).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, described.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    pub scale: Vec<(String, Json)>,
}

impl Outcome {
    /// Record a correctness check; a failed check counts as one
    /// failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "problems".into(),
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            ("metrics".into(), self.metrics.to_json()),
            ("scale".into(), Json::Obj(self.scale.clone())),
        ])
    }

    fn from_json(j: &Json) -> Outcome {
        let n = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        Outcome {
            attempted: n("attempted"),
            failed: n("failed"),
            problems: j
                .get("problems")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            metrics: j.get("metrics").map(Metrics::from_json).unwrap_or_default(),
            scale: match j.get("scale") {
                Some(Json::Obj(pairs)) => pairs.clone(),
                _ => Vec::new(),
            },
        }
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new("pgebench")
            .join(".work")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Worker threads, jobs and replicas every workload runs with.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    pge_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64)
}

/// Nanoseconds the reference loop of [`host_speed`] is taken to need
/// on a host of speed 1 (about what one quiet 2-vCPU cloud guest
/// needs).
const REF_NS: f64 = 2.0e6;

/// How fast the host runs right now, relative to the reference: a
/// fixed loop of dependent float multiply-adds and FNV hashing, owned
/// by the benchmark and calling no program code, is timed on `nproc`
/// threads at once, and `REF_NS` is divided by the mean thread time.
///
/// A shared virtual machine runs faster and slower in spells of
/// seconds (neighbours on the same cores, stolen CPU time), by up to
/// 1.4× within minutes. Timed figures are multiplied by the speed
/// measured around them, so they read as on a host of speed 1 and two
/// runs compare code, not neighbours. A change to the program does not
/// move the speed; on a quiet, dedicated host it is constant.
pub fn host_speed() -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..nproc())
            .map(|t| {
                s.spawn(move || {
                    let a: Vec<f32> = (0..4096).map(|i| ((i * 7 + t) % 13) as f32 * 0.1).collect();
                    let b: Vec<f32> = (0..4096).map(|i| ((i * 5) % 11) as f32 * 0.2).collect();
                    let bytes: Vec<u8> = (0..16384).map(|i| (i * 31 % 251) as u8).collect();
                    let (a, b, bytes) = std::hint::black_box((a, b, bytes));
                    let t0 = Instant::now();
                    let (mut acc, mut h) = (0f32, 0xcbf2_9ce4_8422_2325u64);
                    for r in 0..60 {
                        for i in 0..a.len() {
                            acc += a[i] * b[(i + r) & 4095];
                        }
                        for &x in &bytes {
                            h = (h ^ u64::from(x)).wrapping_mul(0x100_0000_01b3);
                        }
                    }
                    std::hint::black_box((acc, h));
                    t0.elapsed().as_nanos() as f64
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    REF_NS * per_thread.len() as f64 / per_thread.iter().sum::<f64>()
}

/// Restart the process's peak resident set (`VmHWM`) from its current
/// size, so the next [`peak_rss_mib`] covers what follows alone.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `q`-quantile of `xs` (linear interpolation); NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean nanoseconds per call of `f` over `reps` passes of `items`,
/// the median of five such passes.
pub fn ns_per<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return f64::NAN;
    }
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                for it in items {
                    f(std::hint::black_box(it));
                }
            }
            t0.elapsed().as_nanos() as f64 / (reps * items.len()) as f64
        })
        .collect();
    median(&passes)
}

/// splitmix64: the benchmark's own seeded stream, independent of the
/// program's RNG.
pub struct Mix(pub u64);

impl Mix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Re-run this binary as a child for one measured phase, so peak RSS
/// covers the phase alone and not the input generation.
/// Returns the child's outcome (its last stdout line).
pub fn run_child(opts: &Opts, phase: &str, dir: &Path) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("resolve exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--phase", phase])
        .arg("--dir")
        .arg(dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {phase} phase: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{phase} phase exited with {}", out.status));
    }
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{phase} phase printed no result"))?;
    let j = pge_obs::json::parse(line).map_err(|e| format!("{phase} phase result: {e:?}"))?;
    Ok(Outcome::from_json(&j))
}

/// Run `measured` between two batches of `SETUPS` set-ups of the scan
/// or serve model, each from process start to ready in a fresh child
/// process (see [`setup_child`]), with `data.tsv` and `model.pgebin` in
/// `dir`. A shared host runs faster and slower in spells of seconds;
/// set-ups on both sides of the measured phase sample more of them
/// than one batch would. Returns the outcome of `measured` and the
/// medians of the start-to-ready seconds, each at host speed 1 (see
/// [`host_speed`]), and of the snapshot-open seconds as measured.
pub fn around_setups(
    opts: &Opts,
    dir: &Path,
    measured: impl FnOnce() -> Result<Outcome, String>,
) -> Result<(Outcome, f64, f64), String> {
    let (mut ready, mut opens) = (Vec::new(), Vec::new());
    setups(opts, dir, &mut ready, &mut opens)?;
    let out = measured()?;
    setups(opts, dir, &mut ready, &mut opens)?;
    Ok((out, median(&ready), median(&opens)))
}

fn setups(
    opts: &Opts,
    dir: &Path,
    ready: &mut Vec<f64>,
    opens: &mut Vec<f64>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("resolve exe: {e}"))?;
    for _ in 0..SETUPS {
        let speed = host_speed();
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", &opts.workload, "--phase", "setup", "--dir"])
            .arg(dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn set-up: {e}"))?;
        let mut line = String::new();
        let read = std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line);
        let secs = t0.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("wait for set-up: {e}"))?;
        read.map_err(|e| format!("read set-up: {e}"))?;
        if !status.success() {
            return Err(format!("set-up exited with {status}"));
        }
        let open: f64 = line
            .trim()
            .parse()
            .map_err(|_| format!("set-up printed {line:?}"))?;
        ready.push(secs * speed);
        opens.push(open);
    }
    Ok(())
}

/// One set-up as `pge scan` and `pge gateway` do it before their first
/// row or request: read the labeled catalog from TSV, open the snapshot
/// with its CRC check, fit the threshold. Prints the snapshot-open
/// seconds the moment it is ready.
fn setup_child(dir: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(dir.join("data.tsv")).map_err(|e| format!("read data.tsv: {e}"))?;
    let data = pge_graph::tsv::from_tsv(&text).map_err(|e| format!("parse data.tsv: {e}"))?;
    let t0 = Instant::now();
    let model = pge_core::load_model_auto_path(
        &dir.join("model.pgebin"),
        &data.graph,
        pge_store::MmapMode::Auto,
        pge_store::DEFAULT_RESIDENT_BUDGET,
    )
    .map_err(|e| format!("open snapshot: {e}"))?;
    let open_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(pge_core::Detector::fit(&model, &data.graph, &data.valid).threshold);
    println!("{open_s}");
    Ok(())
}

/// CRC-32 over the detector's sources and manifests, in path order —
/// identifies the code under test where no git metadata exists.
fn source_crc() -> Option<u32> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs") | Some("toml")
            ) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "pgebench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push(PathBuf::from("Cargo.toml"));
    files.sort();
    let mut crc = pge_tensor::Crc32::new();
    let mut any = false;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            crc.update(f.to_string_lossy().as_bytes());
            crc.update(&bytes);
            any = true;
        }
    }
    any.then(|| crc.finish())
}

fn manifest(opts: &Opts, scale: &[(String, Json)]) -> Json {
    Json::Obj(vec![(
        "manifest".into(),
        Json::Obj(vec![
            ("workload".into(), Json::Str(opts.workload.clone())),
            ("seed".into(), Json::Num(opts.seed as f64)),
            ("seconds".into(), Json::Num(opts.seconds)),
            ("trace".into(), Json::Bool(opts.trace)),
            (
                "git_rev".into(),
                pge_obs::git_rev().map_or(Json::Null, Json::Str),
            ),
            (
                "source_crc32".into(),
                source_crc().map_or(Json::Null, |c| Json::Str(format!("{c:08x}"))),
            ),
            ("nproc".into(), Json::Num(nproc() as f64)),
            (
                "kernel".into(),
                Json::Str(pge_tensor::active_kernel().name().into()),
            ),
            ("profile".into(), Json::Str(env!("PGEBENCH_PROFILE").into())),
            ("rustc".into(), Json::Str(env!("PGEBENCH_RUSTC").into())),
            ("scale".into(), Json::Obj(scale.to_vec())),
        ]),
    )])
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    if let Some(phase) = &opts.phase {
        let dir = opts.dir.as_deref().ok_or("--phase needs --dir")?;
        return match phase.as_str() {
            "scan" => scan::child(opts, dir),
            "serve" => serve::child(opts, dir),
            other => Err(format!("unknown phase {other}")),
        };
    }
    let work = WorkDir::create(&opts.workload).map_err(|e| format!("create work dir: {e}"))?;
    match opts.workload.as_str() {
        "scan-catalog" => scan::run(opts, &work.0),
        "serve-zipf" => serve::run(opts, &work.0),
        "train-catalog" => train::run(opts, &work.0),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pgebench: {e}");
            std::process::exit(2);
        }
    };
    if let (Some("setup"), Some(dir)) = (opts.phase.as_deref(), &opts.dir) {
        if let Err(e) = setup_child(dir) {
            eprintln!("pgebench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = match run(&opts).and_then(|mut o| {
        if opts.phase.is_none() {
            o.metrics = o.metrics.complete(opts.trace)?;
        }
        Ok(o)
    }) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pgebench: {e}");
            std::process::exit(1);
        }
    };
    if opts.phase.is_some() {
        // A child phase hands its whole outcome to the parent.
        println!("{}", outcome.to_json());
        return;
    }
    for p in &outcome.problems {
        eprintln!("pgebench: check failed: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!("{}", manifest(&opts, &outcome.scale));
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(outcome.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), outcome.metrics.to_json()),
    ]);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
