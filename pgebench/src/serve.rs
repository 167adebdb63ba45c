//! `serve-zipf`: open-loop load against `pge_gateway::start` with
//! `replicas = nproc`, serving a mapped PGEBIN02 snapshot whose bank
//! covers the known catalog.
//!
//! Requests carry 1–16 items. Item keys are Zipf-skewed over the known
//! products, plus a fixed share of never-seen products: hot keys make
//! the replica LRU caches a read path, the tail goes to the bank, and
//! only unseen products reach the encoder — the opposite cache mix
//! from `scan-catalog`. This is the only workload that runs HTTP and
//! JSON parsing, ring routing, queueing and micro-batching.
//!
//! The generator is open loop: each of `nproc` keep-alive connections
//! sends on a fixed schedule whether or not responses have come back,
//! and every latency is timed from when its request was due.

use crate::{median, nproc, ns_per, prep, quantile, run_child, Metrics, Mix, Opts, Outcome};
use pge_core::{
    load_model_auto_path, save_model_store, write_model_sections, CachedModel, Detector,
    EmbeddingCache,
};
use pge_gateway::{start, GatewayConfig, GatewayHandle};
use pge_graph::ProductGraph;
use pge_obs::json::{parse, Json};
use pge_obs::{RetainedTrace, Stage};
use pge_store::{BankBuilder, CatalogReader, MmapMode, SnapshotWriter, DEFAULT_RESIDENT_BUDGET};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Known products (the bank covers all of them).
///
/// The traffic shape — catalog sizes, Zipf exponent, unseen share — is
/// a synthetic choice, not taken from measured traffic: the repository
/// holds no request trace or popularity data. The sizes keep input
/// generation and the bank build to a few seconds of the run.
const KNOWN: usize = 12_000;
/// Never-seen products drawn from a second catalog.
const UNSEEN: usize = 2_000;
/// Share of items keyed by a never-seen product.
const UNSEEN_SHARE: f64 = 0.03;
/// Zipf exponent over known products.
const ZIPF_S: f64 = 1.0;
/// Distinct pre-rendered requests, cycled by the schedule.
const POOL: usize = 8192;
/// Every `CHECK_EVERY`-th pool request is checked against offline
/// scoring the first time its response arrives.
const CHECK_EVERY: usize = 16;
/// The three fixed rates (requests/s) whose costs are reported: about
/// a tenth, a fifth and two fifths of the 4.8k req/s the gateway soak
/// in `BENCH_gateway.json` sustained on another host, so all three
/// stay below saturation.
const LOW: f64 = 500.0;
const MID: f64 = 1000.0;
const HIGH: f64 = 2000.0;
/// Requests per latency window (see [`Phase::p99`]) and per rate in
/// each round.
const WINDOW: usize = 1000;

pub fn run(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let data = prep::model_dataset(opts.seed);
    let model = prep::train_model(&data, opts.seed);
    prep::write_tsv(&data, dir)?;
    let known = dir.join("known.bin");
    let known_rows = prep::write_catalog(&known, KNOWN, prep::sub_seed(opts.seed, 20))?;
    prep::write_catalog(
        &dir.join("unseen.bin"),
        UNSEEN,
        prep::sub_seed(opts.seed, 21),
    )?;

    // The served snapshot: model sections plus a bank row for every
    // known title and value, computed by this model's encoder.
    let mut builder = BankBuilder::new();
    let reader = CatalogReader::open(&known).map_err(|e| format!("open catalog: {e}"))?;
    for rec in reader.records().map_err(|e| format!("read catalog: {e}"))? {
        let rec = rec.map_err(|e| format!("catalog record: {e}"))?;
        builder.add(&rec.title);
        builder.add(&rec.value);
    }
    let bank_keys = builder.len();
    let mut sw = SnapshotWriter::create(&dir.join("model.pgebin"))
        .map_err(|e| format!("create snapshot: {e}"))?;
    write_model_sections(&model, &mut sw).map_err(|e| format!("model sections: {e}"))?;
    builder
        .write_sections(&mut sw, model.dim(), |key, row| {
            row.extend_from_slice(&model.embed_text_uncached(key))
        })
        .map_err(|e| format!("bank sections: {e}"))?;
    sw.finish().map_err(|e| format!("finish snapshot: {e}"))?;
    // The offline reference scores without the bank.
    save_model_store(&model, &dir.join("offline.pgebin")).map_err(|e| format!("snapshot: {e}"))?;

    let (mut out, setup_s, open_s) =
        crate::around_setups(opts, dir, || run_child(opts, "serve", dir))?;
    eprintln!("serve-zipf: set-up {setup_s:.4} s from process start to ready");
    if opts.trace {
        out.metrics.put("snapshot.open_s", open_s, "s");
    } else {
        out.metrics.put("setup_s", setup_s, "s");
    }
    out.scale.extend([
        ("known_products".into(), Json::Num(KNOWN as f64)),
        ("known_rows".into(), Json::Num(known_rows as f64)),
        ("bank_keys".into(), Json::Num(bank_keys as f64)),
        ("unseen_share".into(), Json::Num(UNSEEN_SHARE)),
        ("zipf_s".into(), Json::Num(ZIPF_S)),
    ]);
    Ok(out)
}

/// One product's rows.
struct Product {
    title: String,
    rows: Vec<(String, String)>,
}

fn read_products(path: &Path) -> Result<Vec<Product>, String> {
    let reader = CatalogReader::open(path).map_err(|e| format!("open catalog: {e}"))?;
    let mut out: Vec<Product> = Vec::new();
    for rec in reader.records().map_err(|e| format!("read catalog: {e}"))? {
        let rec = rec.map_err(|e| format!("catalog record: {e}"))?;
        match out.last_mut() {
            Some(p) if p.title == rec.title => p.rows.push((rec.attr, rec.value)),
            _ => out.push(Product {
                title: rec.title,
                rows: vec![(rec.attr, rec.value)],
            }),
        }
    }
    Ok(out)
}

/// A pre-rendered scoring request.
struct Request {
    bytes: Vec<u8>,
    body: String,
    items: Vec<(String, String, String)>,
}

/// The seeded request pool: Zipf-ranked known products (rank → product
/// through a seeded permutation) plus the unseen share.
fn request_pool(known: &[Product], unseen: &[Product], seed: u64) -> Vec<Request> {
    let mut rng = Mix(prep::sub_seed(seed, 22));
    let mut perm: Vec<usize> = (0..known.len()).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut cdf: Vec<f64> = (1..=known.len())
        .scan(0.0, |acc, r| {
            *acc += 1.0 / (r as f64).powf(ZIPF_S);
            Some(*acc)
        })
        .collect();
    let total = *cdf.last().unwrap_or(&1.0);
    cdf.iter_mut().for_each(|c| *c /= total);
    (0..POOL)
        .map(|_| {
            let n = 1 + rng.below(16);
            let items: Vec<(String, String, String)> = (0..n)
                .map(|_| {
                    let p = if rng.unit() < UNSEEN_SHARE && !unseen.is_empty() {
                        &unseen[rng.below(unseen.len())]
                    } else {
                        let u = rng.unit();
                        &known[perm[cdf.partition_point(|&c| c < u).min(known.len() - 1)]]
                    };
                    let (a, v) = &p.rows[rng.below(p.rows.len())];
                    (p.title.clone(), a.clone(), v.clone())
                })
                .collect();
            let body = Json::Arr(
                items
                    .iter()
                    .map(|(t, a, v)| {
                        Json::Obj(vec![
                            ("title".into(), Json::Str(t.clone())),
                            ("attr".into(), Json::Str(a.clone())),
                            ("value".into(), Json::Str(v.clone())),
                        ])
                    })
                    .collect(),
            )
            .to_string();
            let bytes = format!(
                "POST /v1/score HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            Request { bytes, body, items }
        })
        .collect()
}

/// What one rate phase measured.
#[derive(Default)]
struct Phase {
    sent: u64,
    ok: u64,
    failed: u64,
    shed: u64,
    /// Per request: `(due time, latency)`, the latency from due time
    /// to full response in ms; failed and shed requests count as
    /// infinitely late.
    lat_ms: Vec<(Instant, f64)>,
    /// Per request, how late the generator sent it.
    late_ms: Vec<f64>,
    /// Items scored and items flagged.
    items: u64,
    flagged: u64,
    /// Responses of checked pool entries: `(pool index, body)`.
    checked: Vec<(usize, String)>,
    /// CPU time the gateway's threads used during the phase.
    cpu_ns: u64,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.lat_ms.iter().map(|l| l.1).collect::<Vec<_>>(), q)
    }

    /// Latencies in due-time order, cut into windows of `WINDOW`
    /// requests (the last window takes the remainder).
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut by_due = self.lat_ms.clone();
        by_due.sort_by_key(|l| l.0);
        let n = (by_due.len() / WINDOW).max(1);
        let per = by_due.len() / n;
        (0..n)
            .map(|w| {
                let end = if w + 1 == n {
                    by_due.len()
                } else {
                    (w + 1) * per
                };
                by_due[w * per..end].iter().map(|l| l.1).collect()
            })
            .collect()
    }

    /// The median over windows of each window's p99: every window has
    /// at least ten requests beyond its p99, and one stall of the host
    /// moves one window, not the figure.
    fn p99(&self) -> f64 {
        median(
            &self
                .windows()
                .iter()
                .map(|w| quantile(w, 0.99))
                .collect::<Vec<_>>(),
        )
    }
}

/// One complete HTTP response at the front of `buf`:
/// `(status, body range end, body start)`.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, usize, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("response without content-length")?;
    let start = head_end + 4;
    Ok((buf.len() >= start + len).then_some((status, start + len, start)))
}

fn count(hay: &[u8], needle: &[u8]) -> u64 {
    hay.windows(needle.len()).filter(|w| *w == needle).count() as u64
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

/// Wait up to `timeout` for any of `streams` to become readable and
/// return which are. `ppoll` sleeps on a high-resolution timer; a
/// socket read timeout would be rounded up to a scheduler tick and
/// make the generator run late.
fn readable(streams: &[TcpStream], timeout: Duration) -> Result<Vec<bool>, String> {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` holds exactly `fds.len()` initialised entries and
    // `ts` is a live local for the duration of the call; a null signal
    // mask leaves the mask unchanged.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("poll: {e}"));
        }
    }
    Ok(fds
        .iter()
        .map(|f| n > 0 && f.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect())
}

/// The generator's connections and its place in the request pool.
struct Load<'a> {
    streams: Vec<TcpStream>,
    pool: &'a [Request],
    /// Pool entries whose response has already been checked.
    seen: Vec<bool>,
    /// Pool index of the next phase's first request.
    first: usize,
}

impl Load<'_> {
    /// Run one open-loop phase at `rate` for `secs` from the calling
    /// thread: global request `i` is due at `t0 + i / rate` and goes out
    /// pipelined on connection `i % conns` whether or not earlier
    /// responses are back; `first` offsets into the request pool. `tick`
    /// runs between events, about every 5 ms.
    fn phase(&mut self, rate: f64, secs: f64, tick: &mut dyn FnMut()) -> Result<Phase, String> {
        let (streams, pool, seen, first) = (
            &mut self.streams[..],
            self.pool,
            &mut self.seen[..],
            self.first,
        );
        let cpu0 = gateway_cpu_ns();
        const TICK: Duration = Duration::from_millis(5);
        let total = (rate * secs).round().max(1.0) as usize;
        let conns = streams.len();
        let t0 = Instant::now() + Duration::from_millis(2);
        let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
        let deadline = due(total) + Duration::from_secs(5);
        let mut inflight: Vec<VecDeque<(Instant, usize)>> = vec![VecDeque::new(); conns];
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns];
        let mut chunk = vec![0u8; 1 << 16];
        let mut ph = Phase::default();
        let (mut next, mut outstanding) = (0usize, 0usize);
        let mut last_tick = Instant::now();
        while next < total || outstanding > 0 {
            let now = Instant::now();
            while next < total && due(next) <= now {
                let (c, pi) = (next % conns, (first + next) % pool.len());
                streams[c]
                    .write_all(&pool[pi].bytes)
                    .map_err(|e| format!("send: {e}"))?;
                ph.late_ms
                    .push(now.duration_since(due(next)).as_secs_f64() * 1e3);
                inflight[c].push_back((due(next), pi));
                ph.sent += 1;
                next += 1;
                outstanding += 1;
            }
            if now.duration_since(last_tick) >= TICK {
                tick();
                last_tick = now;
            }
            let wait = if next < total {
                due(next).saturating_duration_since(Instant::now())
            } else if now >= deadline {
                // Whatever is still outstanding never answered.
                for q in &mut inflight {
                    ph.failed += q.len() as u64;
                    ph.lat_ms
                        .extend(q.drain(..).map(|(d, _)| (d, f64::INFINITY)));
                }
                break;
            } else {
                deadline - now
            };
            let ready = readable(streams, wait.min(TICK))?;
            for (c, _) in ready.iter().enumerate().filter(|r| *r.1) {
                let k = match streams[c].read(&mut chunk) {
                    Ok(0) => return Err("server closed a connection".into()),
                    Ok(k) => k,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("receive: {e}")),
                };
                let done = Instant::now();
                let buf = &mut bufs[c];
                buf.extend_from_slice(&chunk[..k]);
                let mut used = 0;
                while let Some((status, end, start)) = parse_response(&buf[used..])? {
                    let (d, pi) = inflight[c]
                        .pop_front()
                        .ok_or("response without a request")?;
                    outstanding -= 1;
                    let body = &buf[used + start..used + end];
                    let lat = done.duration_since(d).as_secs_f64() * 1e3;
                    match status {
                        200 => {
                            ph.ok += 1;
                            ph.lat_ms.push((d, lat));
                            ph.items += count(body, b"\"is_error\":");
                            ph.flagged += count(body, b"\"is_error\":true");
                            if pi % CHECK_EVERY == 0 && !seen[pi] {
                                seen[pi] = true;
                                ph.checked
                                    .push((pi, String::from_utf8_lossy(body).into_owned()));
                            }
                        }
                        503 => {
                            ph.shed += 1;
                            ph.lat_ms.push((d, f64::INFINITY));
                        }
                        _ => {
                            ph.failed += 1;
                            ph.lat_ms.push((d, f64::INFINITY));
                        }
                    }
                    used += end;
                }
                buf.drain(..used);
            }
        }
        ph.cpu_ns = gateway_cpu_ns().saturating_sub(cpu0);
        self.first += ph.sent as usize;
        Ok(ph)
    }
}

/// Nanoseconds the gateway's own threads (`pge-gw-*`) have spent on a
/// CPU, from the kernel's per-thread scheduler statistics. Time the
/// host steals from the virtual CPU is not charged to a thread.
fn gateway_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let comm = std::fs::read_to_string(t.path().join("comm")).ok()?;
            if !comm.starts_with("pge-gw") {
                return None;
            }
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Sum of a metric family across replicas in the `/metrics` text.
fn metric_sum(text: &str, prefix: &str, suffix: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .filter_map(|(_, v)| v.trim().parse::<f64>().ok())
        .sum()
}

pub fn child(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let data = prep::model_dataset(opts.seed);
    let snapshot = dir.join("model.pgebin");

    let model = load_model_auto_path(
        &snapshot,
        &data.graph,
        MmapMode::Auto,
        DEFAULT_RESIDENT_BUDGET,
    )
    .map_err(|e| format!("open snapshot: {e}"))?;
    let threshold = Detector::fit(&model, &data.graph, &data.valid).threshold;
    let bank = model.bank().cloned().ok_or("served snapshot has no bank")?;
    let auc = prep::pr_auc(&model, &data);

    let known = read_products(&dir.join("known.bin"))?;
    let known_titles: HashSet<&str> = known.iter().map(|p| p.title.as_str()).collect();
    let unseen: Vec<Product> = read_products(&dir.join("unseen.bin"))?
        .into_iter()
        .filter(|p| !known_titles.contains(p.title.as_str()))
        .collect();
    let pool = request_pool(&known, &unseen, opts.seed);

    let handle = start(
        model,
        data.graph.clone(),
        data.valid.clone(),
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: nproc(),
            ..GatewayConfig::default()
        },
    )
    .map_err(|e| format!("start gateway: {e}"))?;
    let result = drive_load(opts, &handle, &pool, &bank);
    handle.shutdown();
    let (mut out, phases, traces) = result?;
    if !opts.trace {
        out.metrics.put("pr_auc", auc, "ratio");
    }

    // Correctness: checked responses against offline Detector::scores
    // on a bank-less copy of the model.
    let offline = load_model_auto_path(
        &dir.join("offline.pgebin"),
        &data.graph,
        MmapMode::Off,
        DEFAULT_RESIDENT_BUDGET,
    )
    .map_err(|e| format!("open offline model: {e}"))?;
    let cache = EmbeddingCache::new(0);
    let cm = CachedModel::new(&offline, &cache);
    let det = Detector::fit(&cm, &data.graph, &data.valid);
    out.check(det.threshold.to_bits() == threshold.to_bits(), || {
        "offline threshold differs from the served one".into()
    });
    let mut g = ProductGraph::new();
    for a in offline.attr_names() {
        g.intern_attr(a);
    }
    let checked: Vec<&(usize, String)> = phases.iter().flat_map(|p| &p.checked).collect();
    for (pi, body) in &checked {
        let req = &pool[*pi];
        let triples: Vec<_> = req
            .items
            .iter()
            .map(|(t, a, v)| g.add_fact(t, a, v))
            .collect();
        let want = det.scores(&g, &triples);
        let got = parse(body).ok();
        let arr = got.as_ref().and_then(Json::as_array);
        out.attempted += 1;
        let ok = arr.is_some_and(|arr| {
            arr.len() == want.len()
                && arr.iter().zip(&want).all(|(j, w)| {
                    let p = j.get("plausibility").and_then(Json::as_f64);
                    let e = j.get("is_error").and_then(Json::as_bool);
                    p.is_some_and(|p| (p as f32).to_bits() == w.to_bits())
                        && e == Some(*w <= threshold)
                })
        });
        out.check(ok, || {
            format!("served scores differ from offline for pool request {pi}")
        });
    }
    out.check(!checked.is_empty(), || {
        "no served response was checked".into()
    });
    if let Some(t) = traces {
        trace_layers(
            &mut out.metrics,
            &t,
            &pool,
            &bank,
            &offline,
            &unseen,
            &phases,
        );
    }
    Ok(out)
}

type Loaded = (Outcome, Vec<Phase>, Option<Vec<RetainedTrace>>);

fn drive_load(
    opts: &Opts,
    handle: &GatewayHandle,
    pool: &[Request],
    bank: &pge_store::EmbeddingBank,
) -> Result<Loaded, String> {
    let addr: SocketAddr = handle.local_addr();
    let streams: Vec<TcpStream> = (0..nproc())
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;
    let mut load = Load {
        streams,
        pool,
        seen: vec![false; pool.len()],
        first: 0,
    };
    let mut out = Outcome::default();
    let mut phases: Vec<Phase> = Vec::new();
    let mut run = |rate: f64, secs: f64, tick: &mut dyn FnMut()| {
        let ph = load.phase(rate, secs, tick)?;
        out.attempted += ph.sent;
        out.failed += ph.failed + ph.shed;
        Ok::<Phase, String>(ph)
    };
    let report = |rate: f64, ph: &Phase| {
        eprintln!(
            "serve-zipf {rate:>6.0} req/s: sent {} ok {} failed {} shed {} p50 {:.3} ms \
             p99 {:.3} ms late p99 {:.3} ms flag rate {:.3}",
            ph.sent,
            ph.ok,
            ph.failed,
            ph.shed,
            ph.p(0.5),
            ph.p99(),
            quantile(&ph.late_ms, 0.99),
            ph.flagged as f64 / ph.items.max(1) as f64,
        )
    };

    // Warm-up: fill the replica caches and fault in the hot bank rows.
    phases.push(run(MID, 1.0, &mut || {})?);

    if !opts.trace {
        // The three rates, interleaved in rounds of one latency window
        // each so a slow spell of the host lands on all three alike.
        let round_s: f64 = [LOW, MID, HIGH].iter().map(|r| WINDOW as f64 / r).sum();
        let rounds = ((opts.seconds / round_s) as usize).max(3);
        let mut segs: HashMap<u64, Vec<Phase>> = HashMap::new();
        for _ in 0..rounds {
            for rate in [LOW, MID, HIGH] {
                // The gateway is idle between phases; its CPU time is
                // counted at host speed 1 (see `crate::host_speed`).
                let speed = crate::host_speed();
                let mut ph = run(rate, WINDOW as f64 / rate, &mut || {})?;
                ph.cpu_ns = (ph.cpu_ns as f64 * speed) as u64;
                report(rate, &ph);
                segs.entry(rate.to_bits()).or_default().push(ph);
            }
        }
        let mut lats = Vec::new();
        for (name, rate) in [("low", LOW), ("mid", MID), ("high", HIGH)] {
            let s = &segs[&rate.to_bits()];
            let p50 = median(&s.iter().map(|p| p.p(0.5)).collect::<Vec<_>>());
            let p99 = median(&s.iter().map(Phase::p99).collect::<Vec<_>>());
            let cpu: u64 = s.iter().map(|p| p.cpu_ns).sum();
            let ok: u64 = s.iter().map(|p| p.ok).sum();
            let cpu_us = cpu as f64 / 1e3 / ok.max(1) as f64;
            lats.push(format!(
                "{name} p50 {p50:.3} ms p99 {p99:.3} ms cpu {cpu_us:.1} us/req"
            ));
        }
        // Every rate sends the same number of requests per round, so
        // the CPU cost over all rounds weighs the three rates alike.
        let rounds_run: Vec<&Phase> = segs.values().flatten().collect();
        let cpu: u64 = rounds_run.iter().map(|p| p.cpu_ns).sum();
        let ok: u64 = rounds_run.iter().map(|p| p.ok).sum();
        out.metrics
            .put("us_per_op", cpu as f64 / 1e3 / ok.max(1) as f64, "us");
        phases.extend(segs.into_values().flatten());
        out.metrics
            .put("peak_rss_mib", crate::peak_rss_mib(), "MiB");
        // Latencies swing with how promptly a shared host wakes the
        // virtual CPUs, far beyond any usable bound, so they are
        // reported here rather than as bounded metrics; the CPU cost
        // per request is not.
        eprintln!("serve-zipf (medians over rounds): {}", lats.join(", "));
        return Ok((out, phases, None));
    }

    // Traced run: the mid rate untraced, then with every request
    // retained; the retained set is polled between events.
    let secs = opts.seconds / 2.0;
    let (h0, m0) = bank.hit_stats();
    let plain = run(MID, secs, &mut || {})?;
    report(MID, &plain);
    handle.set_trace_threshold(Duration::ZERO);
    let mut traces: HashMap<u64, RetainedTrace> = HashMap::new();
    let mut collect = || {
        for t in handle.retained_traces(usize::MAX) {
            traces.entry(t.trace_id).or_insert(t);
        }
    };
    let traced = run(MID, secs, &mut collect)?;
    collect();
    report(MID, &traced);
    let (h1, m1) = bank.hit_stats();
    let mtext = handle.metrics_text();
    let m = &mut out.metrics;
    m.put("bank.hits", (h1 - h0) as f64, "count");
    m.put("bank.misses", (m1 - m0) as f64, "count");
    m.put("bank.evictions", bank.evictions() as f64, "count");
    m.put("encode.calls", (m1 - m0) as f64, "count");
    let (hits, misses) = (
        metric_sum(&mtext, "pge_gateway_replica_", "_cache_hits"),
        metric_sum(&mtext, "pge_gateway_replica_", "_cache_misses"),
    );
    m.put("cache.hits", hits, "count");
    m.put("cache.misses", misses, "count");
    m.put("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    m.put(
        "gateway.shed",
        metric_sum(&mtext, "pge_gateway_rejected_total", ""),
        "count",
    );
    m.put("gateway.routing_skew", handle.routing_skew(), "ratio");
    m.put(
        "serve.flag_rate",
        (plain.flagged + traced.flagged) as f64 / (plain.items + traced.items).max(1) as f64,
        "ratio",
    );
    m.put(
        "loadgen.late_ms",
        quantile(
            &[plain.late_ms.clone(), traced.late_ms.clone()].concat(),
            0.99,
        ),
        "ms",
    );
    m.put(
        "trace.overhead_frac",
        traced.p(0.5) / plain.p(0.5) - 1.0,
        "ratio",
    );
    m.put("serve.e2e_p50_ms", plain.p(0.5), "ms");
    m.put("serve.e2e_p99_ms", plain.p99(), "ms");
    phases.push(plain);
    phases.push(traced);
    Ok((out, phases, Some(traces.into_values().collect())))
}

/// Layer metrics of the serving path: recorder stage self times from
/// the retained traces, plus timed calls into the parsers, the bank,
/// the cache and the encoder on the workload's own requests.
fn trace_layers(
    m: &mut Metrics,
    traces: &[RetainedTrace],
    pool: &[Request],
    bank: &pge_store::EmbeddingBank,
    model: &pge_core::PgeModel,
    unseen: &[Product],
    phases: &[Phase],
) {
    // Parsers, on the workload's own bytes.
    let items_per_req =
        pool.iter().map(|r| r.items.len()).sum::<usize>() as f64 / pool.len().max(1) as f64;
    m.put(
        "http.parse_ns_per_req",
        ns_per(pool, 2, |r| {
            std::hint::black_box(pge_serve::http::try_parse_request(&r.bytes).ok());
        }),
        "ns",
    );
    m.put(
        "json.parse_ns_per_item",
        ns_per(pool, 2, |r| {
            std::hint::black_box(pge_serve::json::parse(&r.body).ok());
        }) / items_per_req,
        "ns",
    );
    let keys: Vec<&str> = pool
        .iter()
        .take(512)
        .flat_map(|r| r.items.iter().map(|i| i.0.as_str()))
        .collect();
    m.put(
        "bank.lookup_ns",
        ns_per(&keys, 4, |k| {
            std::hint::black_box(bank.lookup(k).map(|r| r[0]));
        }),
        "ns",
    );
    let titles: Vec<&str> = unseen.iter().take(400).map(|p| p.title.as_str()).collect();
    let mut toks = 0usize;
    m.put(
        "tokenize.ns_per_text",
        ns_per(&titles, 4, |t| pge_text::tokenize_each(t, |_| toks += 1)),
        "ns",
    );
    std::hint::black_box(toks);
    let encode_ns = ns_per(&titles, 1, |t| {
        std::hint::black_box(model.embed_text_uncached(t));
    });
    m.put("encode.ns_per_call", encode_ns, "ns");
    let cache = EmbeddingCache::new(GatewayConfig::default().cache_cap);
    for k in &keys {
        cache.get_or_compute(k, || model.embed_text_uncached(k));
    }
    let hit = |k: &&str| {
        std::hint::black_box(cache.with_cached(k, |v| v[0]));
    };
    m.put("cache.hit_ns", ns_per(&keys, 20, hit), "ns");
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..nproc())
            .map(|_| s.spawn(|| ns_per(&keys, 20, hit)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("lookup thread"))
            .collect()
    });
    m.put("cache.hit_ns.contended", median(&per_thread), "ns");

    // Recorder stages. The gateway marks accept → route → queue_admit
    // → dequeue → batch_assemble → score, then cache_hit / cache_miss
    // / encode (counts, stamped after scoring) and write_back. Self
    // times: route = accept..queue_admit, queue wait =
    // queue_admit..dequeue, batch assembly = dequeue..score, score =
    // score..cache_hit (lookups, encoder runs and the score function),
    // write-back = cache_hit..end (render, hand-off, socket write).
    // The encoder's share of the score stage is its run count times
    // the measured cost per run.
    let mut stages: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut batch_jobs = Vec::new();
    let mut items = Vec::new();
    let mut totals = Vec::new();
    for t in traces.iter().filter(|t| !t.error) {
        let d = t.stage_durations();
        let sum = |ss: &[Stage]| -> f64 {
            d.iter()
                .filter(|(s, _)| ss.contains(s))
                .map(|(_, ns)| *ns as f64 / 1e3)
                .sum()
        };
        let arg = |s: Stage| t.events.iter().find(|e| e.stage == s).map(|e| e.arg as f64);
        let (Some(jobs), Some(n), Some(enc)) = (
            arg(Stage::BatchAssemble),
            arg(Stage::Score),
            arg(Stage::Encode),
        ) else {
            continue; // the ring wrapped past part of this trace
        };
        let encode_us = enc * encode_ns / 1e3;
        let score_us = sum(&[Stage::Score]);
        stages
            .entry("route")
            .or_default()
            .push(sum(&[Stage::Accept, Stage::Route]));
        stages
            .entry("queue_wait")
            .or_default()
            .push(sum(&[Stage::QueueAdmit]));
        stages
            .entry("batch_assemble")
            .or_default()
            .push(sum(&[Stage::Dequeue, Stage::BatchAssemble]));
        stages
            .entry("encode")
            .or_default()
            .push(encode_us.min(score_us));
        stages
            .entry("score")
            .or_default()
            .push((score_us - encode_us).max(0.0));
        stages.entry("write_back").or_default().push(sum(&[
            Stage::CacheHit,
            Stage::CacheMiss,
            Stage::Encode,
            Stage::WriteBack,
        ]));
        batch_jobs.push(jobs);
        items.push(n);
        totals.push(t.total_nanos as f64 / 1e3);
    }
    let mut explained_us = 0.0;
    for name in [
        "route",
        "queue_wait",
        "batch_assemble",
        "encode",
        "score",
        "write_back",
    ] {
        let v = stages.get(name).map(Vec::as_slice).unwrap_or(&[]);
        m.put(&format!("gateway.{name}_us.p50"), median(v), "us");
        m.put(&format!("gateway.{name}_us.p99"), quantile(v, 0.99), "us");
        explained_us += median(v);
    }
    m.put(
        "gateway.batch_items",
        median(&batch_jobs) * median(&items),
        "count",
    );
    m.put("gateway.traced_requests", totals.len() as f64, "count");
    // Layer accounting against the untraced end-to-end p50: parsing
    // runs before the trace starts, so it is added from the timed
    // parser calls.
    let parse_us =
        (m.get("http.parse_ns_per_req") + m.get("json.parse_ns_per_item") * median(&items)) / 1e3;
    let e2e_us = m.get("serve.e2e_p50_ms") * 1e3;
    let explained = explained_us + parse_us;
    eprintln!("serve-zipf layer accounting (median µs per request at {MID} req/s):");
    eprintln!("  {:<15} {parse_us:>8.1}", "parse");
    for name in [
        "route",
        "queue_wait",
        "batch_assemble",
        "encode",
        "score",
        "write_back",
    ] {
        let v = m.get(&format!("gateway.{name}_us.p50"));
        eprintln!("  {name:<15} {v:>8.1}  {:>5.1}%", 100.0 * v / e2e_us);
    }
    eprintln!("  {:<15} {e2e_us:>8.1}  end to end (untraced p50)", "total");
    m.put("serve.unexplained_frac", 1.0 - explained / e2e_us, "ratio");
    let flagged: u64 = phases.iter().map(|p| p.flagged).sum();
    let scored: u64 = phases.iter().map(|p| p.items).sum();
    eprintln!(
        "  unexplained {:.1}%, flag rate {:.3}, tracing overhead {:.1}%",
        100.0 * (1.0 - explained / e2e_us),
        flagged as f64 / scored.max(1) as f64,
        100.0 * m.get("trace.overhead_frac")
    );
}
