//! `scan-catalog`: `pge_scan::scan` at `jobs = nproc` over a seeded
//! PGECAT01 catalog of distinct titles, with a trained model whose
//! snapshot carries no embedding bank.
//!
//! Every title misses the cache once, so CNN encoding, cache inserts,
//! contention on the shared cache and the committer's fsyncs dominate;
//! no gateway layer runs.

use crate::{median, nproc, ns_per, prep, run_child, Metrics, Mix, Opts, Outcome};
use pge_core::{load_model_auto_path, save_model_store, Detector, EmbeddingCache, PgeModel};
use pge_obs::json::Json;
use pge_obs::{Stage, Tracer};
use pge_scan::{scan, scan_with_tracer, Manifest, ScanConfig, ScanOutcome};
use pge_store::{CatalogReader, MmapMode, DEFAULT_RESIDENT_BUDGET};
use std::path::Path;
use std::time::{Duration, Instant};

/// Catalog products (about nine rows each).
const PRODUCTS: usize = 24_000;
/// Output rows checked bit-for-bit against the offline scorer.
const SAMPLE_ROWS: usize = 400;

pub fn run(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let data = prep::model_dataset(opts.seed);
    let model = prep::train_model(&data, opts.seed);
    save_model_store(&model, &dir.join("model.pgebin")).map_err(|e| format!("snapshot: {e}"))?;
    prep::write_tsv(&data, dir)?;
    let triples = prep::write_catalog(
        &dir.join("catalog.bin"),
        PRODUCTS,
        prep::sub_seed(opts.seed, 3),
    )?;
    let (mut out, setup_s, open_s) =
        crate::around_setups(opts, dir, || run_child(opts, "scan", dir))?;
    eprintln!("scan-catalog: set-up {setup_s:.4} s from process start to ready");
    if opts.trace {
        out.metrics.put("snapshot.open_s", open_s, "s");
    } else {
        out.metrics.put("setup_s", setup_s, "s");
    }
    out.scale.extend([
        ("catalog_products".into(), Json::Num(PRODUCTS as f64)),
        ("catalog_rows".into(), Json::Num(triples as f64)),
        ("train_triples".into(), Json::Num(data.train.len() as f64)),
    ]);
    Ok(out)
}

fn shard_rows(out_dir: &Path) -> Result<(Vec<u32>, Vec<String>), String> {
    let m = Manifest::load(out_dir)
        .map_err(|e| format!("scan manifest: {e}"))?
        .ok_or("scan wrote no manifest")?;
    let mut lines = Vec::new();
    for s in &m.shards {
        let text = std::fs::read_to_string(out_dir.join(&s.file))
            .map_err(|e| format!("read {}: {e}", s.file))?;
        lines.extend(text.lines().map(str::to_string));
    }
    Ok((m.shards.iter().map(|s| s.crc32).collect(), lines))
}

/// Check a seeded sample of output rows bit-for-bit against
/// `PgeModel::score_text_triple` and the threshold rule.
fn check_rows(out: &mut Outcome, model: &PgeModel, threshold: f32, lines: &[String], seed: u64) {
    let mut rng = Mix(prep::sub_seed(seed, 4));
    for _ in 0..SAMPLE_ROWS.min(lines.len()) {
        let line = &lines[rng.below(lines.len())];
        let f: Vec<&str> = line.split('\t').collect();
        out.attempted += 1;
        let ok = f.len() == 5
            && match (
                model.score_text_triple(f[0], f[1], f[2]),
                f[3].parse::<f32>(),
            ) {
                (Some(want), Ok(got)) => {
                    let flag = u8::from(want.is_nan() || want <= threshold).to_string();
                    want.to_bits() == got.to_bits() && f[4] == flag
                }
                _ => false,
            };
        out.check(ok, || {
            format!("scan row differs from offline scoring: {line:?}")
        });
    }
}

/// One scan into a fresh directory; returns the outcome, the shard
/// CRCs and (when asked) the output rows.
fn one_scan(
    model: &PgeModel,
    threshold: f32,
    catalog: &Path,
    out_dir: &Path,
    tracer: Option<&Tracer>,
    keep_rows: bool,
) -> Result<(ScanOutcome, Vec<u32>, Vec<String>), String> {
    let _ = std::fs::remove_dir_all(out_dir);
    let cfg = ScanConfig {
        jobs: nproc(),
        ..ScanConfig::new(out_dir)
    };
    let o = match tracer {
        Some(t) => scan_with_tracer(model, threshold, catalog, &cfg, t),
        None => scan(model, threshold, catalog, &cfg),
    }
    .map_err(|e| format!("scan: {e}"))?;
    let (crcs, rows) = if keep_rows {
        shard_rows(out_dir)?
    } else {
        let m = Manifest::load(out_dir)
            .map_err(|e| format!("scan manifest: {e}"))?
            .ok_or("scan wrote no manifest")?;
        (m.shards.iter().map(|s| s.crc32).collect(), Vec::new())
    };
    let _ = std::fs::remove_dir_all(out_dir);
    Ok((o, crcs, rows))
}

pub fn child(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let data = prep::model_dataset(opts.seed);
    let snapshot = dir.join("model.pgebin");
    let catalog = dir.join("catalog.bin");

    let model = load_model_auto_path(
        &snapshot,
        &data.graph,
        MmapMode::Auto,
        DEFAULT_RESIDENT_BUDGET,
    )
    .map_err(|e| format!("open snapshot: {e}"))?;
    let threshold = Detector::fit(&model, &data.graph, &data.valid).threshold;

    let mut out = Outcome::default();
    out.check(model.bank().is_none(), || {
        "scan model carries a bank".into()
    });
    let budget = Duration::from_secs_f64(opts.seconds);
    let work = dir.join("scan-out");

    // Measured scans: repeat the whole catalog until the time is up;
    // each scan starts with a cold cache, so every one is the same
    // work. In a traced run scans alternate untraced / traced.
    let tracer = Tracer::new(1 << 16, 0, Duration::ZERO, 1 << 20);
    // Each scan with the host's speed around it (see
    // `crate::host_speed`).
    let (mut plain, mut traced) = (Vec::<(ScanOutcome, f64)>::new(), Vec::new());
    let mut first_crcs: Option<Vec<u32>> = None;
    let started = Instant::now();
    let mut i = 0usize;
    while i < 3 || started.elapsed() < budget {
        let use_tracer = opts.trace && i % 2 == 1;
        let speed0 = crate::host_speed();
        let (o, crcs, rows) = one_scan(
            &model,
            threshold,
            &catalog,
            &work,
            use_tracer.then_some(&tracer),
            i == 0,
        )?;
        let speed = (speed0 + crate::host_speed()) / 2.0;
        out.attempted += o.rows_scanned;
        out.failed += o.quarantined;
        out.check(o.done, || "scan did not finish".into());
        if i == 0 {
            check_rows(&mut out, &model, threshold, &rows, opts.seed);
        }
        match &first_crcs {
            None => first_crcs = Some(crcs),
            Some(first) => out.check(*first == crcs, || format!("scan {i} shard CRCs differ")),
        }
        if use_tracer {
            traced.push((o, speed));
        } else {
            plain.push((o, speed));
        }
        i += 1;
    }
    let crcs = first_crcs.unwrap_or_default();
    out.scale.push((
        "shard_crc32".into(),
        Json::Arr(crcs.iter().map(|c| Json::Str(format!("{c:08x}"))).collect()),
    ));

    let rate = |os: &[(ScanOutcome, f64)]| {
        median(
            &os.iter()
                .map(|(o, speed)| o.rows_scanned as f64 / o.elapsed_sec / speed)
                .collect::<Vec<_>>(),
        )
    };
    let rows_per_s = rate(&plain);
    let speed = median(&plain.iter().map(|p| p.1).collect::<Vec<_>>());
    let last = plain.last().expect("at least one untraced scan").0.clone();
    let flag_rate = last.errors_flagged as f64 / last.rows_scanned.max(1) as f64;
    eprintln!(
        "scan-catalog: {:.0} rows/s at host speed 1 over {} scans at jobs={} (host speed {:.3}), \
         flag rate {:.3}",
        rows_per_s,
        plain.len(),
        last.jobs,
        speed,
        flag_rate,
    );

    if !opts.trace {
        out.metrics
            .put("peak_rss_mib", crate::peak_rss_mib(), "MiB");
        out.metrics.put("us_per_op", 1e6 / rows_per_s, "us");
        out.metrics
            .put("pr_auc", prep::pr_auc(&model, &data), "ratio");
        return Ok(out);
    }

    let m = &mut out.metrics;
    layers(m, &model, &catalog, &last, &tracer, opts.seed)?;
    m.put("scan.flag_rate", flag_rate, "ratio");
    let traced_rate = rate(&traced);
    m.put(
        "trace.overhead_frac",
        rows_per_s / traced_rate - 1.0,
        "ratio",
    );
    // Layer accounting: per-row layer costs against the end-to-end
    // core time per row (wall time × cores / rows), both at the speed
    // the host ran at.
    let e2e_ns = 1e9 * nproc() as f64 / (rows_per_s * speed);
    let rows = last.rows_scanned.max(1) as f64;
    let parts = [
        ("read", m.get("read.ns_per_row")),
        (
            "encode",
            m.get("encode.calls") * m.get("encode.ns_per_call") / rows,
        ),
        (
            "cache hit",
            (m.get("cache.hits") - m.get("cache.memo_hits")) * m.get("cache.hit_ns") / rows,
        ),
        ("score", m.get("score.ns_per_row")),
        ("commit", m.get("scan.commit_ns_per_row")),
    ];
    let explained: f64 = parts.iter().map(|(_, v)| v).sum();
    eprintln!("scan-catalog layer accounting (ns of core time per row):");
    for (name, v) in &parts {
        eprintln!("  {name:<10} {v:>9.1}  {:>5.1}%", 100.0 * v / e2e_ns);
    }
    eprintln!("  {:<10} {e2e_ns:>9.1}  end to end", "total");
    m.put("scan.unexplained_frac", 1.0 - explained / e2e_ns, "ratio");
    eprintln!(
        "  unexplained {:.1}%, flag rate {:.3}, tracing overhead {:.1}%",
        100.0 * (1.0 - explained / e2e_ns),
        flag_rate,
        100.0 * (rows_per_s / traced_rate - 1.0)
    );
    Ok(out)
}

/// Per-layer metrics of the scan path, timed on the workload's rows.
fn layers(
    m: &mut Metrics,
    model: &PgeModel,
    catalog: &Path,
    o: &ScanOutcome,
    tracer: &Tracer,
    seed: u64,
) -> Result<(), String> {
    // pge-store: the catalog reader, one full pass. The same pass
    // replays the scan's chunk → worker dealing to count the rows the
    // worker-local title memo serves.
    let chunk = ScanConfig::new("").chunk_size;
    let jobs = o.jobs.max(1);
    let mut last_title = vec![String::new(); jobs];
    let (mut memo_hits, mut n) = (0u64, 0usize);
    let mut sample: Vec<(String, String, String)> = Vec::new();
    let mut rng = Mix(prep::sub_seed(seed, 5));
    let t0 = Instant::now();
    let reader = CatalogReader::open(catalog).map_err(|e| format!("open catalog: {e}"))?;
    for rec in reader.records().map_err(|e| format!("read catalog: {e}"))? {
        let rec = rec.map_err(|e| format!("catalog record: {e}"))?;
        let w = (n / chunk) % jobs;
        if last_title[w] == rec.title {
            memo_hits += 1;
        } else {
            last_title[w].clone_from(&rec.title);
        }
        if rng.below(64) == 0 {
            sample.push((rec.title, rec.attr, rec.value));
        }
        n += 1;
    }
    let read_ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
    m.put("read.ns_per_row", read_ns, "ns");

    // The bank is absent on this workload.
    m.put("bank.hits", 0.0, "count");
    m.put("bank.misses", 0.0, "count");
    m.put("bank.evictions", 0.0, "count");

    // pge-text and the encoder, on titles that miss (all are
    // distinct).
    let titles: Vec<&str> = sample.iter().map(|s| s.0.as_str()).collect();
    let mut toks = 0usize;
    m.put(
        "tokenize.ns_per_text",
        ns_per(&titles, 4, |t| pge_text::tokenize_each(t, |_| toks += 1)),
        "ns",
    );
    std::hint::black_box(toks);
    m.put("encode.calls", o.cache_misses as f64, "count");
    m.put(
        "encode.ns_per_call",
        ns_per(&titles, 1, |t| {
            std::hint::black_box(model.embed_text_uncached(t));
        }),
        "ns",
    );

    // pge-core cache: counters from the scan, plus warm-key lookups
    // alone and from nproc threads at once.
    let lookups = (o.cache_hits + o.cache_misses).max(1) as f64;
    m.put("cache.hits", o.cache_hits as f64, "count");
    m.put("cache.misses", o.cache_misses as f64, "count");
    m.put("cache.memo_hits", memo_hits as f64, "count");
    m.put("cache.hit_ratio", o.cache_hits as f64 / lookups, "ratio");
    let cache = EmbeddingCache::new(ScanConfig::new("").cache_cap);
    let keys: Vec<&str> = sample
        .iter()
        .flat_map(|s| [s.0.as_str(), s.2.as_str()])
        .collect();
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

    // pge-core score: the prepared relation on precomputed pairs.
    let scorer = model.scorer();
    let pairs: Vec<(usize, Vec<f32>, Vec<f32>)> = sample
        .iter()
        .filter_map(|(t, a, v)| {
            let id = model.lookup_attr(a)?;
            Some((
                id.0 as usize,
                model.embed_text_uncached(t),
                model.embed_text_uncached(v),
            ))
        })
        .collect();
    let prepared: Vec<_> = (0..model.attr_names().len())
        .map(|i| scorer.prepare(model.relation(pge_graph::AttrId(i as u16))))
        .collect();
    m.put(
        "score.ns_per_row",
        ns_per(&pairs, 50, |(a, h, t)| {
            std::hint::black_box(prepared[*a].score(h, t));
        }),
        "ns",
    );

    // pge-scan: the worker ledger and the recorder's chunk stages.
    m.put(
        "scan.effective_parallelism",
        o.effective_parallelism,
        "ratio",
    );
    let busy: f64 = o.worker_busy_sec.iter().sum();
    m.put(
        "scan.worker_busy_frac",
        busy / (o.jobs.max(1) as f64 * o.elapsed_sec),
        "ratio",
    );
    let traces = tracer.retained(usize::MAX);
    let stage = |s: Stage| -> Vec<f64> {
        traces
            .iter()
            .flat_map(|t| t.stage_durations())
            .filter(|(st, _)| *st == s)
            .map(|(_, ns)| ns as f64 / 1e9)
            .collect()
    };
    let (read, score, commit) = (
        stage(Stage::ChunkRead),
        stage(Stage::ChunkScore),
        stage(Stage::ChunkCommit),
    );
    m.put("scan.chunk_read_s", median(&read), "s");
    m.put("scan.chunk_score_s", median(&score), "s");
    m.put("scan.chunk_commit_s", median(&commit), "s");
    // Mean, not median: the commit stage of a shard's last chunk
    // carries its fsync. The committer's row format has no public
    // entry point; it is part of this stage.
    let commit_mean = commit.iter().sum::<f64>() / commit.len().max(1) as f64;
    m.put(
        "scan.commit_ns_per_row",
        1e9 * commit_mean / chunk as f64,
        "ns",
    );
    Ok(())
}
