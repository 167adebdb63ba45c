//! `train-catalog`: `train_pge_resumable` at `threads = nproc` on
//! labeled catalogs, checkpointing every epoch, writing a PGEBIN02
//! snapshot at the end and scoring the test split.
//!
//! Only this workload runs the negative sampler, the backward pass,
//! the lane reduction, Adam, the confidence update and the checkpoint
//! codec.

use crate::{median, nproc, ns_per, prep, Metrics, Mix, Opts, Outcome};
use pge_core::{
    save_model_store, train_pge_resumable, CheckpointOptions, ConfidenceSignal, ConfidenceStore,
    PgeConfig, PgeModel, Scorer, TextEncoder, TrainedPge, GRAD_LANES,
};
use pge_datagen::{generate_catalog, CatalogConfig};
use pge_graph::{AttrId, Dataset, NegativeSampler};
use pge_nn::conv::CnnEncCache;
use pge_nn::{AdamHparams, CnnGrads, TextCnnEncoder};
use pge_obs::json::{parse, Json};
use pge_obs::RunLog;
use pge_tensor::ops;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Labeled catalog size: products, and products with a labeled
/// (valid/test) triple.
const PRODUCTS: usize = 750;
const LABELED: usize = 750;
const EPOCHS: usize = 12;
/// Independent cases (catalog and training seed) per run. One model's
/// PR-AUC on this synthetic catalog swings with the seed — some
/// trainings reach 0.99, others stall near 0.75 — so `pr_auc` is the
/// mean over `CASES` models, which varies far less from seed to seed.
const CASES: usize = 6;

/// One labeled catalog and the configuration that trains on it.
struct Case {
    data: Dataset,
    cfg: PgeConfig,
}

fn case(seed: u64, j: usize) -> Case {
    let salt = 100 * j as u64;
    Case {
        data: generate_catalog(&CatalogConfig {
            products: PRODUCTS,
            labeled: LABELED,
            seed: prep::sub_seed(seed, 10 + salt),
            ..CatalogConfig::default()
        }),
        cfg: PgeConfig {
            epochs: EPOCHS,
            threads: nproc(),
            seed: prep::sub_seed(seed, 11 + salt),
            ..PgeConfig::default()
        },
    }
}

/// The case run `i` trains: case 0 twice (so the first two runs check
/// determinism), then every case in turn.
fn case_of(i: usize) -> usize {
    i.saturating_sub(1) % CASES
}

/// One training run's figures.
struct Run {
    snapshot: Vec<u8>,
    /// Triples trained, and each epoch's per-worker utilisation.
    triples: u64,
    worker_util: Vec<f64>,
    /// Corpus build and word2vec seconds (the trainer's own spans).
    corpus_s: f64,
    word2vec_s: f64,
    /// Epoch-loop throughput at host speed 1, and the host's speed
    /// around the run (see `crate::host_speed`).
    triples_per_s: f64,
    speed: f64,
    /// The run's own peak resident set.
    peak_rss_mib: f64,
    /// `(bytes, seconds)` of each epoch checkpoint, from the run log.
    checkpoints: Vec<(f64, f64)>,
}

fn train_once(
    data: &Dataset,
    cfg: &PgeConfig,
    dir: &Path,
    i: usize,
) -> Result<(Run, TrainedPge), String> {
    let ckpt_dir = dir.join(format!("ckpt-{i}"));
    let log_path = dir.join(format!("run-{i}.jsonl"));
    let snap_path = dir.join(format!("model-{i}.pgebin"));
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("create checkpoint dir: {e}"))?;
    pge_obs::reset_spans();
    let speed0 = crate::host_speed();
    crate::reset_peak_rss();
    let trained = {
        let log = RunLog::create(&log_path).map_err(|e| format!("run log: {e}"))?;
        train_pge_resumable(
            data,
            cfg,
            Some(&log),
            Some(&CheckpointOptions::new(&ckpt_dir)),
        )
        .map_err(|e| format!("train: {e}"))?
    };
    let peak_rss_mib = crate::peak_rss_mib();
    let speed = (speed0 + crate::host_speed()) / 2.0;
    save_model_store(&trained.model, &snap_path).map_err(|e| format!("snapshot: {e}"))?;
    let snapshot = std::fs::read(&snap_path).map_err(|e| format!("read snapshot: {e}"))?;
    let spans = pge_obs::span_snapshot();
    let span = |path: &str| {
        spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0.0, |s| s.total_secs)
    };
    let log = std::fs::read_to_string(&log_path).map_err(|e| format!("read run log: {e}"))?;
    let checkpoints = log
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter(|j| j.get("event").and_then(Json::as_str) == Some("checkpoint"))
        .filter_map(|j| {
            Some((
                j.get("bytes").and_then(Json::as_f64)?,
                j.get("write_secs").and_then(Json::as_f64)?,
            ))
        })
        .collect();
    let triples: usize = trained.telemetry.iter().map(|t| t.triples).sum();
    let secs: f64 = trained.telemetry.iter().map(|t| t.secs).sum();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(&snap_path);
    let run = Run {
        snapshot,
        triples: triples as u64,
        worker_util: trained
            .telemetry
            .iter()
            .flat_map(|t| t.worker_utilization.iter().copied())
            .collect(),
        corpus_s: span("train.corpus"),
        word2vec_s: span("train.word2vec"),
        triples_per_s: triples as f64 / secs / speed,
        speed,
        peak_rss_mib,
        checkpoints,
    };
    Ok((run, trained))
}

pub fn run(opts: &Opts, dir: &Path) -> Result<Outcome, String> {
    let cases: Vec<Case> = (0..CASES).map(|j| case(opts.seed, j)).collect();
    let mut out = Outcome::default();
    let count = |f: fn(&Dataset) -> usize| {
        Json::Num(cases.iter().map(|c| f(&c.data)).sum::<usize>() as f64)
    };
    out.scale.extend([
        ("cases".into(), Json::Num(CASES as f64)),
        ("products_per_case".into(), Json::Num(PRODUCTS as f64)),
        ("train_triples".into(), count(|d| d.train.len())),
        ("test_triples".into(), count(|d| d.test.len())),
        ("epochs".into(), Json::Num(EPOCHS as f64)),
    ]);

    // Train case after case until every case has trained and the time
    // is up. Case 0 trains twice first; whenever a case trains again
    // it must write the same model bytes as its first run. In a traced
    // run every other run retrains the previous case with spans and
    // the run log off, for the tracing overhead.
    pge_obs::set_spans_enabled(true);
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let (mut runs, mut plain_rates) = (Vec::<Run>::new(), Vec::<f64>::new());
    // Per case: the first run's PR-AUC and snapshot bytes; case 0's
    // model is kept for the layer timings.
    let mut firsts: Vec<Option<(f64, Vec<u8>)>> = vec![None; CASES];
    let mut model0: Option<PgeModel> = None;
    let min_runs = if opts.trace { 4 } else { CASES + 1 };
    let mut i = 0usize;
    while i < min_runs || started.elapsed() < budget {
        if opts.trace && i % 2 == 1 {
            let c = &cases[case_of(runs.len() - 1)];
            pge_obs::set_spans_enabled(false);
            let speed0 = crate::host_speed();
            let t = train_pge_resumable(&c.data, &c.cfg, None, None)
                .map_err(|e| format!("train: {e}"))?;
            let speed = (speed0 + crate::host_speed()) / 2.0;
            pge_obs::set_spans_enabled(true);
            let triples: usize = t.telemetry.iter().map(|e| e.triples).sum();
            let secs: f64 = t.telemetry.iter().map(|e| e.secs).sum();
            plain_rates.push(triples as f64 / secs / speed);
            out.attempted += triples as u64;
        } else {
            let j = case_of(runs.len());
            let (mut r, trained) = train_once(&cases[j].data, &cases[j].cfg, dir, i)?;
            out.attempted += r.triples;
            match &firsts[j] {
                Some((_, first)) => out.check(*first == r.snapshot, || {
                    format!("training run {i} wrote different model bytes for case {j}")
                }),
                None => {
                    let auc = prep::pr_auc(&trained.model, &cases[j].data);
                    firsts[j] = Some((auc, std::mem::take(&mut r.snapshot)));
                    if j == 0 {
                        model0 = Some(trained.model);
                    }
                }
            }
            runs.push(r);
        }
        i += 1;
    }
    // PR-AUC over the cases trained (every case, outside a traced run).
    let aucs: Vec<f64> = firsts.iter().flatten().map(|f| f.0).collect();
    let auc = aucs.iter().sum::<f64>() / aucs.len() as f64;
    out.scale.push((
        "snapshot_crc32".into(),
        Json::Arr(
            firsts
                .iter()
                .flatten()
                .map(|(_, snap)| Json::Str(format!("{:08x}", pge_tensor::crc32(snap))))
                .collect(),
        ),
    ));
    // Set-up at host speed 1, like the throughput.
    let setups: Vec<f64> = runs
        .iter()
        .map(|r| (r.corpus_s + r.word2vec_s) * r.speed)
        .collect();
    let speed = median(&runs.iter().map(|r| r.speed).collect::<Vec<_>>());
    let rates: Vec<f64> = runs.iter().map(|r| r.triples_per_s).collect();
    eprintln!(
        "train-catalog: {:.0} triples/s at host speed 1 over {} runs at threads={} \
         (host speed {speed:.3}), PR-AUC {auc:.4} (mean over {} of {CASES} cases), \
         set-up {:.4} s",
        median(&rates),
        runs.len(),
        nproc(),
        aucs.len(),
        median(&setups)
    );

    if !opts.trace {
        out.metrics.put("setup_s", median(&setups), "s");
        // Each run's own peak: how many runs fit in the time varies
        // with the host, and the allocator keeps memory across runs.
        let peaks: Vec<f64> = runs.iter().map(|r| r.peak_rss_mib).collect();
        out.metrics.put("peak_rss_mib", median(&peaks), "MiB");
        out.metrics.put("us_per_op", 1e6 / median(&rates), "us");
        out.metrics.put("pr_auc", auc, "ratio");
        return Ok(out);
    }

    let m = &mut out.metrics;
    m.put(
        "train.corpus_s",
        median(&runs.iter().map(|r| r.corpus_s).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "train.word2vec_s",
        median(&runs.iter().map(|r| r.word2vec_s).collect::<Vec<_>>()),
        "s",
    );
    let ckpts: Vec<&(f64, f64)> = runs.iter().flat_map(|r| &r.checkpoints).collect();
    m.put(
        "train.checkpoint_s_per_epoch",
        median(&ckpts.iter().map(|c| c.1).collect::<Vec<_>>()),
        "s",
    );
    m.put(
        "train.checkpoint_bytes",
        median(&ckpts.iter().map(|c| c.0).collect::<Vec<_>>()),
        "bytes",
    );
    let utils: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.worker_util.iter().copied())
        .collect();
    m.put("train.worker_util", median(&utils), "ratio");
    let model = model0.as_ref().expect("case 0 trained");
    let c = &cases[0];
    layers(m, model, &c.data, &c.cfg, opts.seed)?;
    let traced = median(&rates);
    m.put(
        "trace.overhead_frac",
        median(&plain_rates) / traced - 1.0,
        "ratio",
    );

    // Layer accounting along the epoch loop's blocking path: the lane
    // work runs on `threads` workers; the confidence update, the lane
    // reduction and Adam run serially between batches.
    let threads = nproc() as f64;
    let batch = c.cfg.batch as f64;
    let parts = [
        ("sample", m.get("train.sample_ns_per_triple") / threads),
        ("forward", m.get("train.forward_ns_per_triple") / threads),
        ("backward", m.get("train.backward_ns_per_triple") / threads),
        ("confidence", m.get("train.confidence_ns_per_triple")),
        ("reduce", m.get("train.reduce_ns_per_batch") / batch),
        ("adam", m.get("train.adam_ns_per_step") / batch),
    ];
    // At the speed the host ran at, like the layer timings.
    let e2e_ns = 1e9 / (traced * speed);
    let explained: f64 = parts.iter().map(|(_, v)| v).sum();
    eprintln!("train-catalog layer accounting (wall ns per triple):");
    for (name, v) in &parts {
        eprintln!("  {name:<10} {v:>9.1}  {:>5.1}%", 100.0 * v / e2e_ns);
    }
    eprintln!("  {:<10} {e2e_ns:>9.1}  end to end", "total");
    m.put("train.unexplained_frac", 1.0 - explained / e2e_ns, "ratio");
    eprintln!(
        "  unexplained {:.1}%, PR-AUC {auc:.4}, tracing overhead {:.1}%",
        100.0 * (1.0 - explained / e2e_ns),
        100.0 * (median(&plain_rates) / traced - 1.0)
    );
    Ok(out)
}

/// One training triple's encoder inputs: title, value and negative
/// value token ids, its attribute and its dataset index.
struct StepInput {
    title: Vec<u32>,
    value: Vec<u32>,
    negs: Vec<Vec<u32>>,
    attr: AttrId,
    index: usize,
}

/// One training triple's forward results: title, value and negative
/// encodings with their caches, the relation row, and the trainer's
/// loss term (Eq. 3) with its gradients at full confidence.
struct Forward {
    title: (Vec<f32>, CnnEncCache),
    value: (Vec<f32>, CnnEncCache),
    /// Per negative: encoding, cache and `dL/df⁻ = σ(f⁻)/k`.
    negs: Vec<(Vec<f32>, CnnEncCache, f32)>,
    rel: Vec<f32>,
    /// `dL/df⁺ = −σ(−f⁺)`.
    df_pos: f32,
    loss: f32,
}

fn forward(enc: &TextCnnEncoder, scorer: &Scorer, model: &PgeModel, x: &StepInput) -> Forward {
    let title = enc.forward(&x.title);
    let value = enc.forward(&x.value);
    let rel = model.relation(x.attr).to_vec();
    let f_pos = scorer.score(&title.0, &rel, &value.0);
    let inv_k = 1.0 / x.negs.len().max(1) as f32;
    let mut loss = -ops::log_sigmoid(f_pos);
    let negs = x
        .negs
        .iter()
        .map(|n| {
            let (e_n, c_n) = enc.forward(n);
            let f_neg = scorer.score(&title.0, &rel, &e_n);
            loss += -inv_k * ops::log_sigmoid(-f_neg);
            (e_n, c_n, inv_k * ops::sigmoid(f_neg))
        })
        .collect();
    Forward {
        title,
        value,
        negs,
        rel,
        df_pos: -ops::sigmoid(-f_pos),
        loss,
    }
}

/// The score gradient and the encoder backward pass for the positive
/// and every negative of one triple, accumulated into `g` in the
/// trainer's order.
fn backward(enc: &TextCnnEncoder, scorer: &Scorer, f: &Forward, g: &mut CnnGrads) {
    let dim = enc.out_dim();
    let (mut dh, mut dv) = (vec![0f32; dim], vec![0f32; dim]);
    let mut dr = vec![0f32; scorer.rel_dim(dim)];
    let e_t = &f.title.0;
    scorer.backward(e_t, &f.rel, &f.value.0, f.df_pos, &mut dh, &mut dr, &mut dv);
    enc.backward_into(&f.value.1, &dv, g);
    for (e_n, c_n, df) in &f.negs {
        dv.iter_mut().for_each(|x| *x = 0.0);
        scorer.backward(e_t, &f.rel, e_n, *df, &mut dh, &mut dr, &mut dv);
        enc.backward_into(c_n, &dv, g);
    }
    enc.backward_into(&f.title.1, &dh, g);
}

/// Per-layer costs of one training step, timed by calling the
/// sampler, the encoder, the scorer, the confidence updater and Adam
/// on the workload's own training triples. The trainer's lane worker
/// has no public entry point, so its backward pass, lane reduction and
/// confidence update are timed as the same sequence of public calls on
/// real forward results and losses.
fn layers(
    m: &mut Metrics,
    model: &PgeModel,
    data: &Dataset,
    cfg: &PgeConfig,
    seed: u64,
) -> Result<(), String> {
    let TextEncoder::Cnn(enc) = model.encoder() else {
        return Err("train-catalog expects the CNN encoder".into());
    };
    let mut rng = Mix(prep::sub_seed(seed, 12));
    let sample: Vec<usize> = (0..512).map(|_| rng.below(data.train.len())).collect();
    let k = cfg.negatives.max(1);
    let sampler = NegativeSampler::new(&data.graph, cfg.sampling);
    let mut srng = StdRng::seed_from_u64(prep::sub_seed(seed, 13));
    m.put(
        "train.sample_ns_per_triple",
        ns_per(&sample, 4, |&i| {
            std::hint::black_box(sampler.sample(&mut srng, &data.train[i], k));
        }),
        "ns",
    );
    let tokens = |text: &str| model.vocab.encode(&pge_text::tokenize(text));
    // Each triple encodes its title, its value and k negatives.
    let inputs: Vec<StepInput> = sample
        .iter()
        .map(|&i| {
            let t = data.train[i];
            StepInput {
                title: tokens(data.graph.title(t.product)),
                value: tokens(data.graph.value_text(t.value)),
                negs: sampler
                    .sample(&mut srng, &t, k)
                    .iter()
                    .map(|&v| tokens(data.graph.value_text(v)))
                    .collect(),
                attr: t.attr,
                index: i,
            }
        })
        .collect();
    m.put(
        "train.forward_ns_per_triple",
        ns_per(&inputs, 1, |x| {
            std::hint::black_box(enc.forward(&x.title));
            std::hint::black_box(enc.forward(&x.value));
            for n in &x.negs {
                std::hint::black_box(enc.forward(n));
            }
        }),
        "ns",
    );
    let scorer = model.scorer();
    let fwd: Vec<Forward> = inputs
        .iter()
        .map(|x| forward(enc, &scorer, model, x))
        .collect();
    let mut grads = enc.grad_buffer();
    m.put(
        "train.backward_ns_per_triple",
        ns_per(&fwd, 1, |f| backward(enc, &scorer, f, &mut grads)),
        "ns",
    );
    // Lane reduction and Adam: each batch of the workload's triples is
    // dealt to the lanes as the trainer deals it (position p to lane
    // p mod GRAD_LANES) and accumulated untimed; then every lane is
    // applied in lane order, and one Adam step runs over the encoder.
    let mut enc2 = enc.clone();
    let mut lanes: Vec<CnnGrads> = (0..GRAD_LANES).map(|_| enc.grad_buffer()).collect();
    let hp = AdamHparams::with_lr(cfg.lr);
    let (mut reduce_ns, mut adam_ns) = (Vec::new(), Vec::new());
    for step in 1..=8u64 {
        let start = (step as usize - 1) * cfg.batch;
        for p in 0..cfg.batch {
            backward(
                enc,
                &scorer,
                &fwd[(start + p) % fwd.len()],
                &mut lanes[p % GRAD_LANES],
            );
        }
        let t0 = Instant::now();
        for g in lanes.iter_mut() {
            enc2.apply_grads(g);
        }
        reduce_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        enc2.adam_step(&hp, step);
        adam_ns.push(t0.elapsed().as_nanos() as f64);
    }
    m.put("train.reduce_ns_per_batch", median(&reduce_ns), "ns");
    m.put("train.adam_ns_per_step", median(&adam_ns), "ns");
    let mut store = ConfidenceStore::new(data.train.len(), cfg.alpha, cfg.beta, cfg.confidence_lr);
    let mut updater = cfg
        .confidence
        .make_updater(data.graph.num_attrs(), enc.out_dim());
    let signals: Vec<(usize, u16, f32)> = inputs
        .iter()
        .zip(&fwd)
        .map(|(x, f)| (x.index, x.attr.0, f.loss))
        .collect();
    m.put(
        "train.confidence_ns_per_triple",
        ns_per(&signals, 8, |&(index, attr, triple_loss)| {
            updater.apply(
                &mut store,
                ConfidenceSignal {
                    index,
                    triple_loss,
                    contrast: 0.0,
                    attr,
                    value_emb: Vec::new(),
                },
            )
        }),
        "ns",
    );
    Ok(())
}
