//! The workloads. Each runs the whole user journey on several shards: a
//! category dataset from each shard's own sub-seed of the run's seed, its
//! bootstrap (the paper's loop), the bundle frozen from it, and a server
//! replica started from the bundle bytes and sent `/extract` traffic built
//! from the same shard's pages. Set-up is generate → bootstrap → freeze →
//! encode → load → `Server::start` → first `/healthz` 200; the measured
//! phase is the traffic, cut into short segments with replica restarts
//! between them, so that every figure samples the whole run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pae_core::frozen::{FrozenExtractor, FrozenModel, FrozenTagger};
use pae_core::{
    evaluate_triples, parse_corpus, BootstrapOutcome, BootstrapPipeline, LoadedBundle,
    PipelineConfig, TaggerKind,
};
use pae_html::{extract_text, TextOptions};
use pae_obs::json::Json;
use pae_serve::{Server, ServerConfig};
use pae_synth::{CategoryKind, Dataset, DatasetSpec};
use pae_text::{LexiconPosTagger, Sentence, SentenceSplitter};

use crate::http::Client;
use crate::load::{self, Phase, Schedule};
use crate::oracle::{self, Request};
use crate::report::{self, Outcome};
use crate::stats::{median, quantile, quiet_quartile, row, sorted};
use crate::trace::{SpanId, Tracer};

/// Client threads, and so at most this many connections.
pub const CLIENTS: usize = 2;
/// `pae-serve` connection workers.
pub const SERVER_WORKERS: usize = 2;
/// Products per shard.
const PRODUCTS: usize = 120;
/// Attribute clusters kept in the tagger's label space. Tagger cost grows
/// with the square of the label count, and the number of clusters the
/// seed stage finds swings between 6 and 11 from one seed to the next;
/// capping at the common minimum makes a run's cost follow its inputs'
/// size rather than that count.
const LABEL_CAP: usize = 6;
/// RNN epochs of the `serve_batch` ensemble: with the default 2 the RNN
/// arm agrees with the CRF on almost nothing, and some seeds serve no
/// triples at all.
const ENSEMBLE_EPOCHS: usize = 10;
/// Arrival rate of the `serve_single` open loop (req/s): about a quarter
/// of the 2-client closed-loop capacity on a 2-vCPU VM shared with other
/// tenants (~3,400 pages/s). At 1,500 req/s the two senders saturate
/// whenever the host slows (capacity fell to ~1,900 pages/s for minutes
/// at a time) and p95 jumps twentyfold.
const OPEN_RATE: f64 = 750.0;
/// Pages per `serve_batch` request.
const BATCH_PAGES: usize = 32;
/// Shards per run: each is a dataset from its own sub-seed of the run's
/// seed, bootstrapped, frozen and served, so that a run's figures average
/// over several category instances rather than hang on one. The ensemble
/// of `serve_batch` costs about twice as much to set up, so it has fewer.
const SINGLE_SHARDS: usize = 4;
const BATCH_SHARDS: usize = 3;
/// Target length of one traffic segment. A shard's slice of the traffic
/// is cut into segments of about this length with a cold-start probe
/// after each, so probes and segment throughputs sample the whole run.
const SEGMENT: Duration = Duration::from_millis(1500);
/// Pool width of bootstrap and freeze. Two-wide training swings by ±20%
/// between identical runs on two shared cores; one-wide repeats to ~1%.
const TRAIN_JOBS: usize = 1;
/// Replica restarts per probe; `cold_start_ms` is the quiet quartile of
/// the restarts, whose probes are spread over the run (after each shard's set-up and
/// each traffic segment) so that it does not hang on one moment's load.
const COLD_STARTS_PER_PROBE: usize = 5;
/// Closed-loop traffic each fresh replica gets before its slice is
/// measured, so that the slice does not time the replica's first
/// requests (new worker threads, first page faults).
const WARMUP: Duration = Duration::from_millis(150);
/// Passes over the pages when replaying layers in-process.
const REPLAY_ROUNDS: usize = 3;
/// Most batches replayed for the batch-efficiency figure.
const REPLAY_BATCHES: usize = 15;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ServeSingle,
    ServeBatch,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeSingle, Workload::ServeBatch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSingle => "serve_single",
            Workload::ServeBatch => "serve_batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pipeline configuration: CRF + veto + semantic cleaning
    /// (the paper's main configuration) unless stated. `serve_single`
    /// runs the paper's loop for 2 cycles, so that its set-up also judges
    /// CRF training on the features and labels cycle 1 wrote.
    fn config(self, seed: u64) -> PipelineConfig {
        let (iterations, tagger) = match self {
            Workload::ServeSingle => (2, TaggerKind::Crf),
            Workload::ServeBatch => (1, TaggerKind::Ensemble),
        };
        let mut config = PipelineConfig {
            iterations,
            tagger,
            seed,
            label_space_cap: LABEL_CAP,
            ..PipelineConfig::default()
        };
        if tagger == TaggerKind::Ensemble {
            config.rnn.epochs = ENSEMBLE_EPOCHS;
        }
        config
    }

    fn shards(self) -> usize {
        match self {
            Workload::ServeSingle => SINGLE_SHARDS,
            Workload::ServeBatch => BATCH_SHARDS,
        }
    }

    fn batch(self) -> usize {
        match self {
            Workload::ServeBatch => BATCH_PAGES,
            _ => 1,
        }
    }

    fn dataset(self, seed: u64) -> Dataset {
        DatasetSpec::new(CategoryKind::VacuumCleaner, seed)
            .products(PRODUCTS)
            .generate()
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub out: PathBuf,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------------
// Bootstrap and replica start.

/// One run of the paper's loop on a dataset.
struct Boot {
    corpus_ms: f64,
    wall_s: f64,
    outcome: BootstrapOutcome,
    corpus: pae_core::Corpus,
}

fn bootstrap_once(
    dataset: &Dataset,
    config: &PipelineConfig,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Boot {
    let t0 = Instant::now();
    let corpus = tracer.leaf("pae-core.parse_corpus", parent, || parse_corpus(dataset));
    let corpus_ms = secs(t0.elapsed()) * 1e3;
    let outcome = tracer.leaf("pae-core.run_on_corpus", parent, || {
        BootstrapPipeline::new(config.clone()).run_on_corpus(dataset, &corpus)
    });
    Boot {
        corpus_ms,
        wall_s: secs(t0.elapsed()),
        outcome,
        corpus,
    }
}

fn freeze(
    dataset: &Dataset,
    boot: &Boot,
    config: &PipelineConfig,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Vec<u8>, String> {
    let model = tracer
        .leaf("pae-core.freeze", parent, || {
            FrozenModel::freeze(dataset, &boot.corpus, &boot.outcome, config)
        })
        .map_err(|e| format!("freeze: {e}"))?;
    Ok(tracer.leaf("pae-core.encode", parent, || {
        pae_core::bundle::encode(&model)
    }))
}

/// Timings of one replica start (`cold_start_ms` and its layers).
struct ColdStart {
    open_us: f64,
    extractor_us: f64,
    start_ms: f64,
    total_ms: f64,
}

/// `LoadedBundle::from_bytes` + `extractor()` + `reference()` +
/// `Server::start`, until `/healthz` answers 200.
fn start_replica(
    bytes: &[u8],
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(Server, ColdStart), String> {
    let owned = bytes.to_vec();
    let t0 = Instant::now();
    let loaded = tracer
        .leaf("pae-core.bundle_open", parent, || {
            LoadedBundle::from_bytes(owned)
        })
        .map_err(|e| format!("bundle: {e}"))?;
    let t1 = Instant::now();
    let (extractor, reference) = tracer.leaf("pae-core.extractor", parent, || {
        Ok::<_, String>((
            loaded.extractor().map_err(|e| format!("extractor: {e}"))?,
            loaded.reference().map_err(|e| format!("reference: {e}"))?,
        ))
    })?;
    let t2 = Instant::now();
    let span = tracer.begin("pae-serve.start", parent, None);
    let server = Server::start(
        extractor,
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: SERVER_WORKERS,
            bundle_hash: loaded.content_hash(),
            bundle_schema: loaded.schema_version(),
            bundle_load_ns: (t2 - t0).as_nanos() as u64,
            trace_sample: 0,
            reference,
            ..ServerConfig::default()
        },
    )?;
    wait_healthy(&server)?;
    tracer.end(span);
    let t3 = Instant::now();
    Ok((
        server,
        ColdStart {
            open_us: secs(t1 - t0) * 1e6,
            extractor_us: secs(t2 - t1) * 1e6,
            start_ms: secs(t3 - t2) * 1e3,
            total_ms: secs(t3 - t0) * 1e3,
        },
    ))
}

fn wait_healthy(server: &Server) -> Result<(), String> {
    let mut client = Client::new(server.addr());
    let mut off = Tracer::new(Instant::now(), false);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.send("GET", "/healthz", "", &mut off, None) {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_micros(200)),
            other => return Err(format!("/healthz never answered 200: {other:?}")),
        }
    }
}

/// The server's own p50 for `/extract` (µs) from `/statusz`'s 5m window.
fn server_p50_us(server: &Server) -> Result<f64, String> {
    let mut client = Client::new(server.addr());
    let mut off = Tracer::new(Instant::now(), false);
    let reply = client.send("GET", "/statusz", "", &mut off, None)?;
    let doc = Json::parse(&reply.body).map_err(|e| format!("/statusz: {e}"))?;
    doc.get("windows")
        .and_then(|w| w.get("5m"))
        .and_then(|w| w.get("routes"))
        .and_then(|r| r.get("extract"))
        .and_then(|e| e.get("p50_ns"))
        .and_then(Json::as_f64)
        .map(|ns| ns / 1e3)
        .ok_or_else(|| "/statusz has no 5m extract p50".to_owned())
}

// ---------------------------------------------------------------------
// In-process layer replay (traced runs only).

/// Per-layer figures from replaying the workload's pages and bodies
/// in-process against extractors built from the served bundle.
struct Replay {
    html_us: f64,
    text_us: f64,
    extract_us: f64,
    /// The same extractor's plain `extract_page`, without the quality
    /// observation overlay.
    plain_us: f64,
    /// Per decode arm: extraction with that arm alone, minus html and
    /// text, per page (µs).
    decode_us: Vec<(&'static str, f64)>,
    json_us: f64,
    /// `extract_pages_observed` wall time of one request's pages (µs).
    request_extract_us: f64,
    batch_efficiency: f64,
    empty_frac: f64,
    oov_frac: f64,
    triples_per_page: f64,
}

/// One extractor per decode arm of `model`.
fn arm_extractors(model: &FrozenModel) -> Result<Vec<(&'static str, FrozenExtractor)>, String> {
    let arm = |tagger: &FrozenTagger| {
        let mut m = model.clone();
        m.tagger = tagger.clone();
        m.extractor()
    };
    Ok(match &model.tagger {
        FrozenTagger::Crf { .. } => vec![("pae-crf", model.extractor()?)],
        FrozenTagger::Rnn { .. } => vec![("pae-neural", model.extractor()?)],
        FrozenTagger::Ensemble { crf, rnn } => {
            vec![("pae-crf", arm(crf)?), ("pae-neural", arm(rnn)?)]
        }
    })
}

fn time_us<R>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let r = tracer.leaf(name, parent, f);
    (std::hint::black_box(r), secs(t.elapsed()) * 1e6)
}

fn replay(
    model: &FrozenModel,
    shard: &Shard,
    batch: usize,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let Shard {
        extractor,
        pages,
        requests,
        ..
    } = shard;
    let arms = arm_extractors(model)?;
    let tokenizer = model.language.tokenizer(&model.lexicon);
    let pos = LexiconPosTagger::new(model.lexicon.clone());
    let splitter = SentenceSplitter::new();

    let (mut html, mut text, mut extract, mut plain) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut decode: Vec<Vec<f64>> = vec![Vec::new(); arms.len()];
    let mut page_extract: Vec<Vec<f64>> = vec![Vec::new(); pages.len()];
    let (mut empty, mut tokens, mut oov, mut triples) = (0u64, 0u64, 0u64, 0u64);
    for round in 0..REPLAY_ROUNDS {
        for (i, (product, page)) in pages.iter().enumerate() {
            let span = tracer.begin("replay.page", None, Some(i as u64));
            let ((titles, body), t_html) = time_us(tracer, "pae-html.parse", span, || {
                let forest = pae_html::parse(page);
                let titles: Vec<String> = pae_html::dom::find_all(&forest, "title")
                    .iter()
                    .map(|n| n.text_content())
                    .filter(|t| !t.is_empty())
                    .collect();
                (titles, extract_text(&forest, &TextOptions::default()))
            });
            let (_, t_text) = time_us(tracer, "pae-text.analyze", span, || {
                let mut sentences: Vec<Sentence> = titles
                    .iter()
                    .map(|t| Sentence::analyze(t, tokenizer.as_ref(), &pos))
                    .collect();
                for raw in splitter.split(&body) {
                    sentences.push(Sentence::analyze(&raw, tokenizer.as_ref(), &pos));
                }
                sentences
            });
            let ((found, obs), t_extract) = time_us(tracer, "pae-core.extract_page", span, || {
                extractor.extract_page_observed(*product, page)
            });
            let (_, t_plain) = time_us(tracer, "pae-core.extract_page_plain", span, || {
                extractor.extract_page(*product, page)
            });
            for (k, (name, arm)) in arms.iter().enumerate() {
                let span_name = if *name == "pae-crf" {
                    "pae-crf.decode"
                } else {
                    "pae-neural.decode"
                };
                let (_, t_arm) =
                    time_us(tracer, span_name, span, || arm.extract_page(*product, page));
                decode[k].push(t_arm - t_html - t_text);
            }
            tracer.end(span);
            html.push(t_html);
            text.push(t_text);
            extract.push(t_extract);
            plain.push(t_plain);
            page_extract[i].push(t_extract);
            if round == 0 {
                empty += u64::from(found.is_empty());
                tokens += obs.tokens;
                oov += obs.oov_tokens;
                triples += found.len() as u64;
            }
        }
    }

    let mut json = Vec::new();
    for _ in 0..REPLAY_ROUNDS {
        for r in requests {
            let (doc, t) = time_us(tracer, "pae-obs.json_parse", None, || Json::parse(&r.body));
            doc.map_err(|e| format!("request body is not JSON: {e}"))?;
            json.push(t);
        }
    }

    // Batches shaped like `serve_batch` requests: BATCH_PAGES pages
    // starting at multiples of BATCH_PAGES, wrapping.
    let per_page: Vec<f64> = page_extract.iter().map(|v| median(v)).collect();
    let jobs = pae_runtime::jobs() as f64;
    let (mut efficiency, mut batch_wall) = (Vec::new(), Vec::new());
    for _ in 0..REPLAY_ROUNDS {
        for b in 0..REPLAY_BATCHES.min(pages.len()) {
            let idx: Vec<usize> = (0..BATCH_PAGES)
                .map(|j| (b * BATCH_PAGES + j) % pages.len())
                .collect();
            let chosen: Vec<(u32, String)> = idx.iter().map(|&i| pages[i].clone()).collect();
            let (_, wall) = time_us(tracer, "pae-runtime.extract_pages", None, || {
                extractor.extract_pages_observed(&chosen)
            });
            let busy: f64 = idx.iter().map(|&i| per_page[i]).sum();
            efficiency.push(busy / (wall * jobs));
            batch_wall.push(wall);
        }
    }
    let n = pages.len() as f64;
    Ok(Replay {
        html_us: median(&html),
        text_us: median(&text),
        extract_us: median(&extract),
        plain_us: median(&plain),
        decode_us: arms
            .iter()
            .map(|(name, _)| *name)
            .zip(decode.iter().map(|d| median(d)))
            .collect(),
        json_us: median(&json),
        request_extract_us: if batch == 1 {
            median(&extract)
        } else {
            median(&batch_wall)
        },
        batch_efficiency: median(&efficiency),
        empty_frac: empty as f64 / n,
        oov_frac: oov as f64 / tokens.max(1) as f64,
        triples_per_page: triples as f64 / n,
    })
}

// ---------------------------------------------------------------------
// The run.

/// One shard of a run: a dataset from its own sub-seed, its bootstrap,
/// the bundle frozen from that bootstrap, that bundle loaded again for
/// the oracle and the replay, and the requests with their expected
/// replies.
struct Shard {
    dataset: Dataset,
    boot: Boot,
    bytes: Vec<u8>,
    loaded: LoadedBundle,
    extractor: FrozenExtractor,
    pages: Vec<(u32, String)>,
    requests: Vec<Request>,
}

impl Shard {
    /// Builds the oracle's side of a shard; none of this is timed.
    fn new(w: Workload, dataset: Dataset, boot: Boot, bytes: Vec<u8>) -> Result<Shard, String> {
        let loaded = LoadedBundle::from_bytes(bytes.clone()).map_err(|e| format!("bundle: {e}"))?;
        let extractor = loaded
            .extractor()
            .map_err(|e| format!("bundle extractor: {e}"))?;
        let pages = dataset
            .pages
            .iter()
            .map(|p| (p.id, p.html.clone()))
            .collect();
        let requests = oracle::requests(&extractor, &dataset.pages, w.batch());
        Ok(Shard {
            dataset,
            boot,
            bytes,
            loaded,
            extractor,
            pages,
            requests,
        })
    }

    /// Precision and coverage of the triples served for every page.
    fn quality(&self) -> (f64, f64) {
        let served = self.extractor.extract_pages(&self.pages);
        let report = evaluate_triples(&served, &self.dataset.truth);
        (report.precision(), report.coverage())
    }
}

/// The seed of shard `k` of a run with `seed`.
fn shard_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

/// Bootstrap and freeze run at pool width [`TRAIN_JOBS`].
fn train<R>(f: impl FnOnce() -> R) -> R {
    pae_runtime::with_jobs(TRAIN_JOBS, f)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples [`COLD_STARTS_PER_PROBE`] replica restarts from `bytes`.
fn probe_cold(bytes: &[u8], tracer: &mut Tracer, colds: &mut Vec<ColdStart>) -> Result<(), String> {
    for _ in 0..COLD_STARTS_PER_PROBE {
        let span = tracer.begin("cold_start", None, Some(colds.len() as u64));
        let (server, cold) = start_replica(bytes, tracer, span)?;
        tracer.end(span);
        server.shutdown();
        colds.push(cold);
    }
    Ok(())
}

/// A run's traffic, merged over the shards' slices.
#[derive(Default)]
struct Traffic {
    /// The phase the latency figures come from.
    primary: Phase,
    /// `serve_single`'s closed loop; `serve_batch` takes throughput
    /// from `primary`.
    closed: Option<Phase>,
    /// Each replica's own `/extract` p50 over its warm-up and first
    /// primary segment (µs).
    server_p50_us: Vec<f64>,
    /// Requests sent before each slice and left out of every figure
    /// except the error count.
    warmup: Phase,
}

impl Traffic {
    fn throughput(&self) -> &Phase {
        self.closed.as_ref().unwrap_or(&self.primary)
    }

    fn phases(&self) -> impl Iterator<Item = &Phase> {
        [&self.warmup, &self.primary]
            .into_iter()
            .chain(self.closed.as_ref())
    }
}

/// Sends one shard's slice of the workload's traffic to its replica: a
/// warm-up, then `segments` rounds of the workload's phases, calling
/// `between` after each round.
#[allow(clippy::too_many_arguments)]
fn serve_slice(
    w: Workload,
    slice: Duration,
    segments: usize,
    server: &Server,
    shard: &Shard,
    traffic: &mut Traffic,
    tracer: &mut Tracer,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let send = |schedule, duration, tracer: &mut Tracer| {
        load::run(
            server.addr(),
            &shard.requests,
            schedule,
            duration,
            CLIENTS,
            tracer,
        )
    };
    let mut off = Tracer::new(Instant::now(), false);
    traffic
        .warmup
        .merge(send(Schedule::Closed, WARMUP, &mut off));
    let segment = slice / segments as u32;
    let (mut primary, mut closed) = (Phase::default(), Phase::default());
    for s in 0..segments {
        if w == Workload::ServeSingle {
            let open = Schedule::Open { rate: OPEN_RATE };
            primary.merge(send(open, segment / 2, tracer));
            if s == 0 {
                traffic.server_p50_us.push(server_p50_us(server)?);
            }
            closed.merge(send(Schedule::Closed, segment / 2, tracer));
        } else {
            primary.merge(send(Schedule::Closed, segment, tracer));
            if s == 0 {
                traffic.server_p50_us.push(server_p50_us(server)?);
            }
        }
        between()?;
    }
    // One latency list per replica, which `chunk_quantile_us` cuts into
    // chunks of consecutive requests.
    primary.slices = vec![primary.slices.concat()];
    traffic.primary.merge(primary);
    if w == Workload::ServeSingle {
        closed.slices = vec![closed.slices.concat()];
        traffic
            .closed
            .get_or_insert_with(Phase::default)
            .merge(closed);
    }
    Ok(())
}

/// Each of `shards` shards' slice of `traffic_s` seconds of traffic, and
/// the number of segments it is cut into.
fn slicing(traffic_s: f64, shards: usize) -> (Duration, usize) {
    let slice = Duration::from_secs_f64(traffic_s / shards as f64);
    let segments = (secs(slice) / secs(SEGMENT)).round().max(1.0) as usize;
    (slice, segments)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, args.trace);
    let mut off = Tracer::new(epoch, false);
    let mut out = Outcome::default();
    let config = w.config(args.seed);
    println!(
        "workload {} seed {}: {} shard(s) of {} products of {}, {} cycle(s), {:?}; training at \
         width {TRAIN_JOBS}, serving at PAE_JOBS={} with {SERVER_WORKERS} workers and \
         {CLIENTS} clients; {} s; trace {}",
        w.name(),
        args.seed,
        w.shards(),
        PRODUCTS,
        CategoryKind::VacuumCleaner.name(),
        config.iterations,
        config.tagger,
        pae_runtime::jobs(),
        args.seconds,
        u8::from(args.trace),
    );

    // Shard by shard: set-up, then that shard's slice of the traffic in
    // segments with cold-start probes between them, so that every figure
    // samples the whole run. A traced run splits its traffic time between
    // an untraced pass (here) and a traced one.
    let traffic_s = args.seconds as f64 / if args.trace { 2.0 } else { 1.0 };
    let (slice, segments) = slicing(traffic_s, w.shards());
    let (mut setup_s, mut colds) = (Vec::new(), Vec::new());
    let mut shards = Vec::new();
    // Each shard's bootstrap repeated after its slice: (wall s, digest).
    let mut repeats = Vec::new();
    let digest = |b: &Boot| oracle::triples_digest(&b.outcome.final_triples());
    let mut traffic = Traffic::default();
    for k in 0..w.shards() {
        let config = w.config(shard_seed(args.seed, k));
        let t = Instant::now();
        let span = tracer.begin("shard", None, Some(k as u64));
        let dataset = tracer.leaf("pae-synth.generate", span, || {
            w.dataset(shard_seed(args.seed, k))
        });
        // Untraced, so that a traced repeat gives the overhead.
        let boot = train(|| bootstrap_once(&dataset, &config, &mut off, None));
        let bytes = train(|| freeze(&dataset, &boot, &config, &mut tracer, span))?;
        let (server, _) = start_replica(&bytes, &mut tracer, span)?;
        setup_s.push(secs(t.elapsed()));
        tracer.end(span);
        probe_cold(&bytes, &mut tracer, &mut colds)?;
        let shard = Shard::new(w, dataset, boot, bytes)?;
        let mut probe = || probe_cold(&shard.bytes, &mut tracer, &mut colds);
        serve_slice(
            w,
            slice,
            segments,
            &server,
            &shard,
            &mut traffic,
            &mut off,
            &mut probe,
        )?;
        server.shutdown();
        // Determinism: bootstrapping the shard again gives the same
        // triples. The repeat, at the far end of the shard's slice from
        // the first run, is also a second sample of `bootstrap_s`.
        let again = train(|| bootstrap_once(&shard.dataset, &config, &mut off, None));
        repeats.push((again.wall_s, digest(&again)));
        shards.push(shard);
    }
    println!("setup: {}", row(&setup_s, "s"));
    out.set("setup_s", median(&setup_s));

    let differing: Vec<String> = shards
        .iter()
        .zip(&repeats)
        .enumerate()
        .filter(|(_, (s, r))| digest(&s.boot) != r.1)
        .map(|(k, _)| k.to_string())
        .collect();
    out.attempted += shards.len() as u64;
    out.failed += differing.len() as u64;
    println!(
        "bootstrap determinism: {} of {} shards repeat their final-triples digest{}",
        shards.len() - differing.len(),
        shards.len(),
        if differing.is_empty() {
            String::new()
        } else {
            format!("; shard(s) {} DIFFER on a second run", differing.join(" "))
        }
    );
    let boots: Vec<&Boot> = shards.iter().map(|s| &s.boot).collect();
    let walls: Vec<f64> = boots
        .iter()
        .map(|b| b.wall_s)
        .chain(repeats.iter().map(|r| r.0))
        .collect();
    let listed: Vec<String> = walls.iter().map(|v| format!("{v:.3}")).collect();
    println!(
        "bootstrap wall (each shard's run, then each repeat): {} [{}]",
        row(&walls, "s"),
        listed.join(" ")
    );
    out.set("bootstrap_s", median(&walls));

    let (precision, coverage): (Vec<f64>, Vec<f64>) = shards.iter().map(Shard::quality).unzip();
    println!(
        "quality (served triples over every page): precision {:.4}, coverage {:.4} \
         (mean over shards)",
        mean(&precision),
        mean(&coverage)
    );
    out.set("precision", mean(&precision));
    out.set("coverage", mean(&coverage));
    let body_bytes: Vec<f64> = shards[0]
        .requests
        .iter()
        .map(|r| r.body.len() as f64)
        .collect();
    println!(
        "traffic: per shard {} distinct /extract bodies of {} page(s), median {} B",
        shards[0].requests.len(),
        w.batch(),
        median(&body_bytes)
    );

    let cold_total: Vec<f64> = colds.iter().map(|c| c.total_ms).collect();
    println!(
        "cold start (probes over the run): {}, quiet quartile {:.3} ms",
        row(&cold_total, "ms"),
        quiet_quartile(&cold_total, true)
    );
    out.set("cold_start_ms", quiet_quartile(&cold_total, true));
    for p in traffic.phases() {
        out.attempted += p.attempted;
        out.failed += p.failed;
        if let Some(e) = &p.first_failure {
            println!("first failed request: {e}");
        }
    }
    let primary = &traffic.primary;
    let throughput = traffic.throughput();
    let loop_name = if w == Workload::ServeSingle {
        format!("open loop at {OPEN_RATE} req/s")
    } else {
        format!("closed loop, {CLIENTS} clients")
    };
    println!(
        "/extract latency ({loop_name}), pooled: {}",
        row(
            &primary
                .latency_us()
                .iter()
                .map(|us| us / 1e3)
                .collect::<Vec<_>>(),
            "ms"
        )
    );
    if !primary.late_us.is_empty() {
        println!("open-loop send lateness: {}", row(&primary.late_us, "us"));
    }
    println!(
        "throughput (closed loop, {CLIENTS} clients): quiet quartile over {} segments {:.1} \
         pages/s, median {:.1}, pooled {:.1} pages/s over {:.2} s; {} connects for {} requests",
        throughput.slice_pages_per_s.len(),
        throughput.segment_pages_per_s(),
        median(&throughput.slice_pages_per_s),
        throughput.pages_per_s(),
        throughput.wall_s,
        throughput.connects,
        throughput.attempted
    );
    let (Some(p50), Some(p95)) = (
        primary.chunk_quantile_us(0.5),
        primary.chunk_quantile_us(0.95),
    ) else {
        return Err("no /extract request succeeded".to_owned());
    };
    println!(
        "/extract latency, quiet quartile over chunks of ~{} requests in {} replica slices: \
         p50 {:.3} ms, p95 {:.3} ms",
        load::CHUNK,
        primary.slices.len(),
        p50 / 1e3,
        p95 / 1e3
    );
    let per_slice = |f: &dyn Fn(&Vec<f64>) -> f64| -> String {
        let v: Vec<String> = primary
            .slices
            .iter()
            .map(|l| format!("{:.3}", f(l)))
            .collect();
        v.join(" ")
    };
    println!(
        "  per replica slice: p50 ms [{}], p95 ms [{}]; per segment: closed-loop pages/s [{}]",
        per_slice(&|l| quantile(&sorted(l.clone()), 0.5) / 1e3),
        per_slice(&|l| quantile(&sorted(l.clone()), 0.95) / 1e3),
        throughput
            .slice_pages_per_s
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    out.set("extract_p50_ms", p50 / 1e3);
    out.set("extract_p95_ms", p95 / 1e3);
    out.set("pages_per_s", throughput.segment_pages_per_s());
    out.set("peak_rss_mb", report::peak_rss_mb()?);
    println!(
        "error rate: {} of {} operations failed ({:.6})",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted as f64
    );

    if args.trace {
        traced(args, slice, &mut out, &mut tracer, &shards, &traffic)?;
        // A traced repeat of shard 0, for the tracing overhead and spans.
        let config0 = w.config(shard_seed(args.seed, 0));
        let span = tracer.begin("bootstrap.repeat", None, None);
        let repeat = train(|| bootstrap_once(&shards[0].dataset, &config0, &mut tracer, span));
        tracer.end(span);
        bootstrap_table(&boots, &repeat, &mut out);
        set_work_counts(&boots, &mut out);
        let cold = |f: &dyn Fn(&ColdStart) -> f64| median(&colds.iter().map(f).collect::<Vec<_>>());
        out.set("pae-core.bundle_open_us", cold(&|c| c.open_us));
        out.set("pae-core.extractor_us", cold(&|c| c.extractor_us));
        out.set("pae-serve.start_ms", cold(&|c| c.start_ms));
        println!(
            "cold start layers (p50): bundle open {:.1} us, extractor + reference {:.1} us, \
             server start to first /healthz {:.3} ms",
            cold(&|c| c.open_us),
            cold(&|c| c.extractor_us),
            cold(&|c| c.start_ms)
        );
        print_spans(&tracer);
        let path = args
            .out
            .join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", tracer.len(), path.display());
    }
    out.correct = out.failed == 0;
    Ok(out)
}

/// The traced traffic on fresh replicas, the in-process replay of
/// shard 0, and the serve layer table.
fn traced(
    args: &Args,
    slice: Duration,
    out: &mut Outcome,
    tracer: &mut Tracer,
    shards: &[Shard],
    untraced: &Traffic,
) -> Result<(), String> {
    let w = args.workload;
    let mut traffic = Traffic::default();
    for shard in shards {
        let (server, _) = start_replica(&shard.bytes, tracer, None)?;
        // One segment per replica, so that its `/statusz` p50 covers the
        // whole primary phase.
        serve_slice(
            w,
            slice,
            1,
            &server,
            shard,
            &mut traffic,
            tracer,
            &mut || Ok(()),
        )?;
        server.shutdown();
    }
    for p in traffic.phases() {
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    let (primary, throughput) = (&traffic.primary, traffic.throughput());
    let untraced_throughput = untraced.throughput();
    let untraced = &untraced.primary;
    let client_p50 = median(&primary.latency_us());
    let server_p50 = median(&traffic.server_p50_us);
    let model = shards[0]
        .loaded
        .model()
        .map_err(|e| format!("bundle model: {e}"))?;
    let rp = replay(&model, &shards[0], w.batch(), tracer)?;

    println!(
        "tracing overhead: extract p50 {:+.1} us ({:.1} traced vs {:.1} untraced), \
         throughput {:+.1} pages/s ({:.1} vs {:.1})",
        client_p50 - median(&untraced.latency_us()),
        client_p50,
        median(&untraced.latency_us()),
        throughput.segment_pages_per_s() - untraced_throughput.segment_pages_per_s(),
        throughput.segment_pages_per_s(),
        untraced_throughput.segment_pages_per_s(),
    );
    if !primary.late_us.is_empty() {
        let late = sorted(primary.late_us.clone());
        println!(
            "loadgen.late_p99_us {:.1} (open-loop health: a large value invalidates the \
             open-loop figures)",
            quantile(&late, 0.99)
        );
    }

    let outside = client_p50 - server_p50;
    let connects = primary.connects as f64 / primary.attempted.max(1) as f64;
    out.set("pae-serve.server_p50_us", server_p50);
    out.set("pae-serve.outside_p50_us", outside);
    out.set("pae-serve.connects_per_request", connects);
    out.set("pae-obs.json_parse_us", rp.json_us);
    out.set("pae-html.parse_us", rp.html_us);
    out.set("pae-text.analyze_us", rp.text_us);
    out.set("pae-core.extract_page_us", rp.extract_us);
    let crf = rp
        .decode_us
        .iter()
        .find(|(n, _)| *n == "pae-crf")
        .map(|(_, v)| *v);
    out.set(
        "pae-crf.decode_page_us",
        crf.ok_or("the bundle has no CRF arm")?,
    );
    out.set("pae-runtime.batch_efficiency", rp.batch_efficiency);
    out.set("pae-core.empty_page_frac", rp.empty_frac);
    out.set("pae-text.oov_frac", rp.oov_frac);
    out.set("pae-core.triples_per_page", rp.triples_per_page);

    let connect_p50 = tracer
        .summary()
        .iter()
        .find(|(name, ..)| *name == "http.connect")
        .map_or(0.0, |(_, _, p50, _)| *p50);
    println!(
        "serve layer table (p50 us per request, traced phase; shares of the client p50; \
         replay figures come from shard 0 run in-process without load)"
    );
    let line = |name: &str, v: f64| {
        println!("  {name:<62} {v:>10.1} {:>6.1}%", 100.0 * v / client_p50);
    };
    line("client /extract latency", client_p50);
    line("  pae-serve outside = client - server", outside);
    line("    client-timed connect", connect_p50);
    line(
        "    unattributed: accept-queue wait, close, client",
        outside - connect_p50,
    );
    line(
        "  pae-serve server: read + handle + write (/statusz)",
        server_p50,
    );
    line("    pae-obs request JSON parse", rp.json_us);
    line(
        "    pae-core extraction of the request's pages",
        rp.request_extract_us,
    );
    line(
        "    residual: server - json - extraction (read, render, write, load)",
        server_p50 - rp.json_us - rp.request_extract_us,
    );
    line(
        "  residual: client - (outside + server)",
        client_p50 - (outside + server_p50),
    );
    println!("page layer table (p50 us per page, serial; shares of extract_page)");
    let page = |name: &str, v: f64| {
        println!("  {name:<62} {v:>10.1} {:>6.1}%", 100.0 * v / rp.extract_us);
    };
    page("pae-core extract_page_observed", rp.extract_us);
    page("  pae-html parse + extract_text", rp.html_us);
    page("  pae-text split + analyze", rp.text_us);
    let mut decoded = 0.0;
    for (name, v) in &rp.decode_us {
        page(
            &format!("  {name} decode (its arm alone: extract - html - text)"),
            *v,
        );
        decoded += v;
    }
    page(
        "  observation overlay: observed - plain extract_page",
        rp.extract_us - rp.plain_us,
    );
    page(
        "  residual: plain - html - text - arms (cleaning)",
        rp.plain_us - rp.html_us - rp.text_us - decoded,
    );
    println!(
        "  pae-runtime batch efficiency {:.3} over {BATCH_PAGES}-page batches at width {}",
        rp.batch_efficiency,
        pae_runtime::jobs()
    );
    println!(
        "  work: empty pages {:.4}, OOV tokens {:.4}, triples/page {:.3}; connects/request {:.3}",
        rp.empty_frac, rp.oov_frac, rp.triples_per_page, connects
    );
    Ok(())
}

/// Per-layer figures of the shards' bootstraps: means over shards, so
/// that the stages add up to the mean wall time.
struct BootLayers {
    corpus_ms: f64,
    seed_ms: f64,
    diversify_ms: f64,
    /// Per cycle: (train, features, grad, line search, extract, veto,
    /// semantic, cycle total) in ms.
    cycles: Vec<[f64; 8]>,
}

fn boot_layers(boots: &[&Boot]) -> BootLayers {
    let ms = |d: Duration| secs(d) * 1e3;
    let avg = |f: &dyn Fn(&Boot) -> f64| mean(&boots.iter().map(|b| f(b)).collect::<Vec<_>>());
    let n_cycles = boots
        .iter()
        .map(|b| b.outcome.snapshots.len())
        .min()
        .unwrap_or(0);
    let cycles = (0..n_cycles)
        .map(|c| {
            std::array::from_fn(|k| {
                avg(&|b: &Boot| {
                    let t = &b.outcome.snapshots[c].timings;
                    [
                        ms(t.train),
                        ms(t.crf.features),
                        ms(t.crf.grad),
                        ms(t.crf.line_search),
                        ms(t.extract),
                        ms(t.veto),
                        ms(t.semantic),
                        ms(t.total()),
                    ][k]
                })
            })
        })
        .collect();
    BootLayers {
        corpus_ms: avg(&|b| b.corpus_ms),
        seed_ms: avg(&|b| ms(b.outcome.prep.seed)),
        diversify_ms: avg(&|b| ms(b.outcome.prep.diversify)),
        cycles,
    }
}

/// Bootstrap stage metrics and the bootstrap layer table with residual.
fn bootstrap_table(boots: &[&Boot], repeat: &Boot, out: &mut Outcome) {
    let l = boot_layers(boots);
    let sum = |k: usize| l.cycles.iter().map(|c| c[k]).sum::<f64>();
    out.set("pae-core.corpus_parse_ms", l.corpus_ms);
    out.set("pae-core.seed_ms", l.seed_ms);
    out.set("pae-core.diversify_ms", l.diversify_ms);
    out.set("pae-crf.train_ms", sum(0));
    out.set("pae-crf.features_ms", sum(1));
    out.set("pae-crf.grad_ms", sum(2));
    out.set("pae-crf.line_search_ms", sum(3));
    out.set("pae-core.extract_ms", sum(4));
    out.set("pae-core.veto_ms", sum(5));
    out.set("pae-core.semantic_ms", sum(6));

    let wall_ms = mean(&boots.iter().map(|b| b.wall_s * 1e3).collect::<Vec<_>>());
    println!(
        "bootstrap layer table (mean over {} shard(s), ms; shares of the wall time)",
        boots.len()
    );
    let line = |name: &str, v: f64| {
        println!("  {name:<62} {v:>10.1} {:>6.1}%", 100.0 * v / wall_ms);
    };
    line("parse_corpus + run_on_corpus (wall)", wall_ms);
    line("  pae-core corpus parse (pae-html + pae-text)", l.corpus_ms);
    line("  pae-core seed", l.seed_ms);
    line("  pae-core diversify", l.diversify_ms);
    for (i, c) in l.cycles.iter().enumerate() {
        line(&format!("  cycle {}", i + 1), c[7]);
        line(
            "    pae-crf train (both arms run at once for an ensemble)",
            c[0],
        );
        line("      features (within train)", c[1]);
        line("      gradient evaluations (within train)", c[2]);
        line(
            "      line search (within train, includes its gradients)",
            c[3],
        );
        line("    pae-core extract", c[4]);
        line("    pae-core veto", c[5]);
        line("    pae-core semantic (incl. pae-embed word2vec)", c[6]);
    }
    line(
        "  residual: wall - (corpus + seed + diversify + cycles)",
        wall_ms - (l.corpus_ms + l.seed_ms + l.diversify_ms + sum(7)),
    );
    if l.cycles.len() >= 2 {
        let later: Vec<f64> = l.cycles[1..].iter().map(|c| c[0]).collect();
        println!(
            "  pae-crf.cycle_ratio {:.3} (mean train of cycles >= 2 / cycle 1)",
            mean(&later) / l.cycles[0][0]
        );
    }
    println!(
        "  tracing overhead: shard 0 bootstrap {:+.3} s ({:.3} traced vs {:.3} untraced)",
        repeat.wall_s - boots[0].wall_s,
        repeat.wall_s,
        boots[0].wall_s
    );
}

/// Work counts of the shards' bootstraps, summed.
fn set_work_counts(boots: &[&Boot], out: &mut Outcome) {
    let total = |f: &dyn Fn(&BootstrapOutcome) -> usize| {
        boots.iter().map(|b| f(&b.outcome)).sum::<usize>() as f64
    };
    let cycles = |f: &dyn Fn(&pae_core::IterationSnapshot) -> usize| {
        total(&|o: &BootstrapOutcome| o.snapshots.iter().map(f).sum())
    };
    let counts = [
        (
            "pae-core.seed_pairs",
            total(&|o| o.seed.product_pairs.len()),
        ),
        (
            "pae-core.clean_attrs",
            total(&|o| o.seed.table.attrs().len()),
        ),
        ("pae-core.candidates", cycles(&|s| s.n_candidates)),
        ("pae-core.veto_dropped", cycles(&|s| s.veto.total())),
        ("pae-core.semantic_removed", cycles(&|s| s.semantic.removed)),
        ("pae-core.triples", total(&|o| o.final_triples().len())),
    ];
    let text: Vec<String> = counts.iter().map(|(n, v)| format!("{n} {v}")).collect();
    println!("  work (summed over shards): {}", text.join(", "));
    for (name, value) in counts {
        out.set(name, value);
    }
}

fn print_spans(tracer: &Tracer) {
    println!("spans (count, p50 duration us, p50 self us)");
    for (name, n, dur, own) in tracer.summary() {
        println!("  {name:<34} {n:>8} {dur:>12.1} {own:>12.1}");
    }
}
