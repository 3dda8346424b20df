//! DVR integration of the `sim-sweep` crash-safe sweep layer.
//!
//! `sim-sweep` supplies the domain-agnostic machinery (journal, cache,
//! supervisor, fault injection); this module supplies the DVR pieces:
//!
//! - [`SweepCell`] — one (workload, config, technique) grid point with
//!   a canonical whitespace-free key that is both the journal token
//!   and the CLI spelling;
//! - a full-fidelity binary [`SimReport`] codec ([`encode_report`] /
//!   [`decode_report`]) — unlike [`SimReport::to_json`] it round-trips
//!   every counter, so cached results are indistinguishable from
//!   freshly computed ones;
//! - [`cache_key`] — the content address: a digest of the program
//!   bytes + initialized memory image, the canonical (`Debug`) config
//!   rendering, and the code version ([`CACHE_CODE_VERSION`] plus the
//!   crate version), so a simulator change can never serve stale
//!   results;
//! - [`report_key`], [`lookup_report`] and [`store_report`] — the one
//!   path by which reports enter and leave the result cache: `figures
//!   --cache` and `dvrsim serve` read and write through them, and
//!   [`DvrSweepRunner`] keys its cells with the first;
//! - [`DvrSweepRunner`] — the [`CellRunner`] gluing it together for
//!   `dvrsim sweep`, `dvrsim serve`, and the worker subcommand.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sim_isa::bytes::{put_str, DecodeError, Reader};
use sim_sample::{Placement, SampleConfig};
use sim_sweep::{CacheLookup, CellRunner, Digest128, Hasher, ResultCache, SweepError};
use workloads::{Benchmark, GraphInput, SizeClass, Workload};

use crate::config::{SimConfig, Technique};
use crate::report::{RunOutcome, SamplingSummary, SimReport};
use crate::runner::simulate;

/// Bumped whenever a simulator change invalidates cached results
/// (model fixes, stat additions, codec changes). Part of every cache
/// key next to the crate version.
pub const CACHE_CODE_VERSION: u32 = 1;

/// Version tag of the binary report payload.
pub const REPORT_CODEC_VERSION: u32 = 1;

/// Opens every report payload: the bytes `DVRR`, read as a little-endian word.
const REPORT_MAGIC: u32 = 0x5252_5644;

/// All techniques in a stable order (codec indices and `all` grids).
pub const ALL_TECHNIQUES: [Technique; 8] = [
    Technique::Baseline,
    Technique::Pre,
    Technique::Imp,
    Technique::Vr,
    Technique::Dvr,
    Technique::DvrOffload,
    Technique::DvrDiscovery,
    Technique::Oracle,
];

/// Canonical lowercase token for a technique (the CLI spelling).
pub fn technique_token(t: Technique) -> &'static str {
    match t {
        Technique::Baseline => "ooo",
        Technique::Pre => "pre",
        Technique::Imp => "imp",
        Technique::Vr => "vr",
        Technique::Dvr => "dvr",
        Technique::DvrOffload => "dvr-offload",
        Technique::DvrDiscovery => "dvr-discovery",
        Technique::Oracle => "oracle",
    }
}

/// Parses a [`technique_token`] back.
pub fn parse_technique_token(s: &str) -> Option<Technique> {
    ALL_TECHNIQUES.into_iter().find(|&t| technique_token(t) == s)
}

/// Canonical lowercase token for a size class.
pub fn size_token(s: SizeClass) -> &'static str {
    match s {
        SizeClass::Test => "test",
        SizeClass::Small => "small",
        SizeClass::Paper => "paper",
    }
}

/// Parses a [`size_token`] back.
pub fn parse_size_token(s: &str) -> Option<SizeClass> {
    match s {
        "test" => Some(SizeClass::Test),
        "small" => Some(SizeClass::Small),
        "paper" => Some(SizeClass::Paper),
        _ => None,
    }
}

fn input_token(i: Option<GraphInput>) -> String {
    match i {
        None => "-".to_string(),
        Some(g) => g.name().to_lowercase(),
    }
}

/// One sweep grid point: everything needed to rebuild the workload and
/// config deterministically.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SweepCell {
    /// Benchmark to run.
    pub bench: Benchmark,
    /// Graph input (GAP benchmarks only; `None` for hpc-db).
    pub input: Option<GraphInput>,
    /// Technique simulated.
    pub technique: Technique,
    /// Workload size class.
    pub size: SizeClass,
    /// Synthetic-data seed.
    pub seed: u64,
    /// Instruction budget (ROI length).
    pub instrs: u64,
}

impl SweepCell {
    /// The canonical cell key: a whitespace-free token that names the
    /// cell in the journal, `summary.json`, and on the CLI.
    ///
    /// ```
    /// use dvr_sim::sweep::SweepCell;
    /// use dvr_sim::Technique;
    /// use workloads::{Benchmark, GraphInput, SizeClass};
    /// let cell = SweepCell {
    ///     bench: Benchmark::Bfs,
    ///     input: Some(GraphInput::Kr),
    ///     technique: Technique::Dvr,
    ///     size: SizeClass::Test,
    ///     seed: 42,
    ///     instrs: 20_000,
    /// };
    /// assert_eq!(cell.key(), "bench=bfs,input=kr,technique=dvr,size=test,seed=42,instrs=20000");
    /// assert_eq!(SweepCell::parse(&cell.key()).unwrap(), cell);
    /// ```
    pub fn key(&self) -> String {
        format!(
            "bench={},input={},technique={},size={},seed={},instrs={}",
            self.bench.name().to_lowercase(),
            input_token(self.input),
            technique_token(self.technique),
            size_token(self.size),
            self.seed,
            self.instrs,
        )
    }

    /// Parses a [`SweepCell::key`] rendering.
    pub fn parse(key: &str) -> Result<SweepCell, String> {
        let mut bench = None;
        let mut input = None;
        let mut technique = None;
        let mut size = None;
        let mut seed = None;
        let mut instrs = None;
        for part in key.split(',') {
            let (k, v) = part.split_once('=').ok_or_else(|| format!("bad field `{part}`"))?;
            match k {
                "bench" => {
                    bench = Some(
                        Benchmark::parse(v).ok_or_else(|| format!("unknown benchmark `{v}`"))?,
                    )
                }
                "input" => {
                    input = Some(match v {
                        "-" => None,
                        _ => Some(
                            GraphInput::parse(v).ok_or_else(|| format!("unknown input `{v}`"))?,
                        ),
                    })
                }
                "technique" => {
                    technique = Some(
                        parse_technique_token(v)
                            .ok_or_else(|| format!("unknown technique `{v}`"))?,
                    )
                }
                "size" => {
                    size = Some(parse_size_token(v).ok_or_else(|| format!("unknown size `{v}`"))?)
                }
                "seed" => seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?),
                "instrs" => instrs = Some(v.parse().map_err(|_| format!("bad instrs `{v}`"))?),
                _ => return Err(format!("unknown field `{k}`")),
            }
        }
        Ok(SweepCell {
            bench: bench.ok_or("missing bench")?,
            input: input.ok_or("missing input")?,
            technique: technique.ok_or("missing technique")?,
            size: size.ok_or("missing size")?,
            seed: seed.ok_or("missing seed")?,
            instrs: instrs.ok_or("missing instrs")?,
        })
    }

    /// The cell's simulator configuration.
    pub fn config(&self) -> SimConfig {
        SimConfig::new(self.technique).with_max_instructions(self.instrs)
    }

    /// Builds the full grid: GAP benchmarks cross the given inputs,
    /// hpc-db benchmarks appear once (input `-`), each crossed with
    /// every technique, in a stable order.
    pub fn grid(
        benches: &[Benchmark],
        inputs: &[GraphInput],
        techniques: &[Technique],
        size: SizeClass,
        seed: u64,
        instrs: u64,
    ) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for &bench in benches {
            let cell_inputs: Vec<Option<GraphInput>> =
                if bench.is_gap() { inputs.iter().map(|&g| Some(g)).collect() } else { vec![None] };
            for &input in &cell_inputs {
                for &technique in techniques {
                    cells.push(SweepCell { bench, input, technique, size, seed, instrs });
                }
            }
        }
        cells
    }
}

// ---------------------------------------------------------------------------
// Binary report codec
// ---------------------------------------------------------------------------

/// Encodes a **completed** report as a self-describing binary payload.
///
/// Full fidelity where [`SimReport::to_json`] is lossy: every counter
/// in `core` and `mem` round-trips, floats travel as IEEE bits, and
/// the sampling summary (if any) is preserved. `host_seconds` is
/// deliberately encoded as zero — cached results must be byte-stable
/// across hosts — and the side-band `sanitizer` field is dropped,
/// exactly as `to_json` drops it.
///
/// Fails on a failed outcome: failures are journaled as typed text,
/// never content-addressed (a flaky host must not poison the cache).
pub fn encode_report(r: &SimReport) -> Result<Vec<u8>, String> {
    if let RunOutcome::Failed(e) = &r.outcome {
        return Err(format!("refusing to encode failed report ({})", e.kind()));
    }
    let mut out = Vec::with_capacity(512);
    out.extend_from_slice(&REPORT_MAGIC.to_le_bytes());
    out.extend_from_slice(&REPORT_CODEC_VERSION.to_le_bytes());
    let tech =
        ALL_TECHNIQUES.iter().position(|&t| t == r.technique).expect("every technique is indexed");
    out.push(tech as u8);
    put_str(&mut out, &r.workload);
    // Every counter and float travels as one little-endian `u64` word.
    let put = |out: &mut Vec<u8>, words: &[u64]| {
        words.iter().for_each(|w| out.extend_from_slice(&w.to_le_bytes()));
    };
    put(&mut out, &r.core.to_flat());
    put(&mut out, &r.mem.to_flat());
    put(&mut out, &[r.ipc.to_bits(), r.mlp.to_bits(), r.simulated_instructions]);
    match &r.sampling {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put(&mut out, &[s.intervals as u64, s.interval_len, s.warmup_len, s.period]);
            out.push(u8::from(s.placement == Placement::Random.name()));
            put(&mut out, &[s.seed, s.ipc_mean.to_bits(), s.ipc_variance.to_bits()]);
            put(&mut out, &[s.ipc_ci95.to_bits(), s.mlp_mean.to_bits(), s.detailed_instructions]);
            put(&mut out, &[s.warmup_instructions, s.ffwd_instructions]);
        }
    }
    let e = &r.engine;
    put(&mut out, &[e.episodes, e.runahead_loads, e.nested_episodes, e.lanes_lost]);
    put_str(&mut out, &e.detail);
    Ok(out)
}

/// Decodes an [`encode_report`] payload back to a [`SimReport`]
/// (outcome `Complete`, `host_seconds` zero, no side-band state).
pub fn decode_report(raw: &[u8]) -> Result<SimReport, String> {
    read_report(&mut Reader::new(raw)).map_err(|e| format!("report payload: {e}"))
}

fn read_report(r: &mut Reader<'_>) -> Result<SimReport, DecodeError> {
    r.magic(REPORT_MAGIC)?;
    r.version(REPORT_CODEC_VERSION)?;
    let technique = *ALL_TECHNIQUES
        .get(usize::from(r.u8("technique")?))
        .ok_or(DecodeError::Invalid { field: "technique" })?;
    let workload = r.str("workload")?.to_string();
    let mut flats = |n: usize, field| (0..n).map(|_| r.u64(field)).collect::<Result<Vec<_>, _>>();
    let core = sim_ooo::CoreStats::from_flat(&flats(sim_ooo::CoreStats::FLAT_LEN, "core")?)
        .ok_or(DecodeError::Invalid { field: "core" })?;
    let mem = sim_mem::MemStats::from_flat(&flats(sim_mem::MemStats::FLAT_LEN, "mem")?)
        .ok_or(DecodeError::Invalid { field: "mem" })?;
    let ipc = r.f64("ipc")?;
    let mlp = r.f64("mlp")?;
    let simulated_instructions = r.u64("simulated_instructions")?;
    let sampling = if r.bool("sampling flag")? {
        Some(SamplingSummary {
            intervals: r.u64("intervals")? as usize,
            interval_len: r.u64("interval_len")?,
            warmup_len: r.u64("warmup_len")?,
            period: r.u64("period")?,
            placement: if r.bool("placement")? { Placement::Random } else { Placement::Systematic }
                .name(),
            seed: r.u64("seed")?,
            ipc_mean: r.f64("ipc_mean")?,
            ipc_variance: r.f64("ipc_variance")?,
            ipc_ci95: r.f64("ipc_ci95")?,
            mlp_mean: r.f64("mlp_mean")?,
            detailed_instructions: r.u64("detailed_instructions")?,
            warmup_instructions: r.u64("warmup_instructions")?,
            ffwd_instructions: r.u64("ffwd_instructions")?,
        })
    } else {
        None
    };
    let engine = crate::report::EngineSummary {
        episodes: r.u64("episodes")?,
        runahead_loads: r.u64("runahead_loads")?,
        nested_episodes: r.u64("nested_episodes")?,
        lanes_lost: r.u64("lanes_lost")?,
        detail: r.str("detail")?.to_string(),
    };
    r.finish()?;
    Ok(SimReport {
        technique,
        workload,
        core,
        mem,
        ipc,
        mlp,
        simulated_instructions,
        host_seconds: 0.0,
        sampling,
        engine,
        outcome: RunOutcome::Complete,
        sanitizer: None,
        work: Default::default(),
    })
}

// ---------------------------------------------------------------------------
// Cache key derivation
// ---------------------------------------------------------------------------

/// The content address of one simulation result: a digest of
/// (program bytes + initialized memory image, canonical config
/// rendering, code version). Any change to the workload builder, the
/// configuration, the sampling plan, or the simulator version yields a
/// different key, so the cache can only ever serve exact matches.
pub fn cache_key(wl: &Workload, cfg: &SimConfig, sample: Option<&SampleConfig>) -> Digest128 {
    let mut h = Hasher::new();
    h.write_str("dvr-result-v1");
    h.write_u64(u64::from(CACHE_CODE_VERSION));
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_str(&wl.name);
    h.write_u64(wl.prog.len() as u64);
    // The program's Debug rendering covers every instruction, label,
    // and line table entry; the memory checksum + footprint cover the
    // initialized data image.
    h.write_str(&format!("{:?}", wl.prog));
    h.write_u64(wl.mem.checksum());
    h.write_u64(wl.mem.footprint_bytes() as u64);
    h.write_str(&format!("{cfg:?}"));
    match sample {
        None => h.write_str("exact"),
        Some(s) => h.write_str(&format!("{s:?}")),
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Reports in the result cache
// ---------------------------------------------------------------------------

/// The content address of a report, or `None` when the run must not be
/// cached: a sanitized run's ledger is not part of the payload.
pub fn report_key(
    wl: &Workload,
    cfg: &SimConfig,
    sample: Option<&SampleConfig>,
) -> Option<Digest128> {
    (!cfg.core.sanitize).then(|| cache_key(wl, cfg, sample))
}

/// Serves the report stored under `key`: `Ok(None)` is a miss. An error
/// is an entry the caller recomputes — a corrupt one, which the cache
/// has quarantined and counted, or an intact one whose payload does not
/// decode (the cache counted that one as a hit).
pub fn lookup_report(cache: &ResultCache, key: Digest128) -> Result<Option<SimReport>, SweepError> {
    match cache.lookup(key) {
        CacheLookup::Hit(payload) => decode_report(&payload)
            .map(Some)
            .map_err(|reason| SweepError::CacheCorrupt { path: cache.entry_path(key), reason }),
        CacheLookup::Miss => Ok(None),
        CacheLookup::Corrupt(e) => Err(e),
    }
}

/// Stores a complete report under `key`. A failed run is never cached,
/// so it stores nothing.
pub fn store_report(cache: &ResultCache, key: Digest128, r: &SimReport) -> Result<(), SweepError> {
    match encode_report(r) {
        Ok(payload) => cache.store(key, &payload),
        Err(_) => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// The DVR cell runner
// ---------------------------------------------------------------------------

/// Memoization key for shared workloads: one build serves every
/// technique in the grid.
type WorkloadKey = (Benchmark, Option<GraphInput>, SizeClass, u64);

/// [`CellRunner`] for DVR sweeps: parses cell keys, builds workloads
/// (memoized — grids share them across techniques), runs the exact
/// simulator, and speaks the binary report codec.
pub struct DvrSweepRunner {
    exe: Option<PathBuf>,
    workloads: Mutex<HashMap<WorkloadKey, Arc<Workload>>>,
}

impl DvrSweepRunner {
    /// A runner computing cells in-process. Pass the `dvrsim` binary
    /// path to enable `--jobs` worker dispatch.
    pub fn new(exe: Option<PathBuf>) -> Self {
        DvrSweepRunner { exe, workloads: Mutex::new(HashMap::new()) }
    }

    /// The (memoized) workload for a cell.
    pub fn workload(&self, cell: &SweepCell) -> Arc<Workload> {
        let key = (cell.bench, cell.input, cell.size, cell.seed);
        if let Some(wl) = self.workloads.lock().unwrap().get(&key) {
            return Arc::clone(wl);
        }
        // Build outside the lock: workload construction is the
        // expensive part and other cells shouldn't serialize behind it.
        let wl = Arc::new(cell.bench.build(cell.input, cell.size, cell.seed));
        Arc::clone(self.workloads.lock().unwrap().entry(key).or_insert(wl))
    }

    /// Runs one cell to a full report (shared by the in-process path,
    /// the worker subcommand, and `dvrsim serve`).
    pub fn run_report(&self, cell: &SweepCell) -> SimReport {
        simulate(&self.workload(cell), &cell.config())
    }
}

impl CellRunner for DvrSweepRunner {
    fn run(&self, cell: &str) -> Result<Vec<u8>, (String, String)> {
        let cell = SweepCell::parse(cell).map_err(|e| ("bad_cell".to_string(), e))?;
        let report = self.run_report(&cell);
        match &report.outcome {
            RunOutcome::Complete => encode_report(&report).map_err(|e| ("codec".into(), e)),
            RunOutcome::Failed(e) => Err((e.kind().to_string(), e.to_string())),
        }
    }

    fn worker_args(&self, cell: &str) -> Option<Vec<String>> {
        let exe = self.exe.as_ref()?;
        Some(vec![exe.display().to_string(), "sweep-worker".into(), cell.to_string()])
    }

    fn cache_key(&self, cell: &str) -> Option<Digest128> {
        let cell = SweepCell::parse(cell).ok()?;
        report_key(&self.workload(&cell), &cell.config(), None)
    }

    fn summarize(&self, _cell: &str, payload: &[u8]) -> Result<String, String> {
        Ok(decode_report(payload)?.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::EngineSummary;

    #[test]
    fn cell_keys_roundtrip_for_the_full_grid() {
        let cells = SweepCell::grid(
            &Benchmark::ALL,
            &GraphInput::ALL,
            &ALL_TECHNIQUES,
            SizeClass::Test,
            42,
            20_000,
        );
        // 5 GAP benchmarks x 5 inputs + 8 hpc-db, each x 8 techniques.
        assert_eq!(cells.len(), (5 * 5 + 8) * 8);
        for cell in &cells {
            let key = cell.key();
            assert!(!key.chars().any(|c| c.is_whitespace()), "{key}");
            assert_eq!(SweepCell::parse(&key).unwrap(), *cell, "{key}");
        }
        // Keys are unique across the grid.
        let keys: std::collections::HashSet<String> = cells.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn cell_parse_rejects_garbage() {
        assert!(
            SweepCell::parse("bench=nope,input=-,technique=dvr,size=test,seed=1,instrs=1").is_err()
        );
        assert!(SweepCell::parse("bench=bfs").is_err(), "missing fields");
        assert!(SweepCell::parse("").is_err());
        assert!(
            SweepCell::parse("bench=bfs,input=kr,technique=dvr,size=test,seed=1,instrs=1,x=2")
                .is_err(),
            "unknown field"
        );
    }

    fn fat_report() -> SimReport {
        let core = sim_ooo::CoreStats {
            cycles: 123_456,
            committed: 200_000,
            loads: 44_000,
            ..Default::default()
        };
        let mem =
            sim_mem::MemStats { demand_loads: 44_000, dram_demand: 1_234, ..Default::default() };
        SimReport {
            technique: Technique::Dvr,
            workload: "bfs/KR".into(),
            core,
            mem,
            ipc: 1.618_033,
            mlp: 7.25,
            simulated_instructions: 200_000,
            host_seconds: 3.25, // must NOT survive the codec
            sampling: Some(SamplingSummary {
                intervals: 10,
                interval_len: 2_000,
                warmup_len: 2_000,
                period: 20_000,
                placement: "random",
                seed: 7,
                ipc_mean: 1.618_033,
                ipc_variance: 0.002,
                ipc_ci95: f64::INFINITY,
                mlp_mean: 7.25,
                detailed_instructions: 20_000,
                warmup_instructions: 20_000,
                ffwd_instructions: 160_000,
            }),
            engine: EngineSummary {
                episodes: 42,
                runahead_loads: 9_001,
                nested_episodes: 3,
                lanes_lost: 17,
                detail: "42 episodes".into(),
            },
            outcome: RunOutcome::Complete,
            sanitizer: None,
            work: Default::default(),
        }
    }

    #[test]
    fn report_codec_roundtrips_every_field() {
        let r = fat_report();
        let payload = encode_report(&r).unwrap();
        let back = decode_report(&payload).unwrap();
        assert_eq!(back.technique, r.technique);
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.core, r.core);
        assert_eq!(back.mem, r.mem);
        assert_eq!(back.ipc.to_bits(), r.ipc.to_bits());
        assert_eq!(back.mlp.to_bits(), r.mlp.to_bits());
        assert_eq!(back.simulated_instructions, r.simulated_instructions);
        assert_eq!(back.sampling, r.sampling);
        assert_eq!(back.engine.detail, r.engine.detail);
        assert_eq!(back.engine.lanes_lost, r.engine.lanes_lost);
        assert_eq!(back.host_seconds, 0.0, "wall clock never round-trips");
        assert!(back.outcome.is_complete());
        // The JSON rendering of a decoded report equals the rendering
        // of the original with its clock zeroed.
        let mut zeroed = r.clone();
        zeroed.host_seconds = 0.0;
        assert_eq!(back.to_json(), zeroed.to_json());
    }

    #[test]
    fn codec_rejects_failed_truncated_and_versioned_garbage() {
        let mut failed = fat_report();
        failed.outcome =
            RunOutcome::Failed(sim_ooo::SimError::CycleBudgetExceeded { cycle: 1, budget: 1 });
        assert!(encode_report(&failed).is_err());

        let payload = encode_report(&fat_report()).unwrap();
        assert!(decode_report(&payload[..payload.len() - 1]).unwrap_err().contains("truncated"));
        assert!(decode_report(&payload[1..]).is_err(), "bad magic");
        let mut extra = payload.clone();
        extra.push(0);
        assert!(decode_report(&extra).unwrap_err().contains("trailing"));
        // The placement byte is 0 or 1; any other value is rejected, not
        // read as systematic.
        let mut systematic = fat_report();
        systematic.sampling.as_mut().unwrap().placement = "systematic";
        let other = encode_report(&systematic).unwrap();
        let at = payload.iter().zip(&other).position(|(a, b)| a != b).unwrap();
        let mut placement = payload.clone();
        placement[at] = 2;
        assert!(decode_report(&placement).unwrap_err().contains("`placement`"));
        let mut vers = payload;
        vers[4] = 99;
        assert!(decode_report(&vers).unwrap_err().contains("version"));
    }

    #[test]
    fn cache_key_separates_config_program_and_version() {
        let wl = Benchmark::Hj2.build(None, SizeClass::Test, 42);
        let dvr = SimConfig::new(Technique::Dvr).with_max_instructions(10_000);
        let base = SimConfig::new(Technique::Baseline).with_max_instructions(10_000);
        let k1 = cache_key(&wl, &dvr, None);
        assert_eq!(k1, cache_key(&wl, &dvr, None), "deterministic");
        assert_ne!(k1, cache_key(&wl, &base, None), "config separates");
        assert_ne!(
            k1,
            cache_key(&wl, &dvr, Some(&SampleConfig::default())),
            "sampling plan separates"
        );
        let other = Benchmark::Hj2.build(None, SizeClass::Test, 43);
        assert_ne!(k1, cache_key(&other, &dvr, None), "data seed separates");
    }

    #[test]
    fn runner_computes_and_summarizes_a_real_cell() {
        let runner = DvrSweepRunner::new(None);
        let cell = SweepCell {
            bench: Benchmark::Hj2,
            input: None,
            technique: Technique::Baseline,
            size: SizeClass::Test,
            seed: 42,
            instrs: 5_000,
        };
        let payload = runner.run(&cell.key()).unwrap();
        let json = runner.summarize(&cell.key(), &payload).unwrap();
        assert!(json.contains("\"workload\":\"HJ2\""), "{json}");
        assert!(json.contains("\"outcome\":\"complete\""), "{json}");
        assert!(json.contains("\"host_seconds\":0.000000"), "{json}");
        assert!(runner.cache_key(&cell.key()).is_some());
        assert!(runner.worker_args(&cell.key()).is_none(), "no exe configured");
        // Same cell twice -> byte-identical payload (cacheable).
        assert_eq!(runner.run(&cell.key()).unwrap(), payload);
    }
}
