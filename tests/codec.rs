//! Every decoder of untrusted input, against real images.
//!
//! - The bytes each binary encoder writes are pinned by digest in
//!   `tests/golden/codec_digests.txt`.
//! - Binary decoders keep the canonical rule: a mutated image is either
//!   rejected with a typed error or re-encodes to exactly the input bytes.
//! - Text decoders return a value or an error for any input; none panics.

use std::sync::OnceLock;

use dvr_sim::sim_sweep::{
    digest_bytes, from_hex, manifest_digest, CellOutcome, Digest128, Journal, SweepFault,
};
use dvr_sim::{
    decode_report, encode_report, measure_emitted, sample_emit, simulate, simulate_sampled,
    MixSpec, PeriodCheckpoint, PeriodResult, SampleConfig, SimConfig, SweepCell, Technique,
};
use proptest::prelude::*;
use sim_isa::{parse_program, CpuCheckpoint, MemoryCheckpoint};
use sim_mem::WarmCaches;
use sim_ooo::{TageConfig, TagePredictor};
use workloads::{Benchmark, GraphInput, SizeClass};

/// The DVR configuration every real image here comes from: NAS-IS at test
/// size, seed 42, a 60 k-instruction region (three sampling periods).
fn dvr_cfg() -> SimConfig {
    SimConfig::new(Technique::Dvr).with_max_instructions(60_000)
}

/// One real encoder output: its format, its golden name, its bytes.
struct Image {
    kind: &'static str,
    name: String,
    bytes: Vec<u8>,
}

/// Every pinned image: each period checkpoint, its four embedded images,
/// the encoded exact and sampled reports, and each period's measured
/// result. Built once per test binary.
fn images() -> &'static [Image] {
    static IMAGES: OnceLock<Vec<Image>> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let wl = Benchmark::NasIs.build(None, SizeClass::Test, 42);
        let emit = sample_emit(&wl, &dvr_cfg(), &SampleConfig::default()).expect("emit");
        assert_eq!(emit.checkpoints.len(), 3);
        let mut out = Vec::new();
        for (k, ck) in emit.checkpoints.iter().enumerate() {
            for (kind, bytes) in [
                ("period", ck.to_bytes()),
                ("cpu", ck.cpu.to_bytes()),
                ("mem", ck.mem.to_bytes()),
                ("warm_mem", ck.warm_mem.to_bytes()),
                ("warm_bp", ck.warm_bp.clone()),
            ] {
                let name = if kind == "period" {
                    format!("period{k}")
                } else {
                    format!("period{k}.{kind}")
                };
                out.push(Image { kind, name, bytes });
            }
        }
        let exact = simulate(&wl, &dvr_cfg());
        let sampled = simulate_sampled(&wl, &dvr_cfg(), &SampleConfig::default());
        for (name, report) in [("report.exact", exact), ("report.sampled", sampled)] {
            let bytes = encode_report(&report).expect("the run completes");
            out.push(Image { kind: "report", name: name.into(), bytes });
        }
        let results =
            measure_emitted(&wl, &dvr_cfg(), &SampleConfig::default(), &emit.checkpoints, 1)
                .expect("measure");
        for (k, p) in results.iter().enumerate() {
            out.push(Image {
                kind: "result",
                name: format!("period{k}.result"),
                bytes: p.to_bytes(),
            });
        }
        // Every fuzz case starts from these, so each must itself decode and
        // re-encode to exactly its bytes.
        for i in &out {
            assert_eq!(reencode(i.kind, &i.bytes).as_ref(), Some(&i.bytes), "{}", i.name);
        }
        out
    })
}

/// One `name length digest128` line per image, against the golden file
/// (`BLESS=1` rewrites it). A format change must bump its version and show
/// the re-bless in the diff.
#[test]
fn encoded_images_match_the_digest_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/codec_digests.txt");
    let got: String = images()
        .iter()
        .map(|i| format!("{} {} {}\n", i.name, i.bytes.len(), digest_bytes(&i.bytes).hex()))
        .collect();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (BLESS=1 to generate)"));
    assert_eq!(got, want, "encoded bytes drifted; BLESS=1 to re-bless after review");
}

/// Decodes `b` as a `kind` image and re-encodes it; `None` if rejected.
fn reencode(kind: &str, b: &[u8]) -> Option<Vec<u8>> {
    match kind {
        "period" => PeriodCheckpoint::decode(dvr_cfg().hierarchy, b).ok().map(|c| c.to_bytes()),
        "cpu" => CpuCheckpoint::from_bytes(b).ok().map(|c| c.to_bytes()),
        "mem" => MemoryCheckpoint::from_bytes(b).ok().map(|m| m.to_bytes()),
        "warm_mem" => WarmCaches::decode(dvr_cfg().hierarchy, b).ok().map(|w| w.to_bytes()),
        "warm_bp" => {
            TagePredictor::from_state_bytes(TageConfig::default(), b).ok().map(|p| p.state_bytes())
        }
        "report" => decode_report(b).ok().map(|r| encode_report(&r).expect("decoded complete")),
        "result" => PeriodResult::decode(b).ok().map(|p| p.to_bytes()),
        _ => unreachable!("unknown image kind {kind}"),
    }
}

/// One way to damage an image. Each is applied to real encoder output, so
/// most mutants stay close to a valid image.
#[derive(Clone, Debug)]
enum Mutation {
    /// Keep the first `n % (len + 1)` bytes.
    Truncate(u64),
    /// XOR each mask into the byte at `pos % len`.
    FlipBits(Vec<(u64, u8)>),
    /// Write a little-endian word at `pos % len`, clipped at the end.
    Overwrite8(u64, u64),
    /// Append bytes.
    Append(Vec<u8>),
    /// Random bytes instead of the image.
    Replace(Vec<u8>),
}

impl Mutation {
    fn apply(&self, image: &[u8]) -> Vec<u8> {
        let mut b = image.to_vec();
        let at = |pos: u64, len: usize| (pos % len.max(1) as u64) as usize;
        match self {
            Mutation::Truncate(n) => b.truncate(at(*n, b.len() + 1)),
            Mutation::FlipBits(flips) if !b.is_empty() => {
                for &(pos, mask) in flips {
                    let i = at(pos, b.len());
                    b[i] ^= mask;
                }
            }
            Mutation::FlipBits(_) => {}
            Mutation::Overwrite8(pos, v) if !b.is_empty() => {
                let i = at(*pos, b.len());
                let end = (i + 8).min(b.len());
                b[i..end].copy_from_slice(&v.to_le_bytes()[..end - i]);
            }
            Mutation::Overwrite8(..) => {}
            Mutation::Append(extra) => b.extend_from_slice(extra),
            Mutation::Replace(bytes) => b.clone_from(bytes),
        }
        b
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    // Small words hit length prefixes, counts, indices and flag bytes.
    let word = prop_oneof![any::<u64>(), 0u64..300];
    prop_oneof![
        any::<u64>().prop_map(Mutation::Truncate),
        prop::collection::vec((any::<u64>(), any::<u8>()), 1..4).prop_map(Mutation::FlipBits),
        (any::<u64>(), word).prop_map(|(pos, v)| Mutation::Overwrite8(pos, v)),
        prop::collection::vec(any::<u8>(), 1..16).prop_map(Mutation::Append),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Mutation::Replace),
    ]
}

/// The canonical rule on every real image of `kind` damaged by `m`: the
/// decoder rejects the mutant, or re-encodes it to exactly its bytes.
fn canonical(kind: &str, m: &Mutation) -> Result<(), TestCaseError> {
    for image in images().iter().filter(|i| i.kind == kind) {
        let input = m.apply(&image.bytes);
        if let Some(again) = reencode(kind, &input) {
            prop_assert!(
                again == input,
                "{}: {m:?} was accepted but re-encodes differently",
                image.name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn period_checkpoints_decode_canonically(m in mutation()) {
        canonical("period", &m)?;
    }

    #[test]
    fn cpu_images_decode_canonically(m in mutation()) {
        canonical("cpu", &m)?;
    }

    #[test]
    fn memory_images_decode_canonically(m in mutation()) {
        canonical("mem", &m)?;
    }

    #[test]
    fn warm_hierarchy_images_decode_canonically(m in mutation()) {
        canonical("warm_mem", &m)?;
    }

    #[test]
    fn warm_predictor_images_decode_canonically(m in mutation()) {
        canonical("warm_bp", &m)?;
    }

    #[test]
    fn report_payloads_decode_canonically(m in mutation()) {
        canonical("report", &m)?;
    }

    #[test]
    fn period_results_decode_canonically(m in mutation()) {
        canonical("result", &m)?;
    }
}

/// One edit to a text input, on `char` boundaries.
#[derive(Clone, Debug)]
enum Edit {
    /// Remove `len % 8` chars at `pos`.
    Cut(u64, u64),
    /// Insert text at `pos`.
    Insert(u64, String),
    /// Keep the first `n` chars.
    Truncate(u64),
    /// Random text instead of the input.
    Replace(String),
}

impl Edit {
    fn apply(&self, text: &str) -> String {
        let mut c: Vec<char> = text.chars().collect();
        let at = |pos: u64, len: usize| (pos % (len as u64 + 1)) as usize;
        match self {
            Edit::Cut(pos, len) => {
                let i = at(*pos, c.len());
                let end = (i + (len % 8) as usize).min(c.len());
                c.drain(i..end);
            }
            Edit::Insert(pos, s) => {
                let i = at(*pos, c.len());
                c.splice(i..i, s.chars());
            }
            Edit::Truncate(n) => c.truncate(at(*n, c.len())),
            Edit::Replace(s) => return s.clone(),
        }
        c.into_iter().collect()
    }
}

fn edit() -> impl Strategy<Value = Edit> {
    // Delimiters and digits of every text format here, plus characters
    // none of them expects.
    let alphabet: Vec<char> = "0123456789abcdefx=,:/-+.;[]{}\"<r \n\t\u{0}é💥".chars().collect();
    let text = prop::collection::vec(prop::sample::select(alphabet), 0..12)
        .prop_map(|cs| cs.into_iter().collect::<String>());
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(p, n)| Edit::Cut(p, n)),
        (any::<u64>(), text.clone()).prop_map(|(p, s)| Edit::Insert(p, s)),
        any::<u64>().prop_map(Edit::Truncate),
        text.prop_map(Edit::Replace),
    ]
}

/// Valid inputs of every text decoder, as the program writes them.
struct TextSeeds {
    cell: String,
    mix: &'static str,
    asm: String,
    fault: &'static str,
    hex: String,
}

fn text_seeds() -> &'static TextSeeds {
    static SEEDS: OnceLock<TextSeeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let cell = SweepCell {
            bench: Benchmark::Bfs,
            input: Some(GraphInput::Kr),
            technique: Technique::Dvr,
            size: SizeClass::Test,
            seed: 42,
            instrs: 60_000,
        };
        let s = TextSeeds {
            cell: cell.key(),
            mix: "bfs/UR:dvr,NAS-IS:ooo,Camel,HJ8:vr",
            asm: Benchmark::NasIs.build(None, SizeClass::Test, 42).prog.to_string(),
            fault: "kill=1,flip=2,trunc=3,trunc-bytes=5,abort=4,hang=1",
            hex: digest_bytes(b"codec").hex(),
        };
        // The edits start from valid input of every decoder.
        assert!(SweepCell::parse(&s.cell).is_ok());
        assert!(MixSpec::parse(s.mix, Technique::Dvr).is_ok());
        assert!(parse_program(&s.asm).is_ok());
        assert!(SweepFault::parse(s.fault).is_ok());
        assert!(from_hex(&s.hex).is_some() && Digest128::from_hex(&s.hex).is_some());
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cell keys, mix specs, assembly, fault specs and hex strings: a
    /// value or an error, never a panic.
    #[test]
    fn text_decoders_never_panic(e in edit()) {
        let s = text_seeds();
        let _ = SweepCell::parse(&e.apply(&s.cell));
        let _ = MixSpec::parse(&e.apply(s.mix), Technique::Dvr);
        let _ = parse_program(&e.apply(&s.asm));
        let _ = SweepFault::parse(&e.apply(s.fault));
        let hex = e.apply(&s.hex);
        let _ = (from_hex(&hex), Digest128::from_hex(&hex));
    }

    /// A damaged journal file replays its valid prefix or fails typed.
    #[test]
    fn mutated_journals_open_without_panicking(m in mutation()) {
        let dir = std::env::temp_dir().join(format!("dvr-codec-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create journal scratch");
        let path = dir.join("journal.log");
        let manifest = manifest_digest(&["a".to_string(), "b".to_string()]);
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, ..) = Journal::open(&path, manifest).expect("fresh journal");
            j.append("a", &CellOutcome::Done(b"payload".to_vec())).expect("append");
            let failed = CellOutcome::Failed { kind: "oom".into(), message: "x y".into(), attempts: 2 };
            j.append("b", &failed).expect("append");
        }
        let valid = std::fs::read(&path).expect("read journal");
        std::fs::write(&path, m.apply(&valid)).expect("write mutant");
        let _ = Journal::open(&path, manifest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
