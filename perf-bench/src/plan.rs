//! The four benchmark workloads: which simulator cells each one runs and
//! how its inputs are built from the seed.

use dvr_sim::{MixCore, MixSpec, SimConfig, Technique};
use workloads::{Benchmark, GraphInput, SizeClass, Workload};

/// One simulated cell: a benchmark input under one technique for a region
/// of interest (ROI) of committed instructions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// The benchmark.
    pub bench: Benchmark,
    /// Graph input (GAP benchmarks only).
    pub input: Option<GraphInput>,
    /// The technique simulated.
    pub technique: Technique,
    /// Committed instructions to simulate.
    pub roi: u64,
}

impl Cell {
    const fn new(bench: Benchmark, input: Option<GraphInput>, t: Technique, roi: u64) -> Cell {
        Cell { bench, input, technique: t, roi }
    }

    /// `bench[/input]:TECH`, e.g. `bfs/UR:DVR`.
    pub fn label(&self) -> String {
        let input = self.input.map(|g| format!("/{}", g.name())).unwrap_or_default();
        format!("{}{input}:{}", self.bench.name(), self.technique.name())
    }

    /// The simulator configuration for this cell.
    pub fn config(&self) -> SimConfig {
        SimConfig::new(self.technique).with_max_instructions(self.roi)
    }

    /// Builds this cell's input.
    pub fn build(&self, size: SizeClass, seed: u64) -> Workload {
        self.bench.build(self.input, size, seed)
    }
}

/// How a workload drives its cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// One exact `simulate()` per cell.
    Exact,
    /// One `simulate_sampled()` per cell (default `SampleConfig`, one
    /// thread), checked against an untimed exact reference.
    Sampled,
    /// All cells run together as one `simulate_mix()`, one core each.
    Mix,
}

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Memory-bound baseline runs: mostly full-window stall cycles.
    OooStall,
    /// High-IPC DVR runs on graph inputs: engine hooks busy.
    DvrGap,
    /// Sampled DVR runs: functional fast-forward plus checkpoints.
    Sampled,
    /// A four-core shared-L3 mix.
    Mix4,
}

use Benchmark as B;
use Technique as T;

const OOO_STALL: [Cell; 5] = [
    Cell::new(B::Hj8, None, T::Baseline, 500_000),
    Cell::new(B::Kangaroo, None, T::Baseline, 1_000_000),
    Cell::new(B::Hj2, None, T::Baseline, 500_000),
    Cell::new(B::RandomAccess, None, T::Baseline, 500_000),
    Cell::new(B::Camel, None, T::Baseline, 500_000),
];

const DVR_GAP: [Cell; 5] = [
    Cell::new(B::Bfs, Some(GraphInput::Ur), T::Dvr, 1_500_000),
    Cell::new(B::Pr, Some(GraphInput::Kr), T::Dvr, 2_000_000),
    Cell::new(B::Sssp, Some(GraphInput::Kr), T::Dvr, 1_500_000),
    Cell::new(B::Cc, Some(GraphInput::Kr), T::Dvr, 1_500_000),
    Cell::new(B::NasIs, None, T::Dvr, 1_500_000),
];

const SAMPLED: [Cell; 3] = [
    Cell::new(B::Bfs, Some(GraphInput::Kr), T::Dvr, 2_000_000),
    Cell::new(B::Camel, None, T::Dvr, 1_000_000),
    Cell::new(B::NasIs, None, T::Dvr, 1_000_000),
];

const MIX4: [Cell; 4] = [
    Cell::new(B::Hj8, None, T::Baseline, 500_000),
    Cell::new(B::Camel, None, T::Dvr, 500_000),
    Cell::new(B::NasIs, None, T::Vr, 500_000),
    Cell::new(B::Kangaroo, None, T::Dvr, 500_000),
];

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::OooStall, Kind::DvrGap, Kind::Sampled, Kind::Mix4];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OooStall => "ooo_stall",
            Kind::DvrGap => "dvr_gap",
            Kind::Sampled => "sampled",
            Kind::Mix4 => "mix4",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// How the workload drives its cells.
    pub fn mode(self) -> Mode {
        match self {
            Kind::OooStall | Kind::DvrGap => Mode::Exact,
            Kind::Sampled => Mode::Sampled,
            Kind::Mix4 => Mode::Mix,
        }
    }

    /// The workload's cells; `roi` replaces every cell's ROI (tests use
    /// tiny ones).
    pub fn cells(self, roi: Option<u64>) -> Vec<Cell> {
        let cells: &[Cell] = match self {
            Kind::OooStall => &OOO_STALL,
            Kind::DvrGap => &DVR_GAP,
            Kind::Sampled => &SAMPLED,
            Kind::Mix4 => &MIX4,
        };
        cells.iter().map(|c| Cell { roi: roi.unwrap_or(c.roi), ..*c }).collect()
    }
}

/// The mix spec of a [`Mode::Mix`] workload's cells, one core per cell.
pub(crate) fn mix_spec(cells: &[Cell]) -> MixSpec {
    let cores = cells
        .iter()
        .map(|c| MixCore { bench: c.bench, input: c.input, technique: c.technique })
        .collect();
    MixSpec { cores }
}

/// The base configuration of a mix: every core shares the first cell's ROI.
pub(crate) fn mix_base(cells: &[Cell]) -> SimConfig {
    SimConfig::new(Technique::Baseline).with_max_instructions(cells[0].roi)
}

/// Where a benchmark run takes its inputs from: the size class and the
/// optional ROI override. The command line always runs `SizeClass::Paper`
/// with each cell's own ROI.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale {
    /// Input size class.
    pub size: SizeClass,
    /// ROI replacing every cell's own (`None` = the cell's ROI).
    pub roi: Option<u64>,
}

impl Scale {
    /// The command-line scale.
    pub const PAPER: Scale = Scale { size: SizeClass::Paper, roi: None };
}
