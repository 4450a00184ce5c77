//! The benchmark's workloads and the seeded generator of their inputs.
//!
//! The seed chooses only the inputs: the wave phase (initial physical
//! time), a small offset of the blade's rotation centre and, where the
//! workload has them, the particle band's placement (the moving hotspot
//! rides the blade tip, so the phase and the centre place it). The program
//! under test receives the generated mesh, fields, weights and cycle
//! schedule and nothing else. The ranges are kept narrow on purpose: every
//! seed must exercise the same regime (the same kernels, the same mesh-size
//! band, the same balancing route), so that seeds spread the inputs without
//! spreading the cost by more than the benchmark's bounds.

use plum_core::{CycleReport, Plum, PlumConfig};
use plum_mesh::generate::{box_dims_for_elements, box_mesh};
use plum_mesh::TetMesh;
use plum_solver::{initialize_solution, CostField, WaveField};

/// One benchmark workload: a fixed machine size, initial mesh size and
/// cycle schedule. Why each exists is recorded next to its definition in
/// [`WORKLOADS`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Virtual processors `P`.
    pub nproc: usize,
    /// Target initial element count (`box_dims_for_elements`).
    pub elements: usize,
    /// 40× moving hotspot plus a 200×/1× particle band as `wcomp2`.
    pub hotspot_dual: bool,
    /// Cycles in one round: refinement and coarsening alternate, starting
    /// with refinement.
    pub cycles: usize,
    /// Physical time advanced per cycle.
    pub dt: f64,
}

pub const REFINE_FRAC: f64 = 0.2;
pub const COARSEN_FRAC: f64 = 0.6;

pub const WORKLOADS: [Workload; 3] = [
    // The paper's set-up: the ~61k-element initial mesh at P = 64. Host time
    // goes mostly to the mesh-sized kernels (solver, refine and coarsen,
    // remap packing) on meshes of ~75k-212k elements, while the simulator
    // runs only 64 ranks; every cycle takes the multilevel route and is
    // accepted.
    Workload {
        name: "paper64",
        nproc: 64,
        elements: 60_968,
        hotspot_dual: false,
        cycles: 4,
        dt: 0.1,
    },
    // Weak-scaling corner: P = 256 with ~64 initial elements per rank. The
    // mesh kernels are tiny and nearly all host and virtual time goes to the
    // partition layer's collectives (inflow-quota allgathers, the
    // nparts-word cross-check, the P x P similarity gather); most
    // repartitions are rejected by the gain/cost test.
    Workload {
        name: "scale256",
        nproc: 256,
        elements: 64 * 256,
        hotspot_dual: false,
        cycles: 4,
        dt: 0.1,
    },
    // The only workload on the f64 measured-cost path (EWMA estimator under
    // a 40x moving hotspot) and the dual-constraint (`*_dual`) kernels (a
    // 200x/1x particle band as the second weight). The partition layer runs
    // but is light, so an optimisation of it should leave this workload
    // unchanged.
    Workload {
        name: "hotspot_dual64",
        nproc: 64,
        elements: 6_000,
        hotspot_dual: true,
        cycles: 16,
        dt: 0.1,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One step of the cycle schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// `adaption_cycle(frac, dt)`.
    Refine { frac: f64, dt: f64 },
    /// `coarsen_cycle(frac, dt)`.
    Coarsen { frac: f64, dt: f64 },
}

impl Step {
    pub fn is_refine(self) -> bool {
        matches!(self, Step::Refine { .. })
    }

    /// Run this step's cycle through the public `Plum` API.
    pub fn run(self, plum: &mut Plum) -> CycleReport {
        match self {
            Step::Refine { frac, dt } => plum.adaption_cycle(frac, dt),
            Step::Coarsen { frac, dt } => plum.coarsen_cycle(frac, dt),
        }
    }
}

/// Everything the seed decides, generated once per run.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub dims: (usize, usize, usize),
    pub wave: WaveField,
    /// Initial physical time (the wave phase).
    pub t0: f64,
    pub cost_field: CostField,
    /// Particle band: elements whose centroid has `x < band_x` carry 200
    /// particles, all others 1.
    pub band_x: Option<f64>,
    pub schedule: Vec<Step>,
}

/// SplitMix64: a tiny, well-mixed generator; the inputs need
/// reproducibility, not statistical strength.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = SplitMix(seed ^ 0x504C_554D_4245_4E43);
        let t0 = rng.uniform(0.0, 0.1);
        let mut wave = WaveField::unit_box();
        wave.center[0] += rng.uniform(-0.01, 0.01);
        wave.center[1] += rng.uniform(-0.01, 0.01);
        let (cost_field, band_x) = if workload.hotspot_dual {
            let band = rng.uniform(0.28, 0.32);
            (
                CostField::MovingHotspot {
                    radius: 0.35,
                    amplitude: 40.0,
                },
                Some(band),
            )
        } else {
            (CostField::Uniform, None)
        };
        let schedule = (0..workload.cycles)
            .map(|i| {
                if i % 2 == 0 {
                    Step::Refine {
                        frac: REFINE_FRAC,
                        dt: workload.dt,
                    }
                } else {
                    Step::Coarsen {
                        frac: COARSEN_FRAC,
                        dt: workload.dt,
                    }
                }
            })
            .collect();
        Inputs {
            workload,
            seed,
            dims: box_dims_for_elements(workload.elements),
            wave,
            t0,
            cost_field,
            band_x,
            schedule,
        }
    }

    /// The initial mesh (`box_mesh` over the unit cube).
    pub fn mesh(&self) -> TetMesh {
        let (nx, ny, nz) = self.dims;
        box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3])
    }

    pub fn config(&self) -> PlumConfig {
        PlumConfig::new(self.workload.nproc)
    }

    /// Second per-root weight vector (particle counts) of `plum`'s roots.
    pub fn particles(&self, plum: &Plum) -> Option<Vec<u64>> {
        self.band_x.map(|band| {
            plum.root_centroid
                .iter()
                .map(|c| if c[0] < band { 200 } else { 1 })
                .collect()
        })
    }

    /// Hand the generated state to a freshly built `Plum`: the wave phase
    /// (with the solution initialised at it), the cost field and the
    /// particle weights.
    pub fn install(&self, plum: &mut Plum) {
        plum.time = self.t0;
        initialize_solution(&plum.am.mesh, &mut plum.field, &self.wave, self.t0);
        plum.cost_field = self.cost_field;
        plum.wcomp2 = self.particles(plum);
    }

    /// Mesh generation plus `Plum::new`, with the seeded state installed.
    pub fn build(&self) -> Plum {
        let mut plum = Plum::new(self.mesh(), self.wave, self.config());
        self.install(&mut plum);
        plum
    }
}
