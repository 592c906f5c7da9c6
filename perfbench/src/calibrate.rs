//! Host-speed calibration.
//!
//! The benchmark's host is a small virtual machine shared with other
//! tenants, whose speed can change between runs and within one: both how
//! fast it runs a thread and how fast its memory system answers.  Two
//! fixed kernels owned by the benchmark measure them — they call no
//! repository code, so no change to the program can move them: a compute
//! chain that touches no memory, and a [`MemoryKernel`] that walks 24 MB
//! scattered through the heap.
//!
//! * Each timed phase runs in segments of about [`SEGMENT_S`] seconds
//!   with a few calibration passes — both kernels, on [`LOAD_THREADS`]
//!   pinned threads at once — between segments, and a segment's times are
//!   scaled by [`REFERENCE_MS`] over the median of the passes on either
//!   side.  Searches are mostly compute but slow down with the memory
//!   system too: over five seeded runs per workload, scaling by the
//!   two-part pass left smaller spreads than either kernel alone.
//! * Writes are memory-bound: a remove rebuilds the shard's bound columns,
//!   streaming every profile into freshly grown buffers, and walks the
//!   shard's index.  Their speed swings by up to 2x within a second with
//!   the neighbours' use of the memory system, and from run to run by as
//!   much.  So a kernel pass is timed before every write and each block of
//!   writes is scaled by the kernel's reference over the median of its
//!   block's passes: a [`MemoryKernel`] pass before the batch's in-process
//!   writes to one 10 000-workflow shard, which stream far more than they
//!   walk, and a [`ChaseKernel`] pass before the interactive workload's
//!   wire writes to 5 000-workflow shards, which tracked it better than
//!   the streaming kernel over six seeded runs.
//!
//! The run is reported at the reference host speed.  The raw figures and
//! every segment pass go into the record line.

use std::hint::black_box;
use std::time::Instant;

use crate::affinity::pin_current;
use crate::{median, ms, LOAD_THREADS};

/// One [`MemoryKernel`] pass at the reference host speed, in milliseconds
/// (a 2-vCPU Xeon virtual machine).
pub const MEMORY_REFERENCE_MS: f64 = 6.0;
/// One [`ChaseKernel`] pass at the reference host speed, in milliseconds
/// (the same machine).
pub const CHASE_REFERENCE_MS: f64 = 8.0;
/// One calibration pass at the reference host speed, in milliseconds: the
/// compute chain's 22.5 on the same machine plus a memory walk.
pub const REFERENCE_MS: f64 = 22.5 + MEMORY_REFERENCE_MS;
/// Seconds of load between two calibration passes.
pub const SEGMENT_S: f64 = 2.0;
/// Passes per calibration point.
const POINT_PASSES: usize = 3;
/// Dependent steps per pass.
const STEPS: u64 = 1 << 24;

/// One thread's pass: a dependent chain of integer multiply, shift and
/// rotate steps.  It touches no memory, so neither the program's cache
/// footprint nor other tenants' use of the shared cache moves it; it
/// measures how fast the host runs this thread.
fn pass(seed: u64) -> u64 {
    let (mut x, mut acc) = (seed, 0u64);
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        acc = (acc ^ (x >> 17)).rotate_left(5);
    }
    acc
}

/// The calibration passes of one run.
pub struct Calibration {
    /// Milliseconds of the compute part of each pass, in order: the mean
    /// over the threads.
    pub compute_ms: Vec<f64>,
    /// Milliseconds of the memory part of each pass, likewise.
    pub memory_ms: Vec<f64>,
    /// One memory kernel per thread.
    kernels: Vec<MemoryKernel>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            compute_ms: Vec::new(),
            memory_ms: Vec::new(),
            kernels: (0..LOAD_THREADS).map(|_| MemoryKernel::new()).collect(),
        }
    }
}

impl Calibration {
    /// Times one pass on every thread at once: the compute chain, then the
    /// memory walk.  Returns the pass's milliseconds, both parts together.
    pub fn sample(&mut self) -> f64 {
        let n = self.compute_ms.len() as u64;
        let times: Vec<(f64, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .kernels
                .iter()
                .enumerate()
                .map(|(t, kernel)| {
                    scope.spawn(move || {
                        pin_current(t);
                        let start = Instant::now();
                        black_box(pass(black_box(n * 31 + t as u64)));
                        (ms(start.elapsed()), kernel.pass())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .collect()
        });
        let threads = times.len() as f64;
        let compute = times.iter().map(|t| t.0).sum::<f64>() / threads;
        let memory = times.iter().map(|t| t.1).sum::<f64>() / threads;
        self.compute_ms.push(compute);
        self.memory_ms.push(memory);
        compute + memory
    }

    fn point(&mut self) -> Vec<f64> {
        (0..POINT_PASSES).map(|_| self.sample()).collect()
    }

    /// The scale at this point, from the median of a few passes.
    pub fn point_scale(&mut self) -> f64 {
        REFERENCE_MS / median(&self.point())
    }

    /// Runs `window` seconds of a phase as segments of about [`SEGMENT_S`]
    /// seconds, with a few passes before the first segment and after each.
    /// `segment(i, seconds, scale)` runs segment `i` for `seconds`, given
    /// the scale of the passes before it; each result comes back with its
    /// segment's scale, from the median of the passes on either side.
    pub fn segmented<T>(
        &mut self,
        window: f64,
        mut segment: impl FnMut(usize, f64, f64) -> T,
    ) -> Vec<(T, f64)> {
        let count = (window / SEGMENT_S).round().max(1.0) as usize;
        let mut before = self.point();
        (0..count)
            .map(|i| {
                let out = segment(i, window / count as f64, REFERENCE_MS / median(&before));
                let after = self.point();
                let around: Vec<f64> = before.iter().chain(&after).copied().collect();
                before = after;
                (out, REFERENCE_MS / median(&around))
            })
            .collect()
    }

    /// The run's calibration: the median pass, both parts together.
    pub fn ms(&self) -> f64 {
        let passes: Vec<f64> = self
            .compute_ms
            .iter()
            .zip(&self.memory_ms)
            .map(|(c, m)| c + m)
            .collect();
        median(&passes)
    }
}

/// Chunks of the memory kernel.
const MEMORY_CHUNKS: usize = 10_000;
/// Mean words per chunk: 24 MB in all, beyond what the host's cache keeps
/// for one tenant.
const MEMORY_CHUNK_WORDS: usize = 24 * 1024 * 1024 / 8 / MEMORY_CHUNKS;

/// A fixed memory-bound kernel: chunks scattered through the heap, visited
/// in a shuffled order and copied into a freshly grown buffer, as a
/// column rebuild walks profiles.  Its shape is fixed, not seeded, so every
/// run times the same work.
pub struct MemoryKernel {
    chunks: Vec<Box<[u64]>>,
}

impl MemoryKernel {
    pub fn new() -> MemoryKernel {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            x >> 33
        };
        let mut chunks = Vec::with_capacity(MEMORY_CHUNKS);
        // Spacers between the chunks, freed afterwards, keep neighbouring
        // chunks apart.
        let mut spacers = Vec::with_capacity(MEMORY_CHUNKS);
        for _ in 0..MEMORY_CHUNKS {
            let words = MEMORY_CHUNK_WORDS / 2 + next() as usize % MEMORY_CHUNK_WORDS;
            chunks.push(vec![next(); words].into_boxed_slice());
            spacers.push(vec![0u8; 64 + next() as usize % 512]);
        }
        drop(spacers);
        for i in (1..chunks.len()).rev() {
            chunks.swap(i, next() as usize % (i + 1));
        }
        MemoryKernel { chunks }
    }

    /// Times one pass, in milliseconds.
    pub fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut out: Vec<u64> = Vec::new();
        for chunk in &self.chunks {
            out.extend(chunk.iter().step_by(4).map(|v| v ^ 1));
        }
        black_box(&out);
        drop(out);
        ms(start.elapsed())
    }
}

impl Default for MemoryKernel {
    fn default() -> Self {
        MemoryKernel::new()
    }
}

/// Slots of the chase kernel's cycle: 16 MB of `u32`.
const CHASE_SLOTS: usize = 1 << 22;
/// Dependent loads per chase pass.
const CHASE_STEPS: usize = 50_000;

/// A fixed latency-bound kernel: dependent loads around one random cycle
/// through 16 MB, as a walk over B-tree nodes and posting lists waits on
/// each load.  Each pass goes on from where the last one stopped.
pub struct ChaseKernel {
    next: Vec<u32>,
    at: u32,
}

impl ChaseKernel {
    pub fn new() -> ChaseKernel {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..order.len()).rev() {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            order.swap(i, (x >> 33) as usize % (i + 1));
        }
        let mut next = vec![0u32; CHASE_SLOTS];
        for (i, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(i + 1) % order.len()];
        }
        ChaseKernel { next, at: 0 }
    }

    /// Times one pass, in milliseconds.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        ms(start.elapsed())
    }
}

impl Default for ChaseKernel {
    fn default() -> Self {
        ChaseKernel::new()
    }
}
