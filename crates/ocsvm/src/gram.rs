//! Precomputed kernel (Gram) rows shared across solver runs and scoring.
//!
//! The paper's per-user model optimization (Tab. III) trains the *same*
//! window vectors dozens of times — one solver run per regularization value
//! per kernel — and evaluates every resulting model on the same probe
//! windows. The O(l·d) kernel-row evaluations dominate both steps, and the
//! rows are identical across the whole sweep. Two shared structures
//! eliminate the recomputation:
//!
//! * [`GramMatrix`]: the symmetric matrix `K[i][j] = k(xᵢ, xⱼ)` over one
//!   training set. Rows are materialized lazily, each **at most once per
//!   (training set, kernel)**, and reused by every solver run of the sweep
//!   via [`NuOcSvm::train_with_gram`](crate::NuOcSvm::train_with_gram) and
//!   [`Svdd::train_with_gram`](crate::Svdd::train_with_gram) — and by
//!   training-set scoring via
//!   [`OcSvmModel::training_decision_values`](crate::OcSvmModel::training_decision_values).
//! * [`CrossGram`]: the rectangular matrix `k(xᵢ, pⱼ)` between the training
//!   set and a fixed probe set, also row-lazy, consumed by
//!   [`OcSvmModel::cross_decision_values`](crate::OcSvmModel::cross_decision_values)
//!   (and the SVDD equivalents) so a sweep scores every model against the
//!   probes without re-evaluating the kernel per model.
//!
//! Rows are `Arc<[f64]>` behind `OnceLock`, so both structures are
//! `Send + Sync` and a whole sweep can share one instance across threads.

use crate::arena::{KernelRowArena, RowKey, RowSpace};
use crate::error::TrainError;
use crate::kernel::{Kernel, KernelKind};
use crate::sparse::SparseVector;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Process-wide count of [`GramMatrix::compute`] calls, i.e. of distinct
/// (training set, kernel) matrices built. Tests and benchmarks use deltas of
/// this counter to verify that a sweep builds each matrix exactly once.
static COMPUTATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of kernel rows materialized by [`GramMatrix`] and
/// [`CrossGram`] — the expensive O(l·d)-per-row step sharing avoids.
static ROWS_COMPUTED: AtomicU64 = AtomicU64::new(0);

/// A symmetric kernel matrix `K[i][j] = k(xᵢ, xⱼ)` over a fixed, ordered
/// training set, with lazily materialized rows.
///
/// Entries are produced by exactly the same kernel evaluations as the
/// solver's on-the-fly path (`Kernel::compute` for every pair including the
/// diagonal; `Kernel::compute_self` for the stored diagonal), so training
/// through a `GramMatrix` yields numerically identical models (same `α`,
/// `ρ`/`R²`, decision values) — see the equivalence tests in the crate.
/// Each row is computed at most once for the lifetime of the matrix, no
/// matter how many solver runs or scoring passes read it.
///
/// # Examples
///
/// ```
/// use ocsvm::{GramMatrix, Kernel, NuOcSvm, OneClassModel, SparseVector};
///
/// let data: Vec<SparseVector> =
///     (0..40).map(|i| SparseVector::from_dense(&[1.0, 0.02 * (i % 5) as f64])).collect();
/// let kernel = Kernel::Rbf { gamma: 1.0 };
/// let gram = GramMatrix::compute(kernel, &data);
/// // One kernel matrix, many solver runs:
/// for nu in [0.05, 0.1, 0.2, 0.5] {
///     let model = NuOcSvm::new(nu, kernel).train_with_gram(&data, &gram)?;
///     assert!(model.support_vector_count() > 0);
/// }
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
#[derive(Debug)]
pub struct GramMatrix<'a> {
    kernel: Kernel,
    points: &'a [SparseVector],
    rows: Vec<OnceLock<Arc<[f64]>>>,
    diag: Vec<f64>,
}

impl<'a> GramMatrix<'a> {
    /// Prepares the kernel matrix over `points`. Rows are computed on first
    /// access; the diagonal (`Kernel::compute_self`) is computed eagerly.
    pub fn compute(kernel: Kernel, points: &'a [SparseVector]) -> Self {
        COMPUTATIONS.fetch_add(1, Ordering::Relaxed);
        let diag: Vec<f64> = points.iter().map(|x| kernel.compute_self(x)).collect();
        let rows = (0..points.len()).map(|_| OnceLock::new()).collect();
        Self { kernel, points, rows, diag }
    }

    /// Number of training points (= rows = columns).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the matrix covers zero points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The kernel the matrix was computed with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Diagonal entry `k(xᵢ, xᵢ)` (via `Kernel::compute_self`).
    pub fn diag_value(&self, i: usize) -> f64 {
        self.diag[i]
    }

    /// Shared row `K[i][·]`, materialized on first access.
    pub(crate) fn row(&self, i: usize) -> &Arc<[f64]> {
        self.rows[i].get_or_init(|| {
            ROWS_COMPUTED.fetch_add(1, Ordering::Relaxed);
            let xi = &self.points[i];
            self.points.iter().map(|xj| self.kernel.compute(xi, xj)).collect::<Vec<f64>>().into()
        })
    }

    /// Process-wide number of [`GramMatrix::compute`] calls so far.
    ///
    /// Monotone; callers interested in a particular code path should take
    /// a delta around it.
    pub fn computations() -> u64 {
        COMPUTATIONS.load(Ordering::Relaxed)
    }

    /// Process-wide number of kernel rows materialized by [`GramMatrix`]
    /// and [`CrossGram`] instances so far (monotone, use deltas).
    pub fn rows_computed() -> u64 {
        ROWS_COMPUTED.load(Ordering::Relaxed)
    }
}

/// A rectangular kernel matrix `k(xᵢ, pⱼ)` between a training set and a
/// fixed probe set, with lazily materialized rows.
///
/// One `CrossGram` per (training set, kernel, probe set) lets every model of
/// a regularization sweep score the same probes while each support vector's
/// kernel row against the probes is evaluated at most once — across *all*
/// models of the sweep (their support vectors heavily overlap).
///
/// # Examples
///
/// ```
/// use ocsvm::{CrossGram, GramMatrix, Kernel, NuOcSvm, SparseVector};
///
/// let data: Vec<SparseVector> =
///     (0..40).map(|i| SparseVector::from_dense(&[1.0, 0.02 * (i % 5) as f64])).collect();
/// let probes: Vec<SparseVector> =
///     (0..10).map(|i| SparseVector::from_dense(&[0.9, 0.03 * i as f64])).collect();
/// let kernel = Kernel::Rbf { gamma: 1.0 };
/// let gram = GramMatrix::compute(kernel, &data);
/// let cross = CrossGram::new(kernel, &data, probes.iter().collect());
/// for nu in [0.1, 0.5] {
///     let model = NuOcSvm::new(nu, kernel).train_with_gram(&data, &gram)?;
///     let values = model.cross_decision_values(&cross).expect("compatible");
///     assert_eq!(values.len(), probes.len());
/// }
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
#[derive(Debug)]
pub struct CrossGram<'a> {
    kernel: Kernel,
    train: &'a [SparseVector],
    probes: Vec<&'a SparseVector>,
    rows: Vec<OnceLock<Arc<[f64]>>>,
    probe_diag: Vec<f64>,
    /// Probes repacked into unit-stride panels, built lazily on the first
    /// row fill and shared by every subsequent fill (see [`crate::panel`]).
    panel: OnceLock<crate::panel::ProbePanel>,
}

impl<'a> CrossGram<'a> {
    /// Prepares the cross matrix between `train` and `probes`. Rows (one per
    /// training point) are computed on first access; the probe diagonal
    /// `k(pⱼ, pⱼ)` (needed by SVDD decisions) is computed eagerly.
    pub fn new(kernel: Kernel, train: &'a [SparseVector], probes: Vec<&'a SparseVector>) -> Self {
        let probe_diag = probes.iter().map(|p| kernel.compute_self(p)).collect();
        let rows = (0..train.len()).map(|_| OnceLock::new()).collect();
        Self { kernel, train, probes, rows, probe_diag, panel: OnceLock::new() }
    }

    /// Number of probe points (= row width).
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// Number of training points (= rows).
    pub fn train_len(&self) -> usize {
        self.train.len()
    }

    /// The kernel the matrix is computed with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Shared row `k(xᵢ, p·)`, materialized on first access through the
    /// unit-stride panel kernels — bit-identical to evaluating
    /// `kernel.compute(xᵢ, pⱼ)` per probe (see [`crate::panel`]).
    pub(crate) fn row(&self, i: usize) -> &Arc<[f64]> {
        self.rows[i].get_or_init(|| {
            ROWS_COMPUTED.fetch_add(1, Ordering::Relaxed);
            let panel = self.panel.get_or_init(|| crate::panel::ProbePanel::pack(&self.probes));
            crate::panel::kernel_cross_row(self.kernel, &self.train[i], &self.probes, panel).into()
        })
    }

    /// Probe diagonal entry `k(pⱼ, pⱼ)` (via `Kernel::compute_self`).
    pub(crate) fn probe_diag(&self, j: usize) -> f64 {
        self.probe_diag[j]
    }
}

/// Read-only access to the rows of a symmetric training-set kernel matrix.
///
/// Implemented by [`GramMatrix`] (per-sweep ownership, rows live as long as
/// the matrix) and [`ArenaGram`] (rows live in a shared, byte-budgeted
/// [`KernelRowArena`]). Training and scoring paths that are generic over
/// this trait — [`NuOcSvm::train_with_rows`](crate::NuOcSvm::train_with_rows),
/// [`OcSvmModel::training_decision_values`](crate::OcSvmModel::training_decision_values)
/// and the SVDD equivalents — behave bit-identically over either source,
/// because both hand out rows produced by the same kernel evaluations in
/// the same order.
pub trait KernelRows {
    /// Number of training points (= rows = columns).
    fn len(&self) -> usize;
    /// Whether the matrix covers zero points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The kernel the rows are computed with.
    fn kernel(&self) -> Kernel;
    /// Diagonal entry `k(xᵢ, xᵢ)`.
    fn diag_value(&self, i: usize) -> f64;
    /// Row `K[i][·]` as a shared allocation.
    fn row_arc(&self, i: usize) -> Arc<[f64]>;
}

impl KernelRows for GramMatrix<'_> {
    fn len(&self) -> usize {
        GramMatrix::len(self)
    }

    fn kernel(&self) -> Kernel {
        GramMatrix::kernel(self)
    }

    fn diag_value(&self, i: usize) -> f64 {
        GramMatrix::diag_value(self, i)
    }

    fn row_arc(&self, i: usize) -> Arc<[f64]> {
        Arc::clone(self.row(i))
    }
}

/// Read-only access to the rows of a rectangular training × probe kernel
/// matrix; the rectangular counterpart of [`KernelRows`], implemented by
/// [`CrossGram`] and [`ArenaCrossGram`].
pub trait CrossRows {
    /// Number of training points (= rows).
    fn train_len(&self) -> usize;
    /// Number of probe points (= row width).
    fn probe_count(&self) -> usize;
    /// The kernel the rows are computed with.
    fn kernel(&self) -> Kernel;
    /// Row `k(xᵢ, p·)` as a shared allocation.
    fn row_arc(&self, i: usize) -> Arc<[f64]>;
    /// Probe diagonal entry `k(pⱼ, pⱼ)`.
    fn probe_diag(&self, j: usize) -> f64;
}

impl CrossRows for CrossGram<'_> {
    fn train_len(&self) -> usize {
        CrossGram::train_len(self)
    }

    fn probe_count(&self) -> usize {
        CrossGram::probe_count(self)
    }

    fn kernel(&self) -> Kernel {
        CrossGram::kernel(self)
    }

    fn row_arc(&self, i: usize) -> Arc<[f64]> {
        Arc::clone(self.row(i))
    }

    fn probe_diag(&self, j: usize) -> f64 {
        CrossGram::probe_diag(self, j)
    }
}

/// Stable in-process slot for a kernel family, used in [`RowKey::kernel`].
fn kind_slot(kind: KernelKind) -> u8 {
    match kind {
        KernelKind::Linear => 0,
        KernelKind::Polynomial => 1,
        KernelKind::Rbf => 2,
        KernelKind::Sigmoid => 3,
    }
}

fn hash_kernel<H: Hasher>(kernel: Kernel, state: &mut H) {
    match kernel {
        Kernel::Linear => 0u8.hash(state),
        Kernel::Polynomial { gamma, coef0, degree } => {
            1u8.hash(state);
            gamma.to_bits().hash(state);
            coef0.to_bits().hash(state);
            degree.hash(state);
        }
        Kernel::Rbf { gamma } => {
            2u8.hash(state);
            gamma.to_bits().hash(state);
        }
        Kernel::Sigmoid { gamma, coef0 } => {
            3u8.hash(state);
            gamma.to_bits().hash(state);
            coef0.to_bits().hash(state);
        }
    }
}

fn hash_vector<H: Hasher>(vector: &SparseVector, state: &mut H) {
    for (column, value) in vector.iter() {
        column.hash(state);
        value.to_bits().hash(state);
    }
    u64::MAX.hash(state); // vector separator
}

/// Content fingerprint of (kernel parameters, training set, probe set) —
/// the [`RowKey::tag`] used by [`ArenaGram`]/[`ArenaCrossGram`]. Any change
/// to a kernel parameter, a vector's coordinates, the point order or the
/// probe set changes the tag, so arena entries can never be served for the
/// wrong inputs even when two sweeps reuse the same `owner`.
pub fn content_fingerprint(
    kernel: Kernel,
    train: &[SparseVector],
    probes: Option<&[&SparseVector]>,
) -> u64 {
    let mut state = std::collections::hash_map::DefaultHasher::new();
    hash_kernel(kernel, &mut state);
    train.len().hash(&mut state);
    for x in train {
        hash_vector(x, &mut state);
    }
    if let Some(probes) = probes {
        probes.len().hash(&mut state);
        for p in probes {
            hash_vector(p, &mut state);
        }
    }
    state.finish()
}

/// A [`KernelRows`] source whose rows live in a shared, byte-budgeted
/// [`KernelRowArena`] instead of being owned by the matrix.
///
/// Functionally a [`GramMatrix`] — same kernel evaluations, same row
/// layout, bit-identical training results — but the arena bounds the
/// *total* bytes retained across every concurrent sweep, evicting
/// least-recently-used rows process-wide. An evicted row is transparently
/// recomputed on next access; the `tag` fingerprint of the construction
/// inputs guarantees a recomputed or raced row always matches.
///
/// # Examples
///
/// ```
/// use ocsvm::{ArenaGram, Kernel, KernelRowArena, NuOcSvm, OneClassModel, SparseVector};
///
/// let data: Vec<SparseVector> =
///     (0..40).map(|i| SparseVector::from_dense(&[1.0, 0.02 * (i % 5) as f64])).collect();
/// let arena = KernelRowArena::with_budget(8 << 20);
/// let gram = ArenaGram::new(Kernel::Rbf { gamma: 1.0 }, &data, &arena, 7);
/// for nu in [0.05, 0.1, 0.2] {
///     let model = NuOcSvm::new(nu, Kernel::Rbf { gamma: 1.0 }).train_with_rows(&data, &gram)?;
///     assert!(model.support_vector_count() > 0);
/// }
/// assert!(arena.stats().hits > 0);
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
#[derive(Debug)]
pub struct ArenaGram<'a> {
    kernel: Kernel,
    points: &'a [SparseVector],
    diag: Vec<f64>,
    arena: Arc<KernelRowArena>,
    owner: u64,
    tag: u64,
}

impl<'a> ArenaGram<'a> {
    /// Prepares arena-backed rows over `points` under the `owner`
    /// namespace. The diagonal is computed eagerly (it is O(l) and every
    /// consumer needs it); rows are fetched from — or computed into — the
    /// arena on access.
    pub fn new(
        kernel: Kernel,
        points: &'a [SparseVector],
        arena: &Arc<KernelRowArena>,
        owner: u64,
    ) -> Self {
        let diag = points.iter().map(|x| kernel.compute_self(x)).collect();
        let tag = content_fingerprint(kernel, points, None);
        Self { kernel, points, diag, arena: Arc::clone(arena), owner, tag }
    }

    /// The arena backing this matrix.
    pub fn arena(&self) -> &Arc<KernelRowArena> {
        &self.arena
    }
}

impl KernelRows for ArenaGram<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn diag_value(&self, i: usize) -> f64 {
        self.diag[i]
    }

    fn row_arc(&self, i: usize) -> Arc<[f64]> {
        let key = RowKey {
            owner: self.owner,
            kernel: kind_slot(self.kernel.kind()),
            space: RowSpace::Gram,
            row: i as u32,
            tag: self.tag,
        };
        self.arena.get_or_compute(key, || {
            ROWS_COMPUTED.fetch_add(1, Ordering::Relaxed);
            let xi = &self.points[i];
            self.points.iter().map(|xj| self.kernel.compute(xi, xj)).collect()
        })
    }
}

/// The [`CrossRows`] counterpart of [`ArenaGram`]: training × probe kernel
/// rows living in a shared [`KernelRowArena`].
#[derive(Debug)]
pub struct ArenaCrossGram<'a> {
    kernel: Kernel,
    train: &'a [SparseVector],
    probes: Vec<&'a SparseVector>,
    probe_diag: Vec<f64>,
    arena: Arc<KernelRowArena>,
    owner: u64,
    tag: u64,
    /// Lazily packed probe panel shared by every (re)computed row; an
    /// arena hit skips the pack entirely.
    panel: OnceLock<crate::panel::ProbePanel>,
}

impl<'a> ArenaCrossGram<'a> {
    /// Prepares arena-backed cross rows between `train` and `probes` under
    /// the `owner` namespace; the probe diagonal is computed eagerly.
    pub fn new(
        kernel: Kernel,
        train: &'a [SparseVector],
        probes: Vec<&'a SparseVector>,
        arena: &Arc<KernelRowArena>,
        owner: u64,
    ) -> Self {
        let probe_diag = probes.iter().map(|p| kernel.compute_self(p)).collect();
        let tag = content_fingerprint(kernel, train, Some(&probes));
        Self {
            kernel,
            train,
            probes,
            probe_diag,
            arena: Arc::clone(arena),
            owner,
            tag,
            panel: OnceLock::new(),
        }
    }

    /// The arena backing this matrix.
    pub fn arena(&self) -> &Arc<KernelRowArena> {
        &self.arena
    }
}

impl CrossRows for ArenaCrossGram<'_> {
    fn train_len(&self) -> usize {
        self.train.len()
    }

    fn probe_count(&self) -> usize {
        self.probes.len()
    }

    fn kernel(&self) -> Kernel {
        self.kernel
    }

    fn row_arc(&self, i: usize) -> Arc<[f64]> {
        let key = RowKey {
            owner: self.owner,
            kernel: kind_slot(self.kernel.kind()),
            space: RowSpace::Cross,
            row: i as u32,
            tag: self.tag,
        };
        self.arena.get_or_compute(key, || {
            ROWS_COMPUTED.fetch_add(1, Ordering::Relaxed);
            let panel = self.panel.get_or_init(|| crate::panel::ProbePanel::pack(&self.probes));
            crate::panel::kernel_cross_row(self.kernel, &self.train[i], &self.probes, panel)
        })
    }

    fn probe_diag(&self, j: usize) -> f64 {
        self.probe_diag[j]
    }
}

/// Validates that `gram` is usable for training `points` with `kernel`.
pub(crate) fn check_compatible<G: KernelRows>(
    gram: &G,
    points: usize,
    kernel: Kernel,
) -> Result<(), TrainError> {
    if gram.len() != points {
        return Err(TrainError::GramSizeMismatch { rows: gram.len(), points });
    }
    if gram.kernel() != kernel {
        return Err(TrainError::GramKernelMismatch);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<SparseVector> {
        (0..6).map(|i| SparseVector::from_dense(&[1.0 + 0.1 * i as f64, (i % 3) as f64])).collect()
    }

    #[test]
    fn matches_direct_kernel_evaluation() {
        let pts = points();
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.7 }] {
            let gram = GramMatrix::compute(kernel, &pts);
            assert_eq!(gram.len(), pts.len());
            for i in 0..pts.len() {
                assert_eq!(gram.diag_value(i), kernel.compute_self(&pts[i]));
                for j in 0..pts.len() {
                    assert_eq!(gram.row(i)[j], kernel.compute(&pts[i], &pts[j]));
                }
            }
        }
    }

    #[test]
    fn cross_matches_direct_kernel_evaluation() {
        let pts = points();
        let (train, probes) = pts.split_at(4);
        let kernel = Kernel::Rbf { gamma: 0.7 };
        let cross = CrossGram::new(kernel, train, probes.iter().collect());
        assert_eq!(cross.train_len(), 4);
        assert_eq!(cross.probe_count(), 2);
        for (i, x) in train.iter().enumerate() {
            for (j, p) in probes.iter().enumerate() {
                assert_eq!(cross.row(i)[j], kernel.compute(x, p));
            }
        }
        for (j, p) in probes.iter().enumerate() {
            assert_eq!(cross.probe_diag(j), kernel.compute_self(p));
        }
    }

    #[test]
    fn computation_counter_increments_once_per_compute() {
        let pts = points();
        let before = GramMatrix::computations();
        let _one = GramMatrix::compute(Kernel::Linear, &pts);
        let _two = GramMatrix::compute(Kernel::Rbf { gamma: 1.0 }, &pts);
        assert!(GramMatrix::computations() >= before + 2);
    }

    #[test]
    fn rows_are_computed_lazily_and_at_most_once() {
        // Counts this matrix's materialized rows: other tests of this
        // binary run in parallel and move the process-wide counter too.
        let materialized =
            |gram: &GramMatrix<'_>| gram.rows.iter().filter(|row| row.get().is_some()).count();
        let pts = points();
        let gram = GramMatrix::compute(Kernel::Linear, &pts);
        assert_eq!(materialized(&gram), 0, "compute materializes no row");
        let before = GramMatrix::rows_computed();
        let first = Arc::as_ptr(gram.row(2));
        assert_eq!(materialized(&gram), 1, "first access materializes");
        assert!(GramMatrix::rows_computed() > before, "the process-wide counter saw it");
        assert_eq!(Arc::as_ptr(gram.row(2)), first, "repeat access returns the same row");
        assert_eq!(materialized(&gram), 1, "repeat access computes nothing");
    }

    #[test]
    fn compatibility_checks() {
        let pts = points();
        let gram = GramMatrix::compute(Kernel::Linear, &pts);
        assert!(check_compatible(&gram, pts.len(), Kernel::Linear).is_ok());
        assert_eq!(
            check_compatible(&gram, pts.len() + 1, Kernel::Linear),
            Err(TrainError::GramSizeMismatch { rows: pts.len(), points: pts.len() + 1 })
        );
        assert_eq!(
            check_compatible(&gram, pts.len(), Kernel::Rbf { gamma: 1.0 }),
            Err(TrainError::GramKernelMismatch)
        );
    }

    #[test]
    fn gram_matrix_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GramMatrix<'static>>();
        assert_send_sync::<CrossGram<'static>>();
        assert_send_sync::<ArenaGram<'static>>();
        assert_send_sync::<ArenaCrossGram<'static>>();
    }

    #[test]
    fn arena_gram_rows_match_gram_matrix_bitwise() {
        let pts = points();
        let arena = KernelRowArena::with_budget(1 << 20);
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.7 }] {
            let gram = GramMatrix::compute(kernel, &pts);
            let shared = ArenaGram::new(kernel, &pts, &arena, 1);
            assert_eq!(KernelRows::len(&shared), KernelRows::len(&gram));
            for i in 0..pts.len() {
                assert_eq!(KernelRows::diag_value(&shared, i), KernelRows::diag_value(&gram, i));
                assert_eq!(shared.row_arc(i)[..], gram.row_arc(i)[..], "{kernel:?} row {i}");
            }
        }
        assert!(arena.stats().fills > 0);
    }

    #[test]
    fn arena_gram_repeat_access_hits_the_arena() {
        let pts = points();
        let arena = KernelRowArena::with_budget(1 << 20);
        let gram = ArenaGram::new(Kernel::Rbf { gamma: 1.1 }, &pts, &arena, 3);
        let first = gram.row_arc(2);
        let hits_before = arena.stats().hits;
        let second = gram.row_arc(2);
        assert_eq!(Arc::as_ptr(&first), Arc::as_ptr(&second), "same shared allocation");
        assert_eq!(arena.stats().hits, hits_before + 1);
    }

    #[test]
    fn arena_cross_rows_match_cross_gram_bitwise() {
        let pts = points();
        let (train, probe_pts) = pts.split_at(4);
        let probes: Vec<&SparseVector> = probe_pts.iter().collect();
        let arena = KernelRowArena::with_budget(1 << 20);
        let kernel = Kernel::Polynomial { gamma: 0.4, coef0: 1.0, degree: 2 };
        let direct = CrossGram::new(kernel, train, probes.clone());
        let shared = ArenaCrossGram::new(kernel, train, probes, &arena, 5);
        assert_eq!(CrossRows::probe_count(&shared), CrossRows::probe_count(&direct));
        for i in 0..train.len() {
            assert_eq!(shared.row_arc(i)[..], CrossRows::row_arc(&direct, i)[..], "row {i}");
        }
        for j in 0..CrossRows::probe_count(&direct) {
            assert_eq!(CrossRows::probe_diag(&shared, j), CrossRows::probe_diag(&direct, j));
        }
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let pts = points();
        let base = content_fingerprint(Kernel::Rbf { gamma: 1.0 }, &pts, None);
        assert_eq!(content_fingerprint(Kernel::Rbf { gamma: 1.0 }, &pts, None), base);
        assert_ne!(content_fingerprint(Kernel::Rbf { gamma: 2.0 }, &pts, None), base);
        assert_ne!(content_fingerprint(Kernel::Linear, &pts, None), base);
        assert_ne!(content_fingerprint(Kernel::Rbf { gamma: 1.0 }, &pts[..5], None), base);
        let probe = &pts[0];
        assert_ne!(
            content_fingerprint(Kernel::Rbf { gamma: 1.0 }, &pts, Some(&[probe])),
            base,
            "probe set participates in the fingerprint"
        );
    }
}
