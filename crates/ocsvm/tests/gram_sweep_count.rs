//! A regularization sweep over one precomputed Gram matrix builds no other.
//!
//! The only test of its binary: `GramMatrix::computations()` is a
//! process-wide counter, and a test running in parallel would move it.

use ocsvm::{GramMatrix, Kernel, NuOcSvm, OneClassModel, SparseVector};

/// Two mildly overlapping clusters plus a few stragglers — enough structure
/// that every kernel produces a non-trivial support-vector set.
fn training_data() -> Vec<SparseVector> {
    let mut points = Vec::new();
    for i in 0..30 {
        let t = i as f64;
        points.push(SparseVector::from_dense(&[
            1.0 + 0.03 * (i % 7) as f64,
            0.2 + 0.05 * (i % 5) as f64,
            (i % 2) as f64,
        ]));
        points.push(SparseVector::from_dense(&[
            -0.5 + 0.02 * (i % 4) as f64,
            1.5 - 0.04 * (i % 6) as f64,
            0.1 * (t % 3.0),
        ]));
    }
    points.push(SparseVector::from_dense(&[4.0, -2.0, 0.5]));
    points.push(SparseVector::from_dense(&[-3.0, 3.0, 1.0]));
    points
}

#[test]
fn one_gram_matrix_serves_a_whole_regularization_sweep() {
    // The grid-search usage pattern: one matrix, 15 solver runs against it.
    let data = training_data();
    let kernel = Kernel::Rbf { gamma: 0.8 };
    let gram = GramMatrix::compute(kernel, &data);
    let before = GramMatrix::computations();
    for i in 1..=15 {
        let nu = i as f64 / 16.0;
        let model = NuOcSvm::new(nu, kernel).train_with_gram(&data, &gram).expect("trains");
        assert!(model.support_vector_count() > 0, "nu={nu}");
    }
    assert_eq!(GramMatrix::computations(), before, "sweep must not recompute the Gram matrix");
}
