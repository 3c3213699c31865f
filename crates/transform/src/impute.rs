//! Missing-value imputation (paper §4.4, Example 4): mode imputation,
//! imputation by (robust) functional dependencies, and a MICE-style
//! iterative regression imputer for numeric matrices.

// Parallel-array index loops are intentional in the hot kernels below:
// iterator zips over 3+ arrays obscure the access pattern.
#![allow(clippy::needless_range_loop)]

use std::borrow::Cow;
use std::collections::HashMap;

use exdra_matrix::eigen::solve_spd;
use exdra_matrix::frame::FrameColumn;
use exdra_matrix::kernels::matmul::{matmul_tn, tsmm};
use exdra_matrix::{DenseMatrix, MatrixError, Result};

/// Imputes missing cells of a categorical (string) column with its mode
/// (most frequent value). Ties break lexicographically for determinism.
pub fn impute_mode(col: &FrameColumn) -> Result<FrameColumn> {
    let values = match col {
        FrameColumn::Str(v) => v,
        other => {
            return Err(MatrixError::TypeMismatch {
                expected: "string",
                actual: other.value_type().name(),
            })
        }
    };
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for v in values.iter().flatten() {
        *counts.entry(v).or_default() += 1;
    }
    let mode = counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
        .map(|(v, _)| v.to_string())
        .ok_or(MatrixError::InvalidArgument {
            op: "impute_mode",
            msg: "column is entirely missing".into(),
        })?;
    Ok(FrameColumn::Str(
        values.iter().map(|v| Some(v.unwrap_or(&mode))).collect(),
    ))
}

/// Imputes missing cells of `target` using a functional dependency
/// `det -> target` (paper Example 4: `A -> C`): for each determinant value,
/// the most frequent observed target value fills missing targets that share
/// the determinant. Rows whose determinant never co-occurs with an observed
/// target stay missing. Returns the repaired column and the number of cells
/// filled.
pub fn impute_by_fd(det: &FrameColumn, target: &FrameColumn) -> Result<(FrameColumn, usize)> {
    let targets = match target {
        FrameColumn::Str(v) => v,
        other => {
            return Err(MatrixError::TypeMismatch {
                expected: "string",
                actual: other.value_type().name(),
            })
        }
    };
    if det.len() != targets.len() {
        return Err(MatrixError::InvalidArgument {
            op: "impute_by_fd",
            msg: format!("column lengths differ: {} vs {}", det.len(), targets.len()),
        });
    }
    // Count target values per determinant value.
    let mut by_det: HashMap<Cow<str>, HashMap<&str, usize>> = HashMap::new();
    for r in 0..det.len() {
        if let (Some(d), Some(t)) = (det.token(r), targets.get(r)) {
            *by_det.entry(d).or_default().entry(t).or_default() += 1;
        }
    }
    let pick: HashMap<Cow<str>, &str> = by_det
        .into_iter()
        .filter_map(|(d, counts)| {
            counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
                .map(|(t, _)| (d, t))
        })
        .collect();
    let mut filled = 0usize;
    let repaired = (0..det.len())
        .map(|r| match targets.get(r) {
            Some(v) => Some(v),
            None => det.token(r).and_then(|d| {
                pick.get(&d).map(|&t| {
                    filled += 1;
                    t
                })
            }),
        })
        .collect();
    Ok((FrameColumn::Str(repaired), filled))
}

/// Confidence that `det -> target` holds: fraction of determinant groups
/// (weighted by size) whose observed targets are unanimous. Used to
/// *discover* robust functional dependencies before imputing by them.
pub fn fd_confidence(det: &FrameColumn, target: &FrameColumn) -> f64 {
    let mut by_det: HashMap<Cow<str>, HashMap<Cow<str>, usize>> = HashMap::new();
    let mut total = 0usize;
    for r in 0..det.len().min(target.len()) {
        if let (Some(d), Some(t)) = (det.token(r), target.token(r)) {
            *by_det.entry(d).or_default().entry(t).or_default() += 1;
            total += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    let consistent: usize = by_det
        .values()
        .map(|counts| *counts.values().max().unwrap_or(&0))
        .sum();
    consistent as f64 / total as f64
}

/// MICE-style iterative regression imputation for a numeric matrix with
/// NaN missing cells: each incomplete column is repeatedly regressed (ridge)
/// on all other columns, and its missing cells replaced by predictions,
/// for `iterations` rounds. Returns the completed matrix.
pub fn mice_impute(x: &DenseMatrix, iterations: usize, ridge: f64) -> Result<DenseMatrix> {
    let (rows, cols) = x.shape();
    let mut work = x.clone();
    // Initialize missing cells with column means.
    let mut missing: Vec<Vec<usize>> = vec![Vec::new(); cols];
    for c in 0..cols {
        let mut sum = 0.0;
        let mut n = 0usize;
        for r in 0..rows {
            let v = x.get(r, c);
            if v.is_nan() {
                missing[c].push(r);
            } else {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            return Err(MatrixError::InvalidArgument {
                op: "mice_impute",
                msg: format!("column {c} entirely missing"),
            });
        }
        let mean = sum / n as f64;
        for &r in &missing[c] {
            work.set(r, c, mean);
        }
    }
    for _ in 0..iterations {
        for c in 0..cols {
            if missing[c].is_empty() {
                continue;
            }
            // Regress column c on the others using observed rows only.
            let obs: Vec<usize> = (0..rows).filter(|r| !x.get(*r, c).is_nan()).collect();
            let p = cols; // features: other cols + intercept
            let mut xmat = DenseMatrix::zeros(obs.len(), p);
            let mut yvec = DenseMatrix::zeros(obs.len(), 1);
            for (i, &r) in obs.iter().enumerate() {
                let mut k = 0usize;
                for cc in 0..cols {
                    if cc != c {
                        xmat.set(i, k, work.get(r, cc));
                        k += 1;
                    }
                }
                xmat.set(i, p - 1, 1.0); // intercept
                yvec.set(i, 0, work.get(r, c));
            }
            let mut gram = tsmm(&xmat, true)?;
            for d in 0..p {
                let v = gram.get(d, d);
                gram.set(d, d, v + ridge);
            }
            let rhs = matmul_tn(&xmat, &yvec)?;
            let beta = solve_spd(&gram, &rhs)?;
            // Predict missing cells.
            for &r in &missing[c] {
                let mut pred = beta.get(p - 1, 0);
                let mut k = 0usize;
                for cc in 0..cols {
                    if cc != c {
                        pred += beta.get(k, 0) * work.get(r, cc);
                        k += 1;
                    }
                }
                work.set(r, c, pred);
            }
        }
    }
    Ok(work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exdra_matrix::rng::rand_matrix;
    use rand::Rng;
    use rand::SeedableRng;

    #[test]
    fn mode_imputation_fills_most_frequent() {
        let col = FrameColumn::from(vec![Some("X"), None, Some("Z"), Some("X"), None]);
        let fixed = impute_mode(&col).unwrap();
        assert_eq!(fixed.token(1).as_deref(), Some("X"));
        assert_eq!(fixed.token(4).as_deref(), Some("X"));
        assert_eq!(fixed.missing_count(), 0);
    }

    #[test]
    fn mode_rejects_all_missing() {
        let col = FrameColumn::from(vec![None::<&str>, None]);
        assert!(impute_mode(&col).is_err());
    }

    #[test]
    fn fd_imputation_follows_determinant() {
        // Paper Example 4: A -> C; impute NULLs in C from A.
        let a = FrameColumn::Str(
            ["R101", "R101", "C7", "R101", "C3", "R102"]
                .iter()
                .map(|s| Some(s.to_string()))
                .collect(),
        );
        let c = FrameColumn::from(vec![
            Some("X"),
            None, // A=R101 -> X
            Some("Z"),
            Some("X"),
            Some("Z"),
            Some("Y"),
        ]);
        let (fixed, n) = impute_by_fd(&a, &c).unwrap();
        assert_eq!(n, 1);
        assert_eq!(fixed.token(1).as_deref(), Some("X"));
    }

    #[test]
    fn fd_leaves_unresolvable_missing() {
        let a = FrameColumn::from(vec![Some("new")]);
        let c = FrameColumn::from(vec![None::<&str>]);
        let (fixed, n) = impute_by_fd(&a, &c).unwrap();
        assert_eq!(n, 0);
        assert!(fixed.is_missing(0));
    }

    #[test]
    fn fd_confidence_detects_dependency() {
        let a = FrameColumn::Str(
            ["p", "p", "q", "q"]
                .iter()
                .map(|s| Some(s.to_string()))
                .collect(),
        );
        let perfect = FrameColumn::Str(
            ["1", "1", "2", "2"]
                .iter()
                .map(|s| Some(s.to_string()))
                .collect(),
        );
        let broken = FrameColumn::Str(
            ["1", "2", "1", "2"]
                .iter()
                .map(|s| Some(s.to_string()))
                .collect(),
        );
        assert_eq!(fd_confidence(&a, &perfect), 1.0);
        assert_eq!(fd_confidence(&a, &broken), 0.5);
    }

    #[test]
    fn mice_recovers_linear_structure() {
        // Column 2 = 2*col0 - col1; knock out 10% of col2 and recover it.
        let base = rand_matrix(200, 2, -1.0, 1.0, 81);
        let mut x = DenseMatrix::zeros(200, 3);
        for r in 0..200 {
            x.set(r, 0, base.get(r, 0));
            x.set(r, 1, base.get(r, 1));
            x.set(r, 2, 2.0 * base.get(r, 0) - base.get(r, 1));
        }
        let truth = x.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(82);
        let mut holes = Vec::new();
        for r in 0..200 {
            if rng.gen::<f64>() < 0.1 {
                x.set(r, 2, f64::NAN);
                holes.push(r);
            }
        }
        assert!(!holes.is_empty());
        let fixed = mice_impute(&x, 3, 1e-6).unwrap();
        for &r in &holes {
            assert!(
                (fixed.get(r, 2) - truth.get(r, 2)).abs() < 1e-6,
                "row {r}: {} vs {}",
                fixed.get(r, 2),
                truth.get(r, 2)
            );
        }
    }

    #[test]
    fn mice_rejects_fully_missing_column() {
        let mut x = rand_matrix(10, 2, 0.0, 1.0, 83);
        for r in 0..10 {
            x.set(r, 1, f64::NAN);
        }
        assert!(mice_impute(&x, 2, 1e-6).is_err());
    }
}
