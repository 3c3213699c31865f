//! Metadata drift detection for continuous pipelines.
//!
//! A transform metadata frame is built once over a training snapshot and
//! then applied to every later window. When the underlying distribution
//! moves — sensor ranges escape their encoded bin boundaries, new
//! category tokens appear — applying the stale metadata silently clamps
//! or drops information. [`drift_score`] quantifies how far a fresh
//! site-local [`PartialMeta`] has escaped a consolidated
//! [`TransformMeta`], so a continuous-learning loop can trigger the
//! two-pass re-encode (`build_partial` → `merge_partials`) exactly when
//! the score crosses its threshold instead of on a timer.

use crate::encoders::{ColumnMeta, PartialColumnMeta, PartialMeta, TransformMeta};

/// How far one fresh partial escapes the consolidated metadata, per
/// column, in `[0, ∞)`:
///
/// * `Bin`: the fraction of the encoded range by which the new observed
///   `[min, max]` overhangs it on either side (0 when fully contained;
///   1.0 when the window moved a full range-width outside).
/// * `Recode`: the fraction of the window's distinct tokens that have no
///   code yet.
/// * `PassThrough` / `Hash`: always 0 (nothing to go stale).
///
/// Columns are compared positionally; a shape mismatch scores `f64::MAX`
/// (the spec itself changed — always re-encode).
pub fn column_drift(meta: &ColumnMeta, partial: &PartialColumnMeta) -> f64 {
    match (meta, partial) {
        (ColumnMeta::PassThrough, PartialColumnMeta::PassThrough) => 0.0,
        (ColumnMeta::Hash { .. }, PartialColumnMeta::Hash) => 0.0,
        (ColumnMeta::Bin { min, max, .. }, PartialColumnMeta::Bin { min: lo, max: hi }) => {
            if !lo.is_finite() || !hi.is_finite() {
                // All-missing window: nothing observed, nothing drifted.
                return 0.0;
            }
            let width = (max - min).max(f64::MIN_POSITIVE);
            let under = ((min - lo) / width).max(0.0);
            let over = ((hi - max) / width).max(0.0);
            under + over
        }
        (ColumnMeta::Recode { codes }, PartialColumnMeta::Recode { distincts }) => {
            if distincts.is_empty() {
                return 0.0;
            }
            let unknown = distincts
                .iter()
                .filter(|d| codes.binary_search(d).is_err())
                .count();
            unknown as f64 / distincts.len() as f64
        }
        _ => f64::MAX,
    }
}

/// Worst-column drift of one site's fresh partial against the
/// consolidated metadata (see [`column_drift`]).
pub fn drift_score(meta: &TransformMeta, partial: &PartialMeta) -> f64 {
    if meta.columns.len() != partial.columns.len() {
        return f64::MAX;
    }
    meta.columns
        .iter()
        .zip(&partial.columns)
        .map(|((_, m), p)| column_drift(m, p))
        .fold(0.0, f64::max)
}

/// Worst drift across all sites' fresh partials — the scalar a
/// continuous-learning loop thresholds to decide on re-encoding.
pub fn max_drift(meta: &TransformMeta, partials: &[PartialMeta]) -> f64 {
    partials
        .iter()
        .map(|p| drift_score(meta, p))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoders::{build_partial, merge_partials, TransformSpec};
    use exdra_matrix::frame::{Frame, FrameColumn};

    fn numeric_frame(vals: &[f64]) -> Frame {
        Frame::new(vec![(
            "v".into(),
            FrameColumn::F64(vals.iter().map(|&v| Some(v)).collect()),
        )])
        .unwrap()
    }

    fn bin_spec() -> TransformSpec {
        let mut spec = TransformSpec::auto(&numeric_frame(&[0.0]));
        spec.columns[0].kind = crate::encoders::EncodeKind::Bin { num_bins: 4 };
        spec
    }

    #[test]
    fn contained_window_scores_zero() {
        let spec = bin_spec();
        let base = build_partial(&numeric_frame(&[0.0, 10.0]), &spec).unwrap();
        let meta = merge_partials(&[base], &spec).unwrap();
        let window = build_partial(&numeric_frame(&[2.0, 8.0]), &spec).unwrap();
        assert_eq!(drift_score(&meta, &window), 0.0);
    }

    #[test]
    fn escaping_range_scores_relative_overhang() {
        let spec = bin_spec();
        let base = build_partial(&numeric_frame(&[0.0, 10.0]), &spec).unwrap();
        let meta = merge_partials(&[base], &spec).unwrap();
        // Max escapes by 5 over a width-10 range: score 0.5.
        let window = build_partial(&numeric_frame(&[3.0, 15.0]), &spec).unwrap();
        let s = drift_score(&meta, &window);
        assert!((s - 0.5).abs() < 1e-12, "score {s}");
        // Escaping both sides adds up.
        let wide = build_partial(&numeric_frame(&[-5.0, 15.0]), &spec).unwrap();
        let s = drift_score(&meta, &wide);
        assert!((s - 1.0).abs() < 1e-12, "score {s}");
        // max_drift takes the worst site.
        let calm = build_partial(&numeric_frame(&[4.0, 6.0]), &spec).unwrap();
        assert!((max_drift(&meta, &[calm, wide]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_categories_score_their_fraction() {
        let frame = Frame::new(vec![(
            "c".into(),
            FrameColumn::from(vec![Some("a"), Some("b")]),
        )])
        .unwrap();
        let spec = TransformSpec::auto(&frame);
        let base = build_partial(&frame, &spec).unwrap();
        let meta = merge_partials(&[base], &spec).unwrap();
        let window = Frame::new(vec![(
            "c".into(),
            FrameColumn::from(vec![Some("a"), Some("z")]),
        )])
        .unwrap();
        let partial = build_partial(&window, &spec).unwrap();
        let s = drift_score(&meta, &partial);
        assert!((s - 0.5).abs() < 1e-12, "score {s}");
    }

    #[test]
    fn shape_mismatch_forces_reencode() {
        let spec = bin_spec();
        let base = build_partial(&numeric_frame(&[0.0, 10.0]), &spec).unwrap();
        let meta = merge_partials(std::slice::from_ref(&base), &spec).unwrap();
        let mut wrong = base;
        wrong.columns.push(crate::encoders::PartialColumnMeta::Hash);
        assert_eq!(drift_score(&meta, &wrong), f64::MAX);
    }
}
