//! Correlation utilities for burst detection.
//!
//! The ADS-B demodulator finds the Mode S preamble by sliding a template
//! across the capture and looking for normalized-correlation peaks; these
//! are the primitives it uses.

use crate::Cplx;

/// Normalized correlation magnitude in `[0, 1]` at each lag: the cosine
/// similarity between the template and each signal window. Windows with
/// (near-)zero energy report 0.
pub fn normalized_correlation(signal: &[Cplx], template: &[Cplx]) -> Vec<f64> {
    let mut out = Vec::new();
    normalized_correlation_into(signal, template, &mut out);
    out
}

/// [`normalized_correlation`] into a caller-owned buffer (cleared first);
/// reusing `out` across calls keeps the scan loop allocation-free.
pub fn normalized_correlation_into(signal: &[Cplx], template: &[Cplx], out: &mut Vec<f64>) {
    out.clear();
    if template.is_empty() || signal.len() < template.len() {
        return;
    }
    let k = crate::simd::kernels();
    let m = template.len();
    let t_energy = (k.energy)(template);
    if t_energy < 1e-30 {
        out.resize(signal.len() - m + 1, 0.0);
        return;
    }
    let n = signal.len() - m + 1;
    // Running window energy for O(N) instead of O(N·M) energy computation.
    let mut w_energy = (k.energy)(&signal[..m]);
    for i in 0..n {
        let acc = (k.cdot_conj)(&signal[i..i + m], template);
        let denom = (t_energy * w_energy).sqrt();
        out.push(if denom < 1e-30 { 0.0 } else { acc.abs() / denom });
        if i + template.len() < signal.len() {
            w_energy += signal[i + template.len()].norm_sq() - signal[i].norm_sq();
            if w_energy < 0.0 {
                w_energy = 0.0;
            }
        }
    }
}

/// Indices of local maxima in `values` that exceed `threshold`, with at
/// least `min_separation` samples between accepted peaks (the larger peak
/// wins inside a separation window).
pub fn find_peaks(values: &[f64], threshold: f64, min_separation: usize) -> Vec<usize> {
    let mut out = Vec::new();
    find_peaks_into(values, threshold, min_separation, &mut out);
    out
}

/// [`find_peaks`] into a caller-owned buffer (cleared first); reusing
/// `out` across calls keeps the scan loop allocation-free. The suppression
/// pass runs in place by compacting accepted peaks to the buffer's front.
pub fn find_peaks_into(
    values: &[f64],
    threshold: f64,
    min_separation: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.extend((0..values.len()).filter(|&i| {
        values[i] >= threshold
            && (i == 0 || values[i] >= values[i - 1])
            && (i + 1 == values.len() || values[i] > values[i + 1])
    }));
    // Greedy non-maximum suppression by descending height: candidates are
    // visited tallest-first and compacted into an accepted prefix.
    out.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap());
    let mut accepted = 0;
    for i in 0..out.len() {
        let c = out[i];
        if out[..accepted]
            .iter()
            .all(|&a| a.abs_diff(c) >= min_separation.max(1))
        {
            out[accepted] = c;
            accepted += 1;
        }
    }
    out.truncate(accepted);
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> Vec<Cplx> {
        vec![Cplx::ONE, Cplx::ZERO, Cplx::ONE, Cplx::ONE]
    }

    #[test]
    fn degenerate_inputs_yield_empty() {
        assert!(normalized_correlation(&[], &template()).is_empty());
        assert!(normalized_correlation(&template(), &[]).is_empty());
        assert!(normalized_correlation(&[Cplx::ONE], &template()).is_empty());
    }

    #[test]
    fn exact_match_peaks_at_one() {
        let t = template();
        let mut sig = vec![Cplx::ZERO; 10];
        sig[3..7].copy_from_slice(&t);
        let nc = normalized_correlation(&sig, &t);
        let (best, &val) = nc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(best, 3);
        assert!((val - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_is_scale_invariant() {
        let t = template();
        let mut sig = vec![Cplx::ZERO; 12];
        for (i, v) in t.iter().enumerate() {
            sig[4 + i] = v.scale(37.5); // much louder than the template
        }
        let nc = normalized_correlation(&sig, &t);
        assert!((nc[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phase_rotation_does_not_break_match() {
        let t = template();
        let rot = Cplx::phasor(1.2);
        let mut sig = vec![Cplx::ZERO; 12];
        for (i, v) in t.iter().enumerate() {
            sig[2 + i] = *v * rot;
        }
        let nc = normalized_correlation(&sig, &t);
        assert!((nc[2] - 1.0).abs() < 1e-9, "got {}", nc[2]);
    }

    #[test]
    fn find_peaks_basic() {
        let v = [0.0, 0.2, 0.9, 0.3, 0.0, 0.8, 0.1];
        assert_eq!(find_peaks(&v, 0.5, 1), vec![2, 5]);
        assert_eq!(find_peaks(&v, 0.95, 1), Vec::<usize>::new());
    }

    #[test]
    fn find_peaks_suppression_keeps_larger() {
        let v = [0.0, 0.8, 0.0, 0.9, 0.0];
        // With separation 3, the 0.9 peak at index 3 suppresses index 1.
        assert_eq!(find_peaks(&v, 0.5, 3), vec![3]);
    }

    #[test]
    fn find_peaks_plateau_takes_leading_edge_only_once() {
        let v = [0.0, 1.0, 1.0, 0.0];
        let peaks = find_peaks(&v, 0.5, 1);
        assert_eq!(peaks.len(), 1);
    }
}
