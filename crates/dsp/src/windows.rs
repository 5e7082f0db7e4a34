//! Window functions for spectral analysis and FIR design.

/// The window families used across the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// No tapering (all ones).
    Rectangular,
    /// Hann window — the default for spectrum measurements.
    Hann,
    /// Hamming window — used for FIR design (lower first sidelobe).
    Hamming,
    /// Blackman window — used where stop-band depth matters more than
    /// transition width (the receiver's channel filter).
    Blackman,
}

impl Window {
    /// Returns the `n` window coefficients.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let m = (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = i as f64 / m;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * (std::f64::consts::TAU * x).cos(),
                    Window::Hamming => 0.54 - 0.46 * (std::f64::consts::TAU * x).cos(),
                    Window::Blackman => {
                        0.42 - 0.5 * (std::f64::consts::TAU * x).cos()
                            + 0.08 * (2.0 * std::f64::consts::TAU * x).cos()
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular
            .coefficients(8)
            .iter()
            .all(|&w| w == 1.0));
    }

    #[test]
    fn hann_is_symmetric_and_zero_at_edges() {
        let w = Window::Hann.coefficients(64);
        assert!(w[0].abs() < 1e-12);
        assert!(w[63].abs() < 1e-12);
        for i in 0..32 {
            assert!((w[i] - w[63 - i]).abs() < 1e-12);
        }
        // Peak near the middle.
        assert!(w[31] > 0.99 || w[32] > 0.99);
    }

    #[test]
    fn hamming_edges_nonzero() {
        let w = Window::Hamming.coefficients(21);
        assert!((w[0] - 0.08).abs() < 1e-12);
        assert!((w[10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blackman_is_nonnegative() {
        let w = Window::Blackman.coefficients(33);
        assert!(w.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn coherent_gains_ordering() {
        // Coherent gain (mean coefficient): rectangular keeps all
        // energy; others attenuate progressively.
        let gain = |w: Window| w.coefficients(256).iter().sum::<f64>() / 256.0;
        let rect = gain(Window::Rectangular);
        let hann = gain(Window::Hann);
        let blackman = gain(Window::Blackman);
        assert!((rect - 1.0).abs() < 1e-12);
        assert!(hann < rect && blackman < hann);
        assert!((hann - 0.5).abs() < 0.01);
    }

    #[test]
    fn degenerate_sizes() {
        assert!(Window::Hann.coefficients(0).is_empty());
        assert_eq!(Window::Hann.coefficients(1), vec![1.0]);
    }
}
