//! Experiment result containers and text rendering.

use serde::{Deserialize, Serialize};

/// One line/series of a figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (matches the paper's legends).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// A regenerated table or figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment {
    /// Paper identifier, e.g. "fig8a".
    pub id: String,
    /// Title matching the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
    /// What the paper reports, in prose. `render_text` prints it with
    /// the table, and [`crate::check`] turns it into executable checks.
    pub paper_expectation: String,
}

impl Experiment {
    /// Renders a fixed-width text table of the experiment.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        out.push_str(&format!(
            "   paper: {}\n   x: {}   y: {}\n",
            self.paper_expectation, self.x_label, self.y_label
        ));
        for s in &self.series {
            out.push_str(&format!("   [{}]\n", s.label));
            let xs: Vec<String> = s.points.iter().map(|p| format!("{:>9.3}", p.0)).collect();
            let ys: Vec<String> = s.points.iter().map(|p| format!("{:>9.3}", p.1)).collect();
            out.push_str(&format!("     x: {}\n", xs.join(" ")));
            out.push_str(&format!("     y: {}\n", ys.join(" ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_parts() {
        let e = Experiment {
            id: "fig0".into(),
            title: "Test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::new("a", vec![(1.0, 2.0), (3.0, 4.0)])],
            paper_expectation: "nothing".into(),
        };
        let text = e.render_text();
        assert!(text.contains("fig0"));
        assert!(text.contains("[a]"));
        assert!(text.contains("1.000"));
        assert!(text.contains("4.000"));
    }

    #[test]
    fn json_round_trip() {
        let e = Experiment {
            id: "fig1".into(),
            title: "T".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::new("s", vec![(0.0, 1.0)])],
            paper_expectation: "p".into(),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Experiment = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, "fig1");
        assert_eq!(back.series[0].points, vec![(0.0, 1.0)]);
    }
}
