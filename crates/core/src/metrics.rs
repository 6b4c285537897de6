//! Training-curve recording: the "average accuracy of participants'
//! models" metric of §VI-A with its 50-step moving average (the orange
//! lines of Figs. 3–6, 8 and 12).

use std::io::Write;

/// One recorded search/training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetric {
    /// Step (round) index.
    pub step: usize,
    /// Mean training accuracy over participants' sub-models this step.
    pub mean_accuracy: f32,
    /// Mean training loss.
    pub mean_loss: f32,
    /// Participants whose updates contributed this step.
    pub contributors: usize,
}

/// An append-only curve of per-step metrics with the paper's moving
/// average.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CurveRecorder {
    steps: Vec<StepMetric>,
}

impl CurveRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one step.
    pub fn record(&mut self, metric: StepMetric) {
        self.steps.push(metric);
    }

    /// All recorded steps.
    pub fn steps(&self) -> &[StepMetric] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Accuracy moving average with the paper's 50-step window (trailing,
    /// partial at the start).
    pub fn moving_average(&self, window: usize) -> Vec<f32> {
        let w = window.max(1);
        let mut out = Vec::with_capacity(self.steps.len());
        let mut sum = 0.0f32;
        for i in 0..self.steps.len() {
            sum += self.steps[i].mean_accuracy;
            if i >= w {
                sum -= self.steps[i - w].mean_accuracy;
            }
            out.push(sum / (i.min(w - 1) + 1) as f32);
        }
        out
    }

    /// Final moving-average accuracy (the number the figure legends
    /// compare), `None` when empty.
    pub fn final_accuracy(&self, window: usize) -> Option<f32> {
        self.moving_average(window).last().copied()
    }

    /// Mean accuracy of the last `n` steps (robust single-number summary).
    pub fn tail_accuracy(&self, n: usize) -> Option<f32> {
        if self.steps.is_empty() {
            return None;
        }
        let take = n.max(1).min(self.steps.len());
        let sum: f32 = self.steps[self.steps.len() - take..]
            .iter()
            .map(|s| s.mean_accuracy)
            .sum();
        Some(sum / take as f32)
    }

    /// First step whose moving average reaches `threshold`, if any — the
    /// convergence-speed measure used for Fig. 12's comparison.
    pub fn steps_to_reach(&self, threshold: f32, window: usize) -> Option<usize> {
        self.moving_average(window)
            .iter()
            .position(|a| *a >= threshold)
            .map(|i| self.steps[i].step)
    }

    /// Writes the curve as CSV (`step,accuracy,loss,moving_avg`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W, window: usize) -> std::io::Result<()> {
        writeln!(w, "step,accuracy,loss,contributors,moving_avg")?;
        let ma = self.moving_average(window);
        for (s, m) in self.steps.iter().zip(ma) {
            writeln!(
                w,
                "{},{:.6},{:.6},{},{:.6}",
                s.step, s.mean_accuracy, s.mean_loss, s.contributors, m
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(accs: &[f32]) -> CurveRecorder {
        let mut r = CurveRecorder::new();
        for (i, &a) in accs.iter().enumerate() {
            r.record(StepMetric {
                step: i,
                mean_accuracy: a,
                mean_loss: 1.0 - a,
                contributors: 10,
            });
        }
        r
    }

    #[test]
    fn moving_average_smooths() {
        let r = curve(&[0.0, 1.0, 0.0, 1.0]);
        let ma = r.moving_average(2);
        assert_eq!(ma, vec![0.0, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let r = curve(&[0.1, 0.9, 0.4]);
        for (a, b) in r.moving_average(1).iter().zip([0.1f32, 0.9, 0.4]) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn steps_to_reach_finds_first_crossing() {
        let r = curve(&[0.1, 0.2, 0.6, 0.7]);
        assert_eq!(r.steps_to_reach(0.5, 1), Some(2));
        assert_eq!(r.steps_to_reach(0.99, 1), None);
    }

    #[test]
    fn tail_and_final() {
        let r = curve(&[0.0, 0.5, 1.0]);
        assert_eq!(r.tail_accuracy(2), Some(0.75));
        assert!(r.final_accuracy(3).expect("non-empty") > 0.4);
        assert_eq!(CurveRecorder::new().tail_accuracy(5), None);
    }

    #[test]
    fn csv_output_well_formed() {
        let r = curve(&[0.25, 0.75]);
        let mut buf = Vec::new();
        r.write_csv(&mut buf, 50).expect("write to vec");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("step,"));
        assert!(lines[1].starts_with("0,0.25"));
    }
}
