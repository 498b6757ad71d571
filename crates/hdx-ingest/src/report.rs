//! The ingest data-quality report: what recovery quarantined instead of
//! dying on.

/// What WAL recovery dropped, in the style of hdx-data's
/// `DataQualityReport`: corrupt bytes are counted and explained, never
/// silently discarded and never fatal. Surfaced by `GET /jobs/<id>` and the
/// `hdx append` CLI so operators see dropped frames without reading logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Complete frames dropped from a torn or corrupt open-segment tail.
    pub quarantined_frames: u64,
    /// Bytes moved aside by quarantine (torn tails + corrupt segments).
    pub quarantined_bytes: u64,
    /// Whole sealed segments that failed envelope validation and were
    /// moved aside. Each one is also a [`IngestReport::notes`] line.
    pub quarantined_segments: u64,
    /// One human-readable line per quarantine decision.
    pub notes: Vec<String>,
}

impl IngestReport {
    /// `true` when recovery found nothing to quarantine.
    pub fn is_clean(&self) -> bool {
        self.quarantined_frames == 0
            && self.quarantined_bytes == 0
            && self.quarantined_segments == 0
            && self.notes.is_empty()
    }

    /// Records a quarantine decision.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A one-line operator summary, or `None` when the report is clean.
    pub fn summary(&self) -> Option<String> {
        if self.is_clean() {
            return None;
        }
        Some(format!(
            "ingest quarantine: {} frame(s), {} byte(s), {} sealed segment(s) dropped",
            self.quarantined_frames, self.quarantined_bytes, self.quarantined_segments
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_has_no_summary() {
        let r = IngestReport::default();
        assert!(r.is_clean());
        assert_eq!(r.summary(), None);
    }

    #[test]
    fn dirty_report_summary_renders() {
        let r = IngestReport {
            quarantined_frames: 3,
            quarantined_bytes: 100,
            quarantined_segments: 1,
            notes: vec!["torn tail".into(), "bad segment".into()],
        };
        assert!(!r.is_clean());
        let s = r.summary().expect("dirty report summarises");
        assert!(s.contains("3 frame(s)"), "{s}");
        assert!(s.contains("100 byte(s)"), "{s}");
        assert!(s.contains("1 sealed segment(s)"), "{s}");
    }
}
