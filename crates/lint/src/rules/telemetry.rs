//! `telemetry-completeness` — every observable event is kept, and
//! every kept metric is documented.
//!
//! The workspace splits observability in two: `pm_systolic::telemetry`
//! owns the `TraceEvent` taxonomy (*what can be observed*) and
//! `pm_chip::telemetry`'s `MetricsRegistry` folds the stream into
//! counters (*what is kept*). Nothing but convention ties them
//! together: the registry's fold is a `match` with a `_ => {}` arm, so
//! adding a `TraceEvent` variant without a fold arm compiles cleanly
//! and silently drops the new signal — the exact drift this rule
//! forbids. PR 8 added five serve events and seven counters by hand;
//! the next person gets a diagnostic instead of a review comment.
//!
//! Checks:
//!
//! 1. every variant of the `enum TraceEvent` declaration is named as a
//!    `TraceEvent::Variant` pattern in the file that implements
//!    `TraceSink for MetricsRegistry`;
//! 2. every exported metric name (a string literal of the shape
//!    `pm_[a-z0-9_]+` in the registry file) appears in
//!    `ARCHITECTURE.md`;
//! 3. where such a name literal is followed by a string literal — a
//!    `field: "pm_name", "help"` row of the registry's `metrics!`
//!    table — the ARCHITECTURE.md table row holding `` `pm_name` ``
//!    contains that help text verbatim, so the documented meaning
//!    cannot drift from the exported `# HELP` line. (The exporters are
//!    generated from the same table, so exposition coverage is
//!    structural; the doc is the part that needs proving.)
//!
//! Every check locates its subjects by content, so fixtures model the
//! contract in one file.

use super::{enum_variants, find_seq, Rule};
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::workspace::Workspace;

/// See the module docs.
pub struct TelemetryCompleteness;

impl Rule for TelemetryCompleteness {
    fn name(&self) -> &'static str {
        "telemetry-completeness"
    }

    fn description(&self) -> &'static str {
        "every TraceEvent variant folds into the MetricsRegistry and every \
         exported pm_* metric is documented in ARCHITECTURE.md with its help text"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        // The taxonomy: the file declaring `enum TraceEvent`.
        let decl = ws
            .files
            .iter()
            .find_map(|f| find_seq(&f.lexed.tokens, 0, &["enum", "TraceEvent"]).map(|kw| (f, kw)));
        // The fold: the file implementing `TraceSink for MetricsRegistry`.
        let fold = ws.files.iter().find(|f| {
            find_seq(&f.lexed.tokens, 0, &["TraceSink", "for", "MetricsRegistry"]).is_some()
        });
        if let (Some((decl_file, kw)), Some(fold_file)) = (decl, fold) {
            for (variant, line) in enum_variants(&decl_file.lexed.tokens, kw) {
                if find_seq(&fold_file.lexed.tokens, 0, &["TraceEvent", "::", &variant]).is_none() {
                    out.push(Finding {
                        rule: self.name(),
                        file: decl_file.rel.clone(),
                        line,
                        message: format!(
                            "TraceEvent::{variant} has no fold arm in {}; the registry \
                             silently drops it (add a counter or an explicit arm)",
                            fold_file.rel
                        ),
                    });
                }
            }
        }

        // Metric-name documentation coverage.
        let Some(arch) = ws.doc("ARCHITECTURE.md") else {
            return; // fixture mode: no doc to check against
        };
        let Some(fold_file) = fold else { return };
        let tokens = &fold_file.lexed.tokens;
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Str || !is_metric_name(&t.text) {
                continue;
            }
            let message = if !arch.contains(&t.text) {
                format!(
                    "exported metric `{}` is not documented in ARCHITECTURE.md's \
                     metrics table",
                    t.text
                )
            } else if let Some(help) = help_after(tokens, i).filter(|h| !row_has(arch, &t.text, h))
            {
                format!(
                    "ARCHITECTURE.md's row for `{}` does not carry its help text \
                     \"{help}\"",
                    t.text
                )
            } else {
                continue;
            };
            out.push(Finding {
                rule: self.name(),
                file: fold_file.rel.clone(),
                line: t.line,
                message,
            });
        }
    }
}

/// The help literal of a `"pm_name", "help"` pair: the string literal
/// after the name, past an optional comma.
fn help_after(tokens: &[Token], name: usize) -> Option<&str> {
    let mut next = tokens.get(name + 1)?;
    if next.kind == TokenKind::Punct && next.text == "," {
        next = tokens.get(name + 2)?;
    }
    (next.kind == TokenKind::Str).then_some(next.text.as_str())
}

/// Whether some markdown table row of `doc` names `` `metric` `` and
/// contains `help`.
fn row_has(doc: &str, metric: &str, help: &str) -> bool {
    let cell = format!("`{metric}`");
    doc.lines()
        .any(|l| l.trim_start().starts_with('|') && l.contains(&cell) && l.contains(help))
}

/// Whether a string literal is exactly a metric name (`pm_` + lowercase
/// snake) — filters out exposition fragments and test assertions that
/// merely contain one.
fn is_metric_name(s: &str) -> bool {
    s.strip_prefix("pm_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::workspace::SourceFile;

    #[test]
    fn metric_name_shape() {
        assert!(is_metric_name("pm_chars_total"));
        assert!(is_metric_name("pm_batch_micros"));
        assert!(!is_metric_name("pm_chars_total 42")); // exposition row
        assert!(!is_metric_name("pm_")); // empty tail
        assert!(!is_metric_name("PM_SIMD")); // env var
        assert!(!is_metric_name("pm_chars_total\": 1")); // JSON fragment
    }

    /// Findings for a one-file registry whose table declares
    /// `pm_chars_total` against an ARCHITECTURE.md holding `row`.
    fn findings_with_row(row: &str) -> Vec<Finding> {
        let text = "impl TraceSink for MetricsRegistry {}\n\
                    metrics! { counters { chars: \"pm_chars_total\", \"Text characters processed.\"; } }\n";
        let ws = Workspace {
            files: vec![SourceFile {
                rel: "telemetry.rs".into(),
                crate_name: "demo".into(),
                text: text.into(),
                lexed: lex(text),
                suppressions: Vec::new(),
            }],
            docs: vec![(
                "ARCHITECTURE.md".into(),
                format!("| metric | help |\n|---|---|\n{row}\n"),
            )],
            grammar_findings: Vec::new(),
        };
        let mut out = Vec::new();
        TelemetryCompleteness.check(&ws, &mut out);
        out
    }

    #[test]
    fn documented_row_must_carry_the_help_text() {
        assert!(findings_with_row("| `pm_chars_total` | Text characters processed. |").is_empty());
        let drifted = findings_with_row("| `pm_chars_total` | text characters scanned |");
        assert_eq!(drifted.len(), 1, "{drifted:?}");
        assert!(
            drifted[0].message.contains("help text"),
            "{}",
            drifted[0].message
        );
        let missing = findings_with_row("| `pm_other_total` | Text characters processed. |");
        assert_eq!(missing.len(), 1, "{missing:?}");
        assert!(
            missing[0].message.contains("not documented"),
            "{}",
            missing[0].message
        );
    }
}
