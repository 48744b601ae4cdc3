//! `doc-link`: a markdown file named in a Rust comment must exist.
//!
//! Comments that cite a document which was never written (or was since
//! deleted) send the reader nowhere, and nothing else notices: rustdoc
//! only checks intra-doc links, not prose file names. A cited name
//! resolves when the file exists at the repository root or beside the
//! citing source file; a name with `/` in it resolves relative to either
//! place the same way.
//!
//! A cited name is a run of path bytes (`A-Z a-z 0-9 _ . / -`) ending in
//! `.md`, with sentence-ending dots trimmed and at least one alphanumeric
//! byte before the extension, so glob mentions of the extension alone
//! never count. Runs starting with `/` (absolute paths, the tail of a
//! `scheme://` URL) are skipped.

use crate::lexer::TokenKind;
use crate::lint::{Finding, Severity};
use crate::lints::finding_at;
use crate::workspace::Workspace;
use std::path::Path;

const LINT: &str = "doc-link";

pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let beside = Path::new(&file.rel_path)
            .parent()
            .map_or_else(|| ws.root.clone(), |dir| ws.root.join(dir));
        for token in &file.tokens {
            if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            for (offset, name) in md_names(token.text(&file.bytes)) {
                if ws.root.join(&name).is_file() || beside.join(&name).is_file() {
                    continue;
                }
                out.push(finding_at(
                    LINT,
                    Severity::Warn,
                    file,
                    token.start + offset,
                    format!(
                        "comment cites `{name}`, which exists neither at the repository \
                         root nor beside {} — name the paper figure/table or an existing \
                         document instead",
                        file.rel_path
                    ),
                ));
            }
        }
    }
}

/// Every markdown file name cited in `text`, with its byte offset.
fn md_names(text: &[u8]) -> Vec<(usize, String)> {
    let is_path = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'/' | b'-');
    let mut names = Vec::new();
    let mut i = 0;
    while i < text.len() {
        if !is_path(text[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < text.len() && is_path(text[i]) {
            i += 1;
        }
        let mut run = &text[start..i];
        while let Some((b'.', rest)) = run.split_last() {
            run = rest;
        }
        let Some(stem) = run.strip_suffix(b".md") else {
            continue;
        };
        let base = stem.rsplit(|&b| b == b'/').next().unwrap_or(stem);
        if run.starts_with(b"/") || !base.iter().any(u8::is_ascii_alphanumeric) {
            continue;
        }
        names.push((start, String::from_utf8_lossy(run).into_owned()));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(text: &str) -> Vec<(usize, String)> {
        md_names(text.as_bytes())
    }

    #[test]
    fn cited_names_with_offsets() {
        assert_eq!(
            names("// see PERF.md and docs/GUIDE.md."),
            vec![(7, "PERF.md".into()), (19, "docs/GUIDE.md".into())]
        );
        assert_eq!(
            names("/// (the index in `DESIGN.md` §5)"),
            vec![(19, "DESIGN.md".into())]
        );
        assert_eq!(
            names("//! ROADMAP.md's open items"),
            vec![(4, "ROADMAP.md".into())]
        );
    }

    #[test]
    fn extensions_urls_and_lookalikes_do_not_count() {
        // The extension alone, or in a glob, names no file.
        assert!(names("// every `*.md` file, or just .md").is_empty());
        // URLs and absolute paths are out of scope.
        assert!(names("// https://example.com/README.md").is_empty());
        assert!(names("// /usr/share/doc/NOTES.md").is_empty());
        // Longer extensions and compound words are not markdown names.
        assert!(names("// page.mdx, README.md-style, x.mdown").is_empty());
    }
}
