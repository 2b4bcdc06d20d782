//! Intra-repo Markdown link checker: every relative link in the
//! top-level docs and the generated reproduction book must point at a
//! file that exists, so the book stays navigable as pages come and go
//! (the `report-smoke` CI job runs this test explicitly).

use std::path::{Path, PathBuf};

/// Extract `](target)` link targets from Markdown, skipping code fences.
fn links(md: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(at) = rest.find("](") {
            rest = &rest[at + 2..];
            if let Some(end) = rest.find(')') {
                out.push(rest[..end].to_string());
                rest = &rest[end + 1..];
            } else {
                break;
            }
        }
    }
    out
}

fn markdown_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = ["README.md", "ROADMAP.md", "CHANGES.md"]
        .iter()
        .map(|f| root.join(f))
        .filter(|p| p.exists())
        .collect();
    for dir in [root.join("docs"), root.join("docs/book")] {
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "md") {
                    files.push(p);
                }
            }
        }
    }
    files.sort();
    files
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let files = markdown_files();
    assert!(
        files.iter().any(|f| f.ends_with("README.md")),
        "README.md must exist"
    );
    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let dir = file.parent().unwrap();
        for link in links(&text) {
            // External and intra-page links are out of scope.
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with('#')
                || link.starts_with("mailto:")
            {
                continue;
            }
            let target = link.split('#').next().unwrap();
            if target.is_empty() {
                continue;
            }
            if !dir.join(target).exists() {
                broken.push(format!("{} -> {link}", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken intra-repo links:\n  {}",
        broken.join("\n  ")
    );
}

#[test]
fn link_extractor_finds_targets_and_skips_fences() {
    let md = "see [a](x.md) and [b](y.md#sec)\n```\n[c](z.md)\n```\n[d](http://e/)";
    let ls = links(md);
    assert_eq!(ls, vec!["x.md", "y.md#sec", "http://e/"]);
}
