//! The workspace's `unsafe` inventory, checked.
//!
//! Every crate is `#![forbid(unsafe_code)]` or `#![deny(unsafe_code)]` with
//! a function-level `#[allow]` per site; the compiler enforces each crate's
//! own count, this test pins which *files* hold the sites — so the next one
//! is a reviewed edit of the list below, not a drive-by.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The files under `crates/*/src` that may use the `unsafe` keyword:
/// the event slab's cache prefetch, the AVX2 dispatch macro and the
/// PCLMULQDQ dispatch.
const UNSAFE_SITES: [&str; 3] = [
    "kernels/src/simd.rs",
    "sim/src/event.rs",
    "wire/src/clmul.rs",
];

/// Whether `src` uses `unsafe` as a keyword outside `//` comments
/// (`unsafe_code` in a lint attribute is an identifier, not the keyword).
fn uses_unsafe(src: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    src.lines().any(|line| {
        let code = line.split("//").next().unwrap_or("");
        code.match_indices("unsafe")
            .any(|(i, m)| !code[..i].ends_with(ident) && !code[i + m.len()..].starts_with(ident))
    })
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn unsafe_appears_only_at_the_listed_sites() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let src = entry.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "walked only {} files", files.len());

    let found: BTreeSet<String> = files
        .iter()
        .filter(|p| uses_unsafe(&fs::read_to_string(p).expect("readable source file")))
        .map(|p| {
            let rel = p.strip_prefix(&crates).expect("under crates/");
            rel.to_string_lossy().replace('\\', "/")
        })
        .collect();
    let listed: BTreeSet<String> = UNSAFE_SITES.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        found, listed,
        "a new `unsafe` site needs a `// SAFETY:` comment, a function-level \
         `#[allow(unsafe_code)]` and an entry in UNSAFE_SITES"
    );
}

#[test]
fn the_keyword_scan_tells_code_from_comments_and_lints() {
    assert!(uses_unsafe("    return unsafe { f() };"));
    assert!(uses_unsafe("unsafe fn f() {}"));
    assert!(!uses_unsafe("#![deny(unsafe_code)]"));
    assert!(!uses_unsafe("// the unsafe entry point"));
    assert!(!uses_unsafe("let x = 1; // unsafe { }"));
}
