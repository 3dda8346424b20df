//! The `figures` front end answers a missing or malformed flag value with
//! a usage error that names the flag (exit 2), never a panic, and its
//! test-size text is pinned by a golden file.

use std::process::Command;

#[test]
fn bad_flag_values_are_usage_errors_not_panics() {
    let cases: [(&str, &[&str], &str); 2] = [
        (env!("CARGO_BIN_EXE_figures"), &["fig9", "--instrs"], "--instrs"),
        (env!("CARGO_BIN_EXE_figures"), &["fig9", "--instrs", "abc"], "--instrs"),
    ];
    for (bin, args, flag) in cases {
        let out = Command::new(bin).args(args).output().expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Every experiment's text at test size, byte for byte, against
/// `tests/golden/figures_test.txt` (`BLESS=1` rewrites it after review).
#[test]
fn figures_text_matches_the_golden_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/figures_test.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["all", "--size", "test", "--instrs", "5000"])
        .output()
        .expect("run figures");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("figure text is UTF-8");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (BLESS=1 to generate)"));
    assert_eq!(got, want, "figure text drifted; BLESS=1 to re-bless after review");
}
