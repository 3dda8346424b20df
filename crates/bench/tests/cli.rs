//! The `figures` and `diag` front ends answer a missing or malformed flag
//! value with a usage error that names the flag (exit 2), never a panic.

use std::process::Command;

#[test]
fn bad_flag_values_are_usage_errors_not_panics() {
    let cases: [(&str, &[&str], &str); 3] = [
        (env!("CARGO_BIN_EXE_figures"), &["fig9", "--instrs"], "--instrs"),
        (env!("CARGO_BIN_EXE_figures"), &["fig9", "--instrs", "abc"], "--instrs"),
        (env!("CARGO_BIN_EXE_diag"), &["--threads", "x"], "--threads"),
    ];
    for (bin, args, flag) in cases {
        let out = Command::new(bin).args(args).output().expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
