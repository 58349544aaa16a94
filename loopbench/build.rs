//! Records the toolchain and commit the benchmark was built from, for the
//! provenance every result carries.

use std::process::Command;

fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| String::from("rustc"));
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| String::from("unknown"));
    let commit = output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| String::from("unknown"));
    println!("cargo:rustc-env=LOOPBENCH_RUSTC={version}");
    println!("cargo:rustc-env=LOOPBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
