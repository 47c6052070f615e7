//! Records build provenance (compiler version, profile, optimisation
//! level) so every benchmark result names the build that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    for var in ["PROFILE", "OPT_LEVEL"] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env=E2EBENCH_{var}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
