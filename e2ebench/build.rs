//! Records the version of the compiler building the benchmark, for the
//! host fingerprint every result set carries.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    println!("cargo:rustc-env=E2EBENCH_RUSTC={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
