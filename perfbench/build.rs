//! Records the compiler version for the run envelope.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("rustc n/a".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
}
