//! Where a result came from: host, toolchain, source revision, build.

use std::path::Path;

/// Build and host facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Kernel release (`/proc/sys/kernel/osrelease`).
    pub kernel: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Git commit of the source tree, when it is a git checkout.
    pub commit: String,
    /// FNV-1a digest over the library and benchmark sources, which
    /// identifies the revision where there is no git metadata.
    pub source_digest: String,
    /// Cargo profile the benchmark was built with.
    pub profile: String,
    /// Optimisation level of that build.
    pub opt_level: String,
}

impl Provenance {
    /// Collect provenance for the source tree rooted at `root`.
    pub fn collect(root: &Path) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            rustc: env!("E2EBENCH_RUSTC").to_string(),
            commit: git_commit(root).unwrap_or_else(|| "none (not a git checkout)".into()),
            source_digest: format!("{:016x}", source_digest(root)),
            profile: env!("E2EBENCH_PROFILE").to_string(),
            opt_level: env!("E2EBENCH_OPT_LEVEL").to_string(),
        }
    }

    /// True when the benchmark was built without optimisation, where
    /// its timings would describe the compiler settings, not the code.
    pub fn unoptimised(&self) -> bool {
        cfg!(debug_assertions) || self.opt_level == "0"
    }

    /// One human-readable line.
    pub fn line(&self, seed: u64) -> String {
        format!(
            "provenance: nproc={} kernel={} rustc=\"{}\" commit={} source_digest={} seed={} profile={} opt-level={}",
            self.nproc,
            self.kernel,
            self.rustc,
            self.commit,
            self.source_digest,
            seed,
            self.profile,
            self.opt_level
        )
    }
}

/// Read `HEAD` from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Digest of every `.rs`/`.toml` file under the source directories and
/// of the root manifests, visited in sorted order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor", "e2ebench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "e2ebench/Cargo.toml"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path);
        for &b in rel.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
