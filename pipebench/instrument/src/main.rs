//! Writes the copy of the `qra` crates that the traced replay is built
//! against, with a span probe at the entry of chosen public functions.
//!
//! ```text
//! qra-pipebench-instrument <repository root> <output directory>
//! ```
//!
//! Copies the workspace manifest, `crates/`, and the benchmark's own
//! `Cargo.toml`, `src/` and `probe/` to the same relative paths under the
//! output directory. Each function in `SITES` gains one first statement,
//! `let _qra_probe = ::qra_probe::enter("<span>");`, whose guard closes
//! the span when the function returns, and each crate with a site gains a
//! `qra-probe` dependency. Nothing else changes, so the replay runs the
//! program's own code. Files are written only when their content changes,
//! so cargo rebuilds only what changed. A site that no longer matches
//! exactly once is named on stderr and left out: its layer then reads 0
//! and its time counts toward its caller's span.

use std::path::Path;

/// One probe: the function whose header (text up to its parameter list)
/// appears once in `file`, the span it opens, and any further statement
/// run on entry, which is added only while the signature still declares
/// the parameter it reads.
struct Site {
    file: &'static str,
    header: &'static str,
    span: &'static str,
    extra: &'static str,
    param: &'static str,
}

const fn site(file: &'static str, header: &'static str, span: &'static str) -> Site {
    Site {
        file,
        header,
        span,
        extra: "",
        param: "",
    }
}

const SITES: [Site; 21] = [
    site(
        "crates/math/src/gram_schmidt.rs",
        "pub fn complete_basis(",
        "math.complete_basis",
    ),
    site(
        "crates/math/src/eigen.rs",
        "pub fn hermitian_eigen(",
        "math.hermitian_eigen",
    ),
    site(
        "crates/circuit/src/qasm_parser.rs",
        "pub fn from_qasm(",
        "circuit.from_qasm",
    ),
    Site {
        file: "crates/circuit/src/cost.rs",
        header: "pub fn of(",
        span: "circuit.gate_counts",
        // Every candidate circuit synthesis builds is costed here.
        extra: "::qra_probe::count_within(\"core.insert_assertion\", \
                \"circuit.candidate_instructions\", circuit.len() as u64);",
        param: "circuit: &Circuit",
    },
    site(
        "crates/core/src/spec.rs",
        "pub fn correct_states(",
        "core.correct_states",
    ),
    site(
        "crates/core/src/plan.rs",
        "pub fn build(",
        "core.plan_build",
    ),
    site(
        "crates/core/src/swap.rs",
        "pub fn build_swap_assertion(",
        "core.build_swap",
    ),
    site(
        "crates/core/src/logical_or.rs",
        "pub fn build_or_assertion(",
        "core.build_or",
    ),
    site(
        "crates/core/src/ndd.rs",
        "pub fn build_ndd_assertion(",
        "core.build_ndd",
    ),
    site(
        "crates/core/src/assertion.rs",
        "pub fn insert_assertion(",
        "core.insert_assertion",
    ),
    site(
        "crates/core/src/baselines.rs",
        "pub fn statistical_assertion(",
        "core.statistical_assertion",
    ),
    site(
        "crates/sim/src/cache.rs",
        "pub fn compile_statevector(",
        "sim.sv_compile",
    ),
    site(
        "crates/sim/src/exec.rs",
        "pub fn compile(",
        "sim.sv_compile",
    ),
    site(
        "crates/sim/src/statevector.rs",
        "pub fn run_compiled(",
        "sim.sv_run",
    ),
    site(
        "crates/sim/src/cache.rs",
        "pub fn compile_density(",
        "sim.density_compile",
    ),
    site(
        "crates/sim/src/exec_density.rs",
        "pub fn compile(",
        "sim.density_compile",
    ),
    Site {
        file: "crates/sim/src/density.rs",
        header: "pub fn run_compiled(",
        span: "sim.density_run",
        extra: "::qra_probe::count(\"sim.density_ops\", program.op_count() as u64);",
        param: "program: &CompiledDensityProgram",
    },
    site(
        "crates/faults/src/inject.rs",
        "pub fn enumerate_single(",
        "faults.enumerate_single",
    ),
    site(
        "crates/faults/src/sweep.rs",
        "pub fn run_sweep(",
        "faults.run_sweep",
    ),
    site(
        "crates/faults/src/sweep.rs",
        "pub fn to_json(",
        "faults.report_json",
    ),
    site(
        "crates/cli/src/lib.rs",
        "pub fn parse_state(",
        "cli.parse_state",
    ),
];

/// The dependency line added to a probed crate's `[dependencies]`.
const PROBE_DEP: &str = "qra-probe = { path = \"../../pipebench/probe\" }";

/// Inserts the probes for `file` into `text`, naming any site that does
/// not match exactly once.
fn instrument(file: &str, mut text: String) -> String {
    for s in SITES.iter().filter(|s| s.file == file) {
        let found: Vec<usize> = text.match_indices(s.header).map(|(i, _)| i).collect();
        // Signatures of the probed functions hold no braces, so the body
        // opens at the first `{` after the header.
        let body = match found[..] {
            [at] => text[at..].find('{').map(|b| (at, at + b + 1)),
            _ => None,
        };
        let Some((at, body)) = body else {
            eprintln!(
                "instrument: '{}' matches {} times in {file}; span {} left out",
                s.header,
                found.len(),
                s.span
            );
            continue;
        };
        let mut probe = format!("\n    let _qra_probe = ::qra_probe::enter(\"{}\");", s.span);
        if !s.extra.is_empty() {
            if text[at..body].contains(s.param) {
                probe = format!("{probe}\n    {}", s.extra);
            } else {
                eprintln!(
                    "instrument: {file} '{}' no longer takes '{}'; its count is left out",
                    s.header, s.param
                );
            }
        }
        text.insert_str(body, &probe);
    }
    text
}

/// Adds the probe dependency to a crate manifest.
fn add_dependency(file: &str, text: String) -> String {
    match text.find("\n[dependencies]\n") {
        Some(at) => {
            let end = at + "\n[dependencies]\n".len();
            format!("{}{PROBE_DEP}\n{}", &text[..end], &text[end..])
        }
        None => {
            eprintln!("instrument: {file} has no [dependencies] table");
            text
        }
    }
}

fn probed_crate(file: &str) -> bool {
    SITES.iter().any(|s| {
        file.strip_suffix("Cargo.toml")
            .is_some_and(|dir| s.file.starts_with(dir))
    })
}

/// Writes `bytes` to `path` unless it already holds them.
fn write_if_changed(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if std::fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, bytes)
}

/// Every file under `dir`, as paths relative to `root` with `/` separators.
fn files(root: &Path, dir: &str, out: &mut Vec<String>) -> std::io::Result<()> {
    let path = root.join(dir);
    if path.is_file() {
        out.push(dir.to_string());
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(&path)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_str().ok_or("non-UTF-8 file name").map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e} in {dir}"))
        })?;
        files(root, &format!("{dir}/{name}"), out)?;
    }
    Ok(())
}

fn run(root: &Path, out: &Path) -> std::io::Result<()> {
    let mut list = Vec::new();
    for dir in [
        "Cargo.toml",
        "crates",
        "pipebench/Cargo.toml",
        "pipebench/src",
        "pipebench/probe",
    ] {
        files(root, dir, &mut list)?;
    }
    for file in &list {
        let bytes = std::fs::read(root.join(file))?;
        let bytes = if file.ends_with(".rs") && SITES.iter().any(|s| s.file == file) {
            instrument(file, String::from_utf8_lossy(&bytes).into_owned()).into_bytes()
        } else if file.starts_with("crates/") && probed_crate(file) {
            add_dependency(file, String::from_utf8_lossy(&bytes).into_owned()).into_bytes()
        } else {
            bytes
        };
        write_if_changed(&out.join(file), &bytes)?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [root, out] = &args[..] else {
        eprintln!("usage: qra-pipebench-instrument <repository root> <output directory>");
        std::process::exit(2);
    };
    if let Err(e) = run(Path::new(root), Path::new(out)) {
        eprintln!("instrument: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_open_the_body_and_manifests_gain_the_dependency() {
        let src = "/// Doc.\npub fn run_compiled(\n    &self,\n    program: &CompiledDensityProgram,\n) -> R {\n    body()\n}\n";
        let out = instrument("crates/sim/src/density.rs", src.to_string());
        assert_eq!(
            out,
            "/// Doc.\npub fn run_compiled(\n    &self,\n    program: &CompiledDensityProgram,\n) -> R {\n    \
             let _qra_probe = ::qra_probe::enter(\"sim.density_run\");\n    \
             ::qra_probe::count(\"sim.density_ops\", program.op_count() as u64);\n    body()\n}\n"
        );
        // A renamed parameter keeps the span and drops the count.
        let renamed = src.replace("program:", "compiled:");
        assert_eq!(
            instrument("crates/sim/src/density.rs", renamed.clone()),
            renamed.replace(
                "-> R {\n",
                "-> R {\n    let _qra_probe = ::qra_probe::enter(\"sim.density_run\");\n"
            )
        );
        // A header that matches twice is left alone.
        let twice = "pub fn run_compiled() {}\npub fn run_compiled() {}\n";
        assert_eq!(instrument("crates/sim/src/density.rs", twice.into()), twice);
        let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nqra.workspace = true\n";
        assert_eq!(
            add_dependency("crates/cli/Cargo.toml", manifest.into()),
            format!(
                "[package]\nname = \"x\"\n\n[dependencies]\n{PROBE_DEP}\nqra.workspace = true\n"
            )
        );
        assert!(probed_crate("crates/cli/Cargo.toml"));
        assert!(!probed_crate("crates/orch/Cargo.toml"));
    }
}
