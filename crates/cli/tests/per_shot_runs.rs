//! Programs simulated shot by shot, through the real binary: `qra run`
//! prints the same bytes at every `--sim-threads` count, and a campaign
//! routed by `--backend auto` differs from the default routing only in
//! its backend labels.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_qra"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "qra {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qra-per-shot-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes an exact H/CX GHZ-`n` whose last qubit is measured and reset
/// mid-circuit, re-entangled, and then, with `measure_all`, every qubit
/// measured at the end.
fn write_ghz(dir: &Path, name: &str, n: usize, mid_circuit: bool, measure_all: bool) -> String {
    let mut qasm = format!(
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\ncreg c[{}];\nh q[0];\n",
        n + 1
    );
    for q in 0..n - 1 {
        qasm += &format!("cx q[{q}],q[{}];\n", q + 1);
    }
    if mid_circuit {
        let last = n - 1;
        qasm += &format!("measure q[{last}] -> c[{n}];\nreset q[{last}];\ncx q[0],q[{last}];\n");
    }
    if measure_all {
        for q in 0..n {
            qasm += &format!("measure q[{q}] -> c[{q}];\n");
        }
    }
    let path = dir.join(name);
    fs::write(&path, qasm).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn run_output_is_identical_at_every_sim_thread_count() {
    let dir = tmpdir("threads");
    // An ideal mid-circuit program, and a measured 13-qubit program under
    // low noise: past the density engine's 12-qubit ceiling, so it runs
    // on trajectories.
    let ideal = write_ghz(&dir, "mid.qasm", 11, true, true);
    let noisy = write_ghz(&dir, "ghz13.qasm", 13, false, true);
    for (file, extra, shots) in [(&ideal, None, "256"), (&noisy, Some("low"), "48")] {
        let run = |threads: &str| {
            let mut args = vec!["run", file, "--shots", shots, "--seed", "5"];
            if let Some(noise) = extra {
                args.extend(["--noise", noise]);
            }
            args.extend(["--sim-threads", threads]);
            run_ok(&args)
        };
        let base = run("1");
        for threads in ["2", "3", "4"] {
            assert_eq!(base, run(threads), "{file}: --sim-threads {threads}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn auto_backend_campaign_differs_only_in_backend_labels() {
    let dir = tmpdir("auto");
    let file = write_ghz(&dir, "mid.qasm", 3, true, false);
    let campaign = |backend: &str| {
        let args = format!(
            "campaign {file} --state set:0;7 --designs swap,ndd --shots 256 --seed 7 \
             --jobs 2 --backend {backend} --json"
        );
        run_ok(&args.split_whitespace().collect::<Vec<_>>())
    };
    let auto = campaign("auto");
    assert!(auto.contains("\"backend\":\"stabilizer\""), "{auto}");
    let default = campaign("default");
    assert!(!default.contains("\"backend\":\"stabilizer\""), "{default}");
    assert_eq!(
        auto.replace("\"backend\":\"stabilizer\"", "\"backend\":\"statevector\""),
        default
    );
    let _ = fs::remove_dir_all(&dir);
}
