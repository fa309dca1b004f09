//! End-to-end tests of the `lshddp` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lshddp"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lshddp-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("cluster"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown subcommand"));
    assert!(text.contains("USAGE"));
}

#[test]
fn generate_dc_cluster_graph_round_trip() {
    let points = tmp("s2.csv");
    let labels = tmp("s2-labels.csv");
    let graph = tmp("s2-graph.csv");

    // generate
    let out = bin()
        .args([
            "generate",
            "--dataset",
            "s2",
            "--scale",
            "0.1",
            "--seed",
            "7",
            "--labels",
            "--out",
        ])
        .arg(&points)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(points.exists());

    // dc
    let out = bin()
        .args(["dc", "--labeled", "--percentile", "0.05", "--input"])
        .arg(&points)
        .output()
        .expect("run dc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dc: f64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("dc value");
    assert!(dc > 0.0);

    // cluster with LSH-DDP; the file has a label column.
    let out = bin()
        .args([
            "cluster",
            "--labeled",
            "--normalize",
            "--algorithm",
            "lsh",
            "--k",
            "15",
            "--seed",
            "7",
            "--stats",
            "--input",
        ])
        .arg(&points)
        .arg("--out")
        .arg(&labels)
        .output()
        .expect("run cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ARI vs input labels"), "stdout: {text}");
    let label_lines = std::fs::read_to_string(&labels).expect("labels written");
    assert_eq!(label_lines.lines().count(), 500, "one label per point");

    // decision graph
    let out = bin()
        .args(["graph", "--labeled", "--normalize", "--input"])
        .arg(&points)
        .arg("--out")
        .arg(&graph)
        .output()
        .expect("run graph");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let gtext = std::fs::read_to_string(&graph).expect("graph written");
    assert!(gtext.starts_with("id,rho,delta,rectified"));
    assert_eq!(gtext.lines().count(), 501);
}

#[test]
fn cluster_exact_and_kernel_agree_on_easy_data() {
    let points = tmp("blobs.csv");
    // Generate an easy shaped set with labels.
    let out = bin()
        .args([
            "generate",
            "--dataset",
            "spirals",
            "--seed",
            "3",
            "--labels",
            "--out",
        ])
        .arg(&points)
        .output()
        .expect("run generate");
    assert!(out.status.success());

    for (algo, file) in [
        ("exact", "exact-labels.csv"),
        ("kernel", "kernel-labels.csv"),
    ] {
        let lpath = tmp(file);
        let out = bin()
            .args([
                "cluster",
                "--labeled",
                "--algorithm",
                algo,
                "--k",
                "2",
                "--percentile",
                "0.05",
                "--input",
            ])
            .arg(&points)
            .arg("--out")
            .arg(&lpath)
            .output()
            .expect("run cluster");
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        // Both algorithms should recover the spirals nearly perfectly.
        let ari_line = text
            .lines()
            .find(|l| l.contains("ARI"))
            .expect("ARI printed");
        let ari: f64 = ari_line.rsplit(' ').next().unwrap().parse().expect("ari");
        assert!(ari > 0.9, "{algo}: ARI = {ari}");
    }
}

#[test]
fn tune_recommends_grid_parameters() {
    let points = tmp("tune-in.csv");
    let out = bin()
        .args(["generate", "--dataset", "s2", "--scale", "0.2", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    assert!(out.status.success());
    let out = bin()
        .args(["tune", "--accuracy", "0.95", "--normalize", "--input"])
        .arg(&points)
        .output()
        .expect("run tune");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recommended: --m"), "stdout: {text}");
    assert!(text.lines().count() >= 8, "grid table printed");
}

#[test]
fn kmeans_requires_k() {
    let points = tmp("kmeans-in.csv");
    let _ = bin()
        .args(["generate", "--dataset", "moons", "--out"])
        .arg(&points)
        .output()
        .expect("generate");
    let out = bin()
        .args(["cluster", "--algorithm", "kmeans", "--input"])
        .arg(&points)
        .arg("--out")
        .arg(tmp("kmeans-labels.csv"))
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--k is required"));
}

#[test]
fn missing_input_is_a_clean_error() {
    let out = bin()
        .args([
            "cluster",
            "--input",
            "/nonexistent/nope.csv",
            "--out",
            "/tmp/x",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("reading"));
}

/// Runs `lshddp cluster` on a CSV with the given contents and asserts it
/// fails cleanly — an error exit, not a panic (101) — with a message
/// containing `expect`.
fn cluster_rejects(name: &str, csv: &str, expect: &str) {
    rejects(&["cluster"], name, csv, expect);
}

/// Runs `lshddp <args> --input <csv> --out /dev/null --k 2` and asserts a
/// clean failure whose stderr contains `expect`.
fn rejects(args: &[&str], name: &str, csv: &str, expect: &str) {
    let input = tmp(name);
    std::fs::write(&input, csv).unwrap();
    let out = bin()
        .args(args)
        .arg("--input")
        .arg(&input)
        .args(["--out", "/dev/null", "--k", "2"])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{name} {args:?}: must fail");
    assert_ne!(
        out.status.code(),
        Some(101),
        "{name} {args:?} panicked: {stderr}"
    );
    assert!(stderr.contains(expect), "{name} {args:?}: {stderr}");
}

#[test]
fn cluster_rejects_a_nan_cell() {
    cluster_rejects(
        "nan.csv",
        "0,0\n1,NaN\n2,2\n3,3\n",
        "line 2: non-finite value",
    );
}

#[test]
fn cluster_rejects_an_inf_cell() {
    cluster_rejects(
        "inf.csv",
        "0,0\n1,1\ninf,2\n3,3\n",
        "line 3: non-finite value",
    );
}

#[test]
fn cluster_rejects_a_single_point() {
    cluster_rejects("one.csv", "0.5,0.5\n", "need at least 2 points, got 1");
}

/// 200 copies of one point plus 5 others: the sampled d_c quantile is 0.
fn duplicate_heavy_csv() -> String {
    let mut csv = "0.5,0.5\n".repeat(200);
    csv.push_str("0,0\n1,0\n0,1\n1,1\n0.25,0.75\n");
    csv
}

#[test]
fn cluster_rejects_a_zero_dc_for_every_algorithm() {
    for algorithm in ["exact", "basic", "eddpc", "lsh"] {
        let name = format!("dups-{algorithm}.csv");
        let args = ["cluster", "--algorithm", algorithm];
        rejects(&args, &name, &duplicate_heavy_csv(), "quantile is 0");
        let with_flag = [&args[..], &["--dc", "0"]].concat();
        rejects(
            &with_flag,
            &name,
            "0,0\n1,1\n2,2\n",
            "--dc must be positive",
        );
    }
}

/// Three points and a d_c far below their spacing: every density is 0, so
/// no point clears the peak selection's density floor.
const SPARSE_CSV: &str = "0,0\n1,1\n2,2\n";

#[test]
fn cluster_rejects_a_tiny_dc_for_every_algorithm() {
    for algorithm in ["lsh", "basic", "eddpc", "exact"] {
        rejects(
            &["cluster", "--algorithm", algorithm, "--dc", "1e-20"],
            &format!("tiny-dc-{algorithm}.csv"),
            SPARSE_CSV,
            "no density peaks at d_c = 1e-20",
        );
    }
}

#[test]
fn fit_rejects_a_tiny_dc() {
    rejects(
        &["fit", "--dc", "1e-20"],
        "tiny-dc-fit.csv",
        SPARSE_CSV,
        "no density peaks at d_c = 1e-20",
    );
}

#[test]
fn graph_rejects_a_zero_dc() {
    for algorithm in ["exact", "lsh"] {
        let name = format!("dups-graph-{algorithm}.csv");
        let args = ["graph", "--algorithm", algorithm];
        rejects(&args, &name, &duplicate_heavy_csv(), "quantile is 0");
        let with_flag = [&args[..], &["--dc", "0"]].concat();
        rejects(
            &with_flag,
            &name,
            "0,0\n1,1\n2,2\n",
            "--dc must be positive",
        );
    }
}
