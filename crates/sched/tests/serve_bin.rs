//! End-to-end tests of the `mfc-serve` *binary*: startup validation
//! exit codes and the full daemon lifecycle over a real socket, exactly
//! as an operator would drive it.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn serve_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mfc-serve")
}

fn sod_case() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../cases/sod.json")
}

fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "mfc_serve_bin_{}_{tag}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Satellite regression: an unwritable --out-dir must be a typed
/// startup failure with exit code 3, *before* any job runs — pre-fix
/// the daemon accepted work and only failed at the first ledger flush.
#[test]
fn unwritable_out_dir_fails_at_startup_with_exit_3() {
    let base = tmp_dir("unwritable");
    // A path *under a regular file* can never be created as a dir.
    let blocker = base.join("blocker");
    fs::write(&blocker, b"not a directory").unwrap();
    let out = Command::new(serve_bin())
        .args([
            "--listen",
            "127.0.0.1:0",
            "--out-dir",
            blocker.join("out").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("writable") || stderr.contains("create") || stderr.contains("directory"),
        "stderr does not explain the failure: {stderr}"
    );
    let _ = fs::remove_dir_all(&base);
}

/// Same contract for an unwritable --ledger path.
#[test]
fn unwritable_ledger_fails_at_startup_with_exit_3() {
    let base = tmp_dir("unwritable_ledger");
    let blocker = base.join("blocker");
    fs::write(&blocker, b"not a directory").unwrap();
    let out = Command::new(serve_bin())
        .args([
            "--listen",
            "127.0.0.1:0",
            "--out-dir",
            base.join("out").to_str().unwrap(),
            "--ledger",
            blocker.join("deep/ledger.jsonl").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = fs::remove_dir_all(&base);
}

/// Full daemon lifecycle against the real binary: bind on an ephemeral
/// port, submit a job over TCP, drain, exit 0, complete ledger on disk.
#[test]
fn daemon_end_to_end_over_tcp() {
    let out_dir = tmp_dir("e2e");
    let ledger = out_dir.join("ledger.jsonl");
    let mut child = Command::new(serve_bin())
        .args([
            "--listen",
            "127.0.0.1:0",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--ledger",
            ledger.to_str().unwrap(),
            "--budget",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // The bound address is announced on stdout (line-buffered).
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        if stdout.read_line(&mut line).unwrap() == 0 {
            let mut err = String::new();
            child
                .stderr
                .take()
                .unwrap()
                .read_to_string(&mut err)
                .unwrap();
            panic!("daemon exited before announcing its address: {err}");
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };

    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |line: &str| -> serde_json::Value {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };

    let v = roundtrip(r#"{"cmd":"ping"}"#);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");

    let submit = format!(
        r#"{{"cmd":"submit","job":{{"case":{},"name":"wire","max_steps":6}}}}"#,
        serde_json::to_string(&Path::new(sod_case())).unwrap()
    );
    let v = roundtrip(&submit);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
    let id = v.get("id").and_then(|i| i.as_u64()).unwrap();

    let v = roundtrip(r#"{"cmd":"drain"}"#);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");

    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "daemon did not exit 0 after drain");

    // The ledger records the streamed job as done with its checkpoint.
    let text = fs::read_to_string(&ledger).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "ledger: {text}");
    let rec: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(rec.get("id").and_then(|i| i.as_u64()), Some(id));
    assert_eq!(
        rec.get("state").and_then(|s| s.as_str()),
        Some("done"),
        "{rec:?}"
    );
    assert_eq!(rec.get("steps").and_then(|s| s.as_u64()), Some(6));
    let ckpt = rec
        .get("output")
        .and_then(|o| o.as_str())
        .expect("done job records its checkpoint path");
    assert!(Path::new(ckpt).is_file(), "missing checkpoint {ckpt}");
    let _ = fs::remove_dir_all(&out_dir);
}
