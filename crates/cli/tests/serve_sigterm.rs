//! SIGTERM drains a running `ppchecker serve` the way `POST /shutdown`
//! does: the daemon stops accepting, finishes, and exits 0.

use ppchecker_serve::Client;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// The daemon process, killed if the test fails before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn sigterm_drains_the_daemon_and_exits_cleanly() {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_ppchecker"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ppchecker serve"),
    );

    // The bound address is on the `listening on http://ADDR (...)` line.
    let mut stderr = BufReader::new(daemon.0.stderr.take().expect("piped stderr"));
    let mut addr = None;
    let mut line = String::new();
    while addr.is_none() && stderr.read_line(&mut line).expect("read stderr") > 0 {
        addr = line
            .split_once("listening on http://")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .map(str::to_string);
        line.clear();
    }
    let addr = addr.expect("the daemon reports its address on stderr");
    // Keep draining stderr so the daemon never blocks on a full pipe.
    let rest_of_stderr = thread::spawn(move || {
        let mut rest = String::new();
        let _ = stderr.read_to_string(&mut rest);
        rest
    });

    let mut client = Client::connect(addr.as_str()).expect("connect to the daemon");
    let (status, body) = client.healthz().expect("healthz answers");
    assert_eq!(status, 200, "body: {body}");
    drop(client);

    let killed = Command::new("kill")
        .args(["-TERM", &daemon.0.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -TERM failed");

    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(Instant::now() < deadline, "daemon still running 5 s after SIGTERM");
        thread::sleep(Duration::from_millis(10));
    };
    let mut stdout = String::new();
    daemon.0.stdout.take().expect("piped stdout").read_to_string(&mut stdout).expect("read stdout");
    let stderr = rest_of_stderr.join().expect("stderr reader");
    assert!(status.success(), "exit status {status}; stderr: {stderr}");
    assert!(stdout.contains("serve: drained"), "stdout: {stdout}");
}
