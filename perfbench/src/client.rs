//! Process-level plumbing: a minimal HTTP/1.1 client, the `aalign
//! serve` daemon as a child process, and peak-memory readings.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(60);
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// One request over its own connection (the daemon closes after each
/// response). Returns the status code and body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = || io::Error::other("malformed HTTP response");
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    let (_, payload) = response.split_once("\r\n\r\n").ok_or_else(bad)?;
    Ok((status, payload.to_string()))
}

/// A running `aalign serve` HTTP daemon. Dropping it kills and reaps
/// the process; [`Daemon::stop`] drains it gracefully instead.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Exec `aalign serve` on `db` with `threads` engine threads and
    /// wait for the first `200` on `/v1/health`. Returns the daemon and
    /// the exec → ready time.
    pub fn start(
        aalign: &Path,
        db: &Path,
        threads: usize,
        log: &Path,
    ) -> io::Result<(Self, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(aalign)
            .arg("serve")
            .arg("--db")
            .arg(db)
            .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "daemon exited before listening; see {}",
                    log.display()
                )));
            }
            if let Some((_, a)) = line.trim().split_once("http://") {
                break a.to_string();
            }
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        loop {
            if let Ok((200, _)) = http(&daemon.addr, "GET", "/v1/health", "") {
                return Ok((daemon, t0.elapsed()));
            }
            if t0.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("daemon never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: `POST /v1/shutdown`, then wait for the exit.
    pub fn stop(mut self) -> io::Result<()> {
        let _ = http(&self.addr, "POST", "/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("daemon did not drain within 20 s"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB; `None` for the
/// calling process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
