//! The server under test: `banks serve` as a child process under an
//! address-space cap, its readiness, and its `/proc` status.

use crate::loadgen::{Client, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to report its address and turn healthy.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `banks serve`.
pub struct Server {
    child: Child,
    /// Copies the server's stderr to its log file until the server ends.
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn to first `200` from `/health`.
    pub setup: Duration,
}

/// Fields of `/proc/<pid>/status`, in KiB and threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStatus {
    pub vm_rss_kib: u64,
    pub vm_hwm_kib: u64,
    pub vm_peak_kib: u64,
    pub threads: u64,
}

impl ProcStatus {
    pub fn parse(text: &str) -> ProcStatus {
        let mut s = ProcStatus::default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let number = value
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            match key {
                "VmRSS" => s.vm_rss_kib = number,
                "VmHWM" => s.vm_hwm_kib = number,
                "VmPeak" => s.vm_peak_kib = number,
                "Threads" => s.threads = number,
                _ => {}
            }
        }
        s
    }
}

impl Server {
    /// Spawn `bin serve <args> --addr 127.0.0.1:0` under `ulimit -v
    /// cap_kib` (core dumps off), block on its stderr until it reports
    /// its address, then wait for `/health` to answer 200. The stderr is
    /// copied to `log`.
    pub fn start(bin: &Path, args: &[String], cap_kib: u64, log: &Path) -> Result<Server, String> {
        let mut log_file =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let started = Instant::now();
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -c 0; ulimit -v {cap_kib}; exec \"$0\" serve \"$@\""
            ))
            .arg(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            let mut reader = BufReader::new(stderr);
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                let _ = log_file.write_all(line.as_bytes());
                if let Some(addr) = reported_addr(&line) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
                line.clear();
            }
        });
        let mut server = Server {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        // The channel closes without an address when the server exits
        // before serving.
        server.addr = match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => addr,
            Err(e) => {
                server.kill();
                let text = std::fs::read_to_string(log).unwrap_or_default();
                return Err(format!("server reported no address ({e}):\n{text}"));
            }
        };
        let mut client = Client::new(server.addr, Duration::from_secs(5));
        loop {
            if matches!(client.send(&Request::get("/health")), Ok((200, _))) {
                break;
            }
            if started.elapsed() > START_TIMEOUT || server.exited() {
                server.kill();
                return Err("server did not turn healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `/proc/<pid>/status`, or `None` once the process is gone.
    pub fn status(&mut self) -> Option<ProcStatus> {
        if self.exited() {
            return None;
        }
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .map(|t| ProcStatus::parse(&t))
    }

    pub fn exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }

    /// GET a path and return the body of a 200.
    pub fn get(&self, target: &str) -> Option<String> {
        match Client::new(self.addr, Duration::from_secs(10)).send(&Request::get(target)) {
            Ok((200, body)) => Some(body),
            _ => None,
        }
    }

    /// Kill the server and wait for it to end.
    pub fn stop(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The address in the server's `serving on http://HOST:PORT` log line.
fn reported_addr(log: &str) -> Option<SocketAddr> {
    let rest = log.split("serving on http://").nth(1)?;
    let addr = rest.split_whitespace().next()?;
    addr.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_log() {
        let s = ProcStatus::parse(
            "Name:\tbanks\nVmPeak:\t  2048 kB\nVmHWM:\t 1500 kB\nVmRSS:\t 1000 kB\nThreads:\t5\n",
        );
        assert_eq!(
            s,
            ProcStatus {
                vm_rss_kib: 1000,
                vm_hwm_kib: 1500,
                vm_peak_kib: 2048,
                threads: 5
            }
        );
        let log = "x INFO  [serve] serving on http://127.0.0.1:40123 (2 workers)\n";
        assert_eq!(reported_addr(log), Some("127.0.0.1:40123".parse().unwrap()));
        assert_eq!(reported_addr("starting"), None);
    }
}
