//! `malsd` — the persistent scheduling daemon binary.
//!
//! ```text
//! malsd [--addr HOST:PORT] [--queue N] [--batch N] [--threads N]
//! ```
//!
//! Binds the address (default `127.0.0.1:0` — a free port), prints
//! `listening on HOST:PORT` on stdout (scripts parse this line to find the
//! port), and serves the newline-delimited JSON protocol documented in
//! `mals_experiments::daemon` until SIGTERM / SIGINT (ctrl-c) or an in-band
//! `{"op":"shutdown"}` frame starts a graceful shutdown: stop accepting,
//! refuse new admissions with `queue_full`, drain queued work, exit 0.
//! `--threads` is the thread budget a portfolio request races its members
//! on (default: all cores); every other solve is sequential.

use mals_experiments::daemon::{Daemon, DaemonConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Tripped by the signal handler; the main loop polls it.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one relaxed atomic store, nothing else.
    SIGNALLED.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGINT (2) and SIGTERM (15) via libc's
/// `signal`, which std already links — no new dependency.
fn install_signal_handlers() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    for signum in [2, 15] {
        unsafe {
            signal(signum, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("malsd: {message}");
    std::process::exit(2);
}

fn main() {
    let mut config = DaemonConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .unwrap_or_else(|| fail(format!("{arg} expects {what}")))
                .clone()
        };
        match arg.as_str() {
            "--addr" => config.addr = value("HOST:PORT"),
            "--queue" => {
                config.queue_capacity = value("a positive integer")
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| fail("--queue expects a positive integer"))
            }
            "--batch" => {
                config.batch_max = value("a positive integer")
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| fail("--batch expects a positive integer"))
            }
            "--threads" => {
                config.threads = value("an integer")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads expects an integer"))
            }
            "--help" | "-h" => {
                println!("usage: malsd [--addr HOST:PORT] [--queue N] [--batch N] [--threads N]");
                return;
            }
            other => fail(format!("unknown argument `{other}` (try --help)")),
        }
    }

    install_signal_handlers();
    let handle = Daemon::start(config).unwrap_or_else(|e| fail(format!("cannot bind: {e}")));
    // Scripts parse this exact line to discover the port (`--addr :0`).
    println!("listening on {}", handle.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    while !SIGNALLED.load(Ordering::Relaxed) && !handle.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("malsd: shutting down (draining queued work)");
    handle.shutdown();
    handle.join();
}
