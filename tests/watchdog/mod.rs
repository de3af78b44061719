//! A per-test watchdog for the threaded suites: if a test is still
//! running after [`LIMIT`], it prints where the test was — worker count,
//! walk placement, epoch — and fails the whole process.

use std::io::Write as _;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crimes_checkpoint::resident::Placement;

/// How long one watched test may run.
const LIMIT: Duration = Duration::from_secs(60);

/// Watches one test until dropped.
pub(crate) struct Watchdog {
    /// Worker count, placement and epoch the test is at.
    progress: Arc<Mutex<(usize, Placement, u64)>>,
    /// Dropped first, which wakes the thread to end quietly.
    done: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching the test named `test`.
    pub(crate) fn start(test: &'static str) -> Watchdog {
        let progress = Arc::new(Mutex::new((0, Placement::Free, 0)));
        let (done, finished) = mpsc::channel::<()>();
        let seen = Arc::clone(&progress);
        let watch = move || {
            if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(LIMIT) {
                let (workers, placement, epoch) = *seen.lock().unwrap_or_else(PoisonError::into_inner);
                // Straight to stderr: the harness would drop a captured
                // `eprintln!` with the process.
                let report = format!("watchdog: {test} still running after {LIMIT:?}: {workers} workers, {placement:?}, epoch {epoch}\n");
                let _ = std::io::stderr().write_all(report.as_bytes());
                std::process::exit(101);
            }
        };
        #[allow(clippy::disallowed_methods, reason = "the watchdog must not depend on the pools it watches")]
        let thread = std::thread::Builder::new().name(format!("watchdog-{test}")).spawn(watch);
        Watchdog { progress, done: Some(done), thread: Some(thread.expect("start the watchdog")) }
    }

    /// The test is at `epoch` of a run on `workers` pause workers, its
    /// lent jobs placed by `placement`.
    pub(crate) fn at(&self, workers: usize, placement: Placement, epoch: u64) {
        *self.progress.lock().unwrap_or_else(PoisonError::into_inner) = (workers, placement, epoch);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.take();
        let _ = self.thread.take().map(JoinHandle::join);
    }
}
