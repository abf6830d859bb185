//! Keeps the host's CPUs from going idle while a run measures.
//!
//! The Spark and GPU simulators model delays with short sleeps and hand
//! work between threads, so an instance wakes threads many times. On a
//! virtual machine an idle virtual CPU halts, and waking it again waits
//! for the hypervisor to schedule it: on a shared host that wait swings
//! from microseconds to milliseconds from one minute to the next. On a
//! 2-vCPU virtual machine it moved hcv-grid's median job latency between
//! 71 and 138 ms over runs of the same code. One spinning thread per CPU
//! at `SCHED_IDLE` priority keeps every CPU running without taking time
//! from the program: the kernel runs an idle-priority thread only when
//! nothing else is runnable on its CPU and preempts it as soon as another
//! thread wakes there.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// `SCHED_IDLE` of `sched_setscheduler(2)`.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false if the kernel refused.
fn make_idle_priority() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` for the duration of
    // the call, and pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Idle-priority spinning threads, stopped and joined on drop.
pub struct KeepAwake {
    /// Threads that got idle priority and spin.
    pub spinning: usize,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinning thread per CPU. A thread whose priority cannot
    /// be lowered exits at once rather than compete with the program.
    pub fn start(cpus: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let threads = (0..cpus)
            .map(|_| {
                let (stop, tx) = (stop.clone(), tx.clone());
                std::thread::spawn(move || {
                    let idle = make_idle_priority();
                    tx.send(idle).ok();
                    if !idle {
                        return;
                    }
                    // Plain arithmetic, not a pause-instruction spin, which a
                    // hypervisor may take for lock contention and deschedule.
                    let mut x = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..1000 {
                            x = black_box(
                                x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1),
                            );
                        }
                    }
                })
            })
            .collect();
        let spinning = rx.iter().take(cpus).filter(|&idle| idle).count();
        Self {
            spinning,
            stop,
            threads,
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            t.join().ok();
        }
    }
}
