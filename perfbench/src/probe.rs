//! Measurements taken from outside the server: per-thread CPU from
//! `/proc/self/task/*/schedstat` grouped by thread name, worker-process
//! CPU, peak RSS, and the server's public counters.

use std::fs;
use std::sync::Arc;

use flash_net::{ServerStats, ShardStats};

/// Thread groups whose CPU the benchmark attributes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    Shard,
    Helper,
    Acceptor,
}

const GROUPS: [(Group, &str); 3] = [
    (Group::Shard, "flash-shard-"),
    (Group::Helper, "flash-helper-"),
    (Group::Acceptor, "flash-acceptor"),
];

/// On-CPU and runqueue-wait nanoseconds.
#[derive(Clone, Copy, Default, Debug)]
pub struct Cpu {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl Cpu {
    pub fn add(&mut self, o: Cpu) {
        self.run_ns += o.run_ns;
        self.wait_ns += o.wait_ns;
    }

    pub fn since(self, before: Cpu) -> Cpu {
        Cpu {
            run_ns: self.run_ns.saturating_sub(before.run_ns),
            wait_ns: self.wait_ns.saturating_sub(before.wait_ns),
        }
    }
}

/// Reads `<dir>/schedstat` (run ns, wait ns); falls back to the
/// tick-granular utime+stime of `<dir>/stat` when schedstat is absent.
/// The flag says whether the fallback was used.
fn task_cpu(dir: &str) -> Option<(Cpu, bool)> {
    if let Ok(s) = fs::read_to_string(format!("{dir}/schedstat")) {
        let mut it = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
        return Some((
            Cpu {
                run_ns: it.next()?,
                wait_ns: it.next()?,
            },
            false,
        ));
    }
    let s = fs::read_to_string(format!("{dir}/stat")).ok()?;
    // Fields after the parenthesised comm; utime and stime are the
    // 14th and 15th fields overall (USER_HZ = 100 ticks per second).
    let rest = &s[s.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some((
        Cpu {
            run_ns: ticks * 10_000_000,
            wait_ns: 0,
        },
        true,
    ))
}

/// CPU of this process's threads, summed per [`Group`].
#[derive(Clone, Copy, Default, Debug)]
pub struct ThreadCpu {
    pub groups: [Cpu; 3],
    /// Tick-granular `stat` was used for some thread.
    pub fallback: bool,
}

impl ThreadCpu {
    pub fn sample() -> ThreadCpu {
        let mut out = ThreadCpu::default();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return out;
        };
        for ent in dir.flatten() {
            let path = format!("/proc/self/task/{}", ent.file_name().to_string_lossy());
            let Ok(comm) = fs::read_to_string(format!("{path}/comm")) else {
                continue;
            };
            let Some(g) = GROUPS
                .iter()
                .position(|(_, p)| comm.trim_end().starts_with(p))
            else {
                continue;
            };
            if let Some((cpu, fb)) = task_cpu(&path) {
                out.groups[g].run_ns += cpu.run_ns;
                out.groups[g].wait_ns += cpu.wait_ns;
                out.fallback |= fb;
            }
        }
        out
    }

    pub fn get(&self, g: Group) -> Cpu {
        self.groups[GROUPS
            .iter()
            .position(|(x, _)| *x == g)
            .expect("every group is listed")]
    }

    /// On-CPU ns of every server thread.
    pub fn server_run_ns(&self) -> u64 {
        self.groups.iter().map(|c| c.run_ns).sum()
    }

    pub fn add(&mut self, o: &ThreadCpu) {
        for (a, b) in self.groups.iter_mut().zip(&o.groups) {
            a.add(*b);
        }
        self.fallback |= o.fallback;
    }

    pub fn since(&self, before: &ThreadCpu) -> ThreadCpu {
        let mut out = *self;
        for (o, b) in out.groups.iter_mut().zip(&before.groups) {
            *o = o.since(*b);
        }
        out.fallback |= before.fallback;
        out
    }
}

/// CPU of the calling thread.
pub fn own_cpu() -> Cpu {
    task_cpu("/proc/thread-self")
        .map(|(c, _)| c)
        .unwrap_or_default()
}

/// Summed CPU of the live processes whose pids are listed (one per
/// line) in `pid_file`.
pub fn workers_cpu(pid_file: &std::path::Path) -> Cpu {
    let Ok(text) = fs::read_to_string(pid_file) else {
        return Cpu::default();
    };
    let mut sum = Cpu::default();
    for pid in text.lines().filter_map(|l| l.trim().parse::<u32>().ok()) {
        if let Some((c, _)) = task_cpu(&format!("/proc/{pid}")) {
            sum.run_ns += c.run_ns;
            sum.wait_ns += c.wait_ns;
        }
    }
    sum
}

/// Host-wide CPU ticks from `/proc/stat`, reusing [`Cpu`]'s fields:
/// `run_ns` holds the ticks stolen by the hypervisor, `wait_ns` all
/// ticks. Their ratio over an interval is the steal share.
pub fn host_steal() -> Cpu {
    let s = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = s
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Cpu {
        run_ns: ticks.get(7).copied().unwrap_or(0),
        wait_ns: ticks.iter().take(8).sum(),
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let s = fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

macro_rules! counters {
    ($($name:ident),* $(,)?) => {
        /// A snapshot of the server's cumulative counters.
        #[derive(Clone, Copy, Default, Debug)]
        pub struct Counters {
            $(pub $name: u64,)*
            pub phase_accept_us: u64,
            pub phase_read_us: u64,
            pub phase_respond_us: u64,
            pub phase_completions_us: u64,
            pub phase_timers_us: u64,
        }

        impl Counters {
            pub fn read(s: &ServerStats) -> Counters {
                let sum = |f: fn(&ShardStats) -> u64| -> u64 {
                    s.per_shard().iter().map(|sh: &Arc<ShardStats>| f(sh)).sum()
                };
                use std::sync::atomic::Ordering::Relaxed;
                Counters {
                    $($name: s.$name(),)*
                    phase_accept_us: sum(|x| x.phase_accept_us.load(Relaxed)),
                    phase_read_us: sum(|x| x.phase_read_us.load(Relaxed)),
                    phase_respond_us: sum(|x| x.phase_respond_us.load(Relaxed)),
                    phase_completions_us: sum(|x| x.phase_completions_us.load(Relaxed)),
                    phase_timers_us: sum(|x| x.phase_timers_us.load(Relaxed)),
                }
            }

            /// Sums two deltas (gauges take `o`'s value).
            pub fn add(&mut self, o: &Counters) {
                $(self.$name += o.$name;)*
                self.phase_accept_us += o.phase_accept_us;
                self.phase_read_us += o.phase_read_us;
                self.phase_respond_us += o.phase_respond_us;
                self.phase_completions_us += o.phase_completions_us;
                self.phase_timers_us += o.phase_timers_us;
                self.cache_used_bytes = o.cache_used_bytes;
                self.loop_stall_max_us = self.loop_stall_max_us.max(o.loop_stall_max_us);
            }

            /// Counter deltas since `b` (gauges keep their current value).
            pub fn since(&self, b: &Counters) -> Counters {
                let mut d = Counters {
                    $($name: self.$name.wrapping_sub(b.$name),)*
                    phase_accept_us: self.phase_accept_us - b.phase_accept_us,
                    phase_read_us: self.phase_read_us - b.phase_read_us,
                    phase_respond_us: self.phase_respond_us - b.phase_respond_us,
                    phase_completions_us: self.phase_completions_us - b.phase_completions_us,
                    phase_timers_us: self.phase_timers_us - b.phase_timers_us,
                };
                d.cache_used_bytes = self.cache_used_bytes;
                d.loop_stall_max_us = self.loop_stall_max_us;
                d
            }
        }
    };
}

counters!(
    requests,
    accepted,
    helper_jobs,
    cache_hits,
    writev_calls,
    sendfile_calls,
    bytes_sendfile,
    cache_used_bytes,
    wait_calls,
    wait_events,
    idle_reaped,
    read_timeouts,
    write_stall_timeouts,
    not_modified,
    range_requests,
    accept_backpressure,
    revalidations,
    helper_wait_timeouts,
    jobs_cancelled,
    dynamic_requests,
    worker_respawns,
    dynamic_timeouts,
    loop_stalls,
    loop_stall_max_us,
);

impl Counters {
    /// Connections closed by any deadline class.
    pub fn timeouts(&self) -> u64 {
        self.idle_reaped
            + self.read_timeouts
            + self.write_stall_timeouts
            + self.helper_wait_timeouts
            + self.dynamic_timeouts
    }
}
