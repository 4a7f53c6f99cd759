//! Host facts, the seeded generator, and `/proc` readings.

use std::path::Path;

/// CPUs the benchmark may use.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process, in MiB.
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb(std::process::id()).unwrap_or(f64::NAN)
}

/// Pids whose parent is `parent`, read from `/proc/<pid>/stat`.
pub fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // the command name is parenthesised and may hold spaces
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u32>().ok());
        if ppid == Some(parent) {
            out.push(pid);
        }
    }
    out.sort_unstable();
    out
}

/// CPU time the threads of processes `pids` have run, in ms: the sum of
/// each live thread's run time in `/proc/<pid>/task/<tid>/schedstat`.
/// On a kernel with `CONFIG_PARAVIRT_TIME_ACCOUNTING`, time the
/// hypervisor stole from the guest is not counted. A thread that exits
/// takes its time with it.
pub fn cpu_ms(pids: &[u32]) -> f64 {
    let mut ns = 0u64;
    for pid in pids {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            continue;
        };
        for task in tasks.flatten() {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e6
}

/// One run of the serving-stack probe: round trips of a 64-byte
/// message between two threads of this process over a loopback TCP
/// connection, like the hops a request takes between the generator, the
/// gateway and a shard, and running none of lagoon's code.
#[derive(Clone, Copy, Debug)]
pub struct Hop {
    /// Wall time per round trip, in microseconds.
    pub wall_us: f64,
    /// CPU time of both threads per round trip, in microseconds.
    pub cpu_us: f64,
}

/// Round trips per [`hop_probe`] run.
const HOP_TRIPS: u32 = 200;
/// [`Hop`]'s readings on the 2-CPU host the benchmark was tuned on, in
/// a quiet period.
pub const HOP_REFERENCE: Hop = Hop {
    wall_us: 22.0,
    cpu_us: 20.0,
};

/// Runs the serving-stack probe once.
///
/// On the shared host, the CPU time the gateway and its shards spend per
/// request drifts by a fifth within minutes, and so does closed-loop
/// throughput, while [`probe_ms`] moves on its own: most of a request's
/// cost is system calls, loopback TCP and wake-ups across CPUs, not the
/// probe's tight loop. This probe's readings move with them.
pub fn hop_probe() -> Result<Hop, String> {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    let err = |e: std::io::Error| format!("hop probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    // connected before the echo thread starts, so that thread never
    // waits in accept for a client that failed to come
    let c = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
    let echo = std::thread::spawn(move || -> std::io::Result<f64> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = [0u8; 64];
        s.read_exact(&mut buf)?;
        s.write_all(&buf)?;
        let cpu = thread_cpu_ms();
        for _ in 0..HOP_TRIPS {
            s.read_exact(&mut buf)?;
            s.write_all(&buf)?;
        }
        Ok(thread_cpu_ms() - cpu)
    });
    // `c` is dropped when this returns, early or not, which ends the
    // echo thread's reads
    let trips = |mut c: TcpStream| -> std::io::Result<(f64, f64)> {
        c.set_nodelay(true)?;
        c.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
        let mut buf = [7u8; 64];
        // one untimed trip: the echo thread is up and the path is warm
        c.write_all(&buf)?;
        c.read_exact(&mut buf)?;
        let (start, cpu) = (std::time::Instant::now(), thread_cpu_ms());
        for _ in 0..HOP_TRIPS {
            c.write_all(&buf)?;
            c.read_exact(&mut buf)?;
        }
        Ok((start.elapsed().as_secs_f64() * 1e3, thread_cpu_ms() - cpu))
    };
    let mine = trips(c);
    let theirs = echo.join().map_err(|_| "hop probe: echo thread panicked")?;
    let ((wall_ms, cpu_ms), echo_ms) = (mine.map_err(err)?, theirs.map_err(err)?);
    let per_trip_us = |ms: f64| ms * 1e3 / f64::from(HOP_TRIPS);
    Ok(Hop {
        wall_us: per_trip_us(wall_ms),
        cpu_us: per_trip_us(cpu_ms + echo_ms),
    })
}

/// This thread's CPU time so far, in ms (`/proc/thread-self/schedstat`).
fn thread_cpu_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .unwrap_or(0) as f64
        / 1e6
}

/// Whether process `pid` still exists and is not a zombie.
pub fn alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => !matches!(
            stat.rsplit_once(')')
                .and_then(|(_, rest)| rest.split_whitespace().next()),
            Some("Z") | Some("X")
        ),
        Err(_) => false,
    }
}

/// FNV-1a digest over every `.lagc` artifact in `dir` (file names and
/// bytes, in name order), plus their total size.
pub fn digest_store(dir: &Path) -> Result<(u64, u64), String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lagc"))
        .collect();
    files.sort();
    let mut bytes = Vec::new();
    let mut size = 0u64;
    for file in files {
        if let Some(name) = file.file_name() {
            bytes.extend_from_slice(name.to_string_lossy().as_bytes());
        }
        let body = std::fs::read(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        size += body.len() as u64;
        bytes.extend_from_slice(&body);
    }
    Ok((lagoon_syntax::wire::fnv1a(&bytes), size))
}

/// The probe's time on the 2-CPU host the benchmark was tuned on, in a
/// quiet period.
pub const PROBE_REFERENCE_MS: f64 = 0.8;

/// Times one run of the host-speed probe, in ms: fib(26) by an explicit
/// stack, a branchy loop over a small working set, like an interpreter's
/// and running none of lagoon's code.
///
/// On a shared host the same program's time drifts by a quarter or more
/// within seconds as other tenants load the same cores. Each workload
/// times its operations between two probe runs, on an otherwise idle
/// system, and reports them with [`at_reference`].
pub fn probe_ms() -> f64 {
    let start = std::time::Instant::now();
    let mut stack: Vec<u64> = Vec::with_capacity(64);
    let mut leaves = 0u64;
    stack.push(std::hint::black_box(26));
    while let Some(n) = stack.pop() {
        match n {
            0 => {}
            1 => leaves += 1,
            n => {
                stack.push(n - 1);
                stack.push(n - 2);
            }
        }
    }
    std::hint::black_box(leaves);
    start.elapsed().as_secs_f64() * 1e3
}

/// A time measured between two probe runs, taken to the host's reference
/// speed: `time * PROBE_REFERENCE_MS / mean(before, after)`.
pub fn at_reference(time: f64, before: f64, after: f64) -> f64 {
    time * PROBE_REFERENCE_MS * 2.0 / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_probe_reads_time_for_its_round_trips() {
        let hop = hop_probe().expect("loopback TCP works");
        assert!(hop.wall_us > 0.0 && hop.cpu_us > 0.0, "{hop:?}");
        // two threads cannot use more than two CPUs' worth of time
        assert!(hop.cpu_us < 2.0 * hop.wall_us + 1.0, "{hop:?}");
    }
}
