//! Host and configuration fingerprint, and kernel-backend pinning.

use gep_kernels::Backend;
use gep_obs::Json;

/// One cache level as `/sys` describes it.
#[derive(Clone, Debug)]
pub struct CacheLevel {
    pub level: u32,
    pub kind: String,
    pub bytes: u64,
}

/// Caches of cpu0, from `/sys/devices/system/cpu/cpu0/cache`.
pub fn caches() -> Vec<CacheLevel> {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1u64 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1u64 << 20),
                None => (size, 1),
            },
        };
        out.push(CacheLevel {
            level: level.trim().parse().unwrap_or(0),
            kind: kind.trim().to_string(),
            bytes: digits.parse::<u64>().unwrap_or(0) * scale,
        });
    }
    out
}

/// Size of the last-level cache in bytes (32 MiB when `/sys` says
/// nothing).
pub fn llc_bytes() -> u64 {
    caches()
        .iter()
        .filter(|c| c.kind != "Instruction")
        .max_by_key(|c| c.level)
        .map_or(32 << 20, |c| c.bytes)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Pins the kernel backend for the whole run: `GEP_KERNELS` when set to
/// a supported backend, else the best one the host supports. An
/// ambient `tuning.json` never chooses it.
pub fn pin_backend() -> Backend {
    let backend = std::env::var("GEP_KERNELS")
        .ok()
        .and_then(|v| Backend::from_name(&v))
        .filter(|b| b.is_supported())
        .unwrap_or_else(gep_kernels::detect_best);
    gep_kernels::set_backend_override(Some(backend));
    backend
}

/// The fingerprint printed with every result.
pub fn fingerprint(backend: Backend, config: Vec<(&str, Json)>) -> Vec<(String, Json)> {
    let caches = caches()
        .into_iter()
        .map(|c| {
            Json::obj(vec![
                ("level", Json::Int(c.level as i64)),
                ("type", Json::Str(c.kind)),
                ("bytes", Json::Int(c.bytes as i64)),
            ])
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = vec![
        ("cpu".to_string(), Json::Str(cpu_model())),
        ("nproc".to_string(), Json::Int(nproc as i64)),
        ("caches".to_string(), Json::Arr(caches)),
        ("backend".to_string(), Json::Str(backend.name().into())),
    ];
    out.extend(config.into_iter().map(|(k, v)| (k.to_string(), v)));
    out
}
