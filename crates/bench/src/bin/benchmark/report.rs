//! Metric definitions, summary statistics, and the benchmark's output
//! formats: the human-readable lines, the flat JSON-lines result file, the
//! one-line result object, and a minimal JSON reader for reading them back.

use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off, on every workload. The
/// benchmark's README records the spreads of ten-seed runs the bounds
/// were set from: each timing bound is more than twice the largest spread
/// seen.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("guest_mips", "Minstr/s", Higher, 0.20),
    e2e("program_ms_p50", "ms", Lower, 0.25),
    e2e("program_ms_p99", "ms", Lower, 0.25),
    e2e("sim_cpi", "cycles/instr", Lower, 0.02),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Per-layer metrics, measured by the traced run, on every workload.
pub const PER_LAYER: [MetricDef; 35] = [
    layer("guest.interp_mips", "Minstr/s", Higher),
    layer("guest.interp_instr_share", "ratio", Lower),
    layer("ir.form_us", "us", Lower),
    layer("ir.region_ops", "count", Higher),
    layer("core.deps_us", "us", Lower),
    layer("core.checks_per_memop", "count", Lower),
    layer("core.working_set", "count", Lower),
    layer("opt.optimize_us_p50", "us", Lower),
    layer("opt.optimize_us_p99", "us", Lower),
    layer("opt.sched_share", "ratio", Lower),
    layer("opt.amovs_per_region", "count", Lower),
    layer("opt.overflow_retries", "count", Lower),
    layer("opt.fastcomp_us", "us", Lower),
    layer("opt.fast_entry_ns", "ns", Lower),
    layer("opt.fast_ops_per_region", "count", Lower),
    layer("vliw.sim_entry_ns", "ns", Lower),
    layer("vliw.sim_share", "ratio", Lower),
    layer("vliw.bundles_per_region", "count", Lower),
    layer("vliw.alias_scans_per_memop", "count", Lower),
    layer("verify.dataflow_us", "us", Lower),
    layer("verify.check_us", "us", Lower),
    layer("verify.chain_us", "us", Lower),
    layer("runtime.translate_share", "ratio", Lower),
    layer("runtime.translations_per_program", "count", Lower),
    layer("runtime.rollbacks_per_kentry", "count", Lower),
    layer("runtime.chain_follow_ratio", "ratio", Higher),
    layer("runtime.region_entry_ns", "ns", Lower),
    layer("runtime.dispatch_lookups_per_kinstr", "count", Lower),
    layer("runtime.async_stall_us", "us", Lower),
    layer("runtime.tier_sample_share", "ratio", Lower),
    layer("runtime.hub_translations_per_guest", "count", Lower),
    layer("runtime.hub_rollbacks", "count", Lower),
    layer("runtime.hub_epoch_bumps", "count", Lower),
    layer("runtime.hub_publish_conflicts", "count", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// Looks a metric up by name in both tables.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, linearly interpolated
/// between closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Samples strictly above the `q`-quantile of `n` samples: a percentile is
/// only trustworthy with at least ten of them.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    ((n as f64) * (1.0 - q)).floor() as usize
}

/// How a row's value summarizes its samples.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Stat {
    /// A median of samples.
    Median,
    /// A total over a round's items, each at its median over the rounds.
    Items,
    /// The `q`-percentile over `n` samples.
    Percentile(f64),
    /// One value over the whole run (a sum or a ratio of sums).
    Total,
}

/// One reported (workload, metric) value.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// The metric.
    pub def: &'static MetricDef,
    /// The reported value.
    pub value: f64,
    /// First quartile behind the value.
    pub q1: f64,
    /// Third quartile behind the value.
    pub q3: f64,
    /// Samples behind the value.
    pub n: usize,
    /// How the value summarizes them.
    pub stat: Stat,
}

impl Row {
    /// The median and quartiles of `samples`.
    pub fn median(workload: &'static str, name: &str, samples: &[f64]) -> Row {
        Row {
            value: quantile(samples, 0.5),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
            stat: Stat::Median,
            ..Row::total(workload, name, 0.0, 0)
        }
    }

    /// The `q`-percentile of `samples`, with their quartiles.
    pub fn percentile(workload: &'static str, name: &str, q: f64, samples: &[f64]) -> Row {
        Row {
            value: quantile(samples, q),
            stat: Stat::Percentile(q),
            ..Row::median(workload, name, samples)
        }
    }

    /// One value over the whole run, from `n` samples.
    pub fn total(workload: &'static str, name: &str, value: f64, n: usize) -> Row {
        Row {
            workload,
            def: metric(name).expect("declared metric"),
            value,
            q1: value,
            q3: value,
            n,
            stat: Stat::Total,
        }
    }

    /// The human-readable line: `workload metric value unit (median,
    /// q1..q3, n)`.
    pub fn line(&self) -> String {
        let percentile = |q: f64, n: usize| {
            let beyond = samples_beyond(n, q);
            let note = if beyond < 10 { " (fewer than 10)" } else { "" };
            format!("p{}, {beyond} beyond{note}", q * 100.0)
        };
        let stat = match self.stat {
            Stat::Median => "median".to_string(),
            Stat::Items => "per-item median".to_string(),
            Stat::Percentile(q) => percentile(q, self.n),
            Stat::Total => "total".to_string(),
        };
        format!(
            "{} {} {:.6} {} ({stat}, q1 {:.6}..q3 {:.6}, n={})",
            self.workload, self.def.name, self.value, self.def.unit, self.q1, self.q3, self.n
        )
    }

    /// The row as one flat JSON object (a line of the result file).
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\":{},\"metric\":{},\"unit\":{},\"value\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
            json_str(self.workload),
            json_str(self.def.name),
            json_str(self.def.unit),
            json_num(self.value),
            json_num(self.q1),
            json_num(self.q3),
            self.n
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints for the `f64`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The one-line result object: `correct`, `attempted`, `failed` and
/// `metrics` keyed by name (prefixed `workload/` when several workloads
/// ran in one process).
pub fn result_line(rows: &[Row], attempted: u64, failed: u64, prefix_workload: bool) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            let key = if prefix_workload {
                format!("{}/{}", r.workload, r.def.name)
            } else {
                r.def.name.to_string()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&key),
                json_num(r.value),
                json_str(r.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.i) else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            self.i += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}
