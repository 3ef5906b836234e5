//! The drivers' shared front end: one flag reader, one parser for the
//! custom-leg workload flags, one writer for the committed baseline
//! documents, and one post-mortem for a finished leg.
//!
//! Every binary of this crate reads its arguments through [`Flags`],
//! so a usage error looks and exits the same everywhere: a one-line
//! message and exit status 2, never a panic. `loadgen` and `cbm-node
//! run` both describe a single store leg with the same ten flags;
//! [`LegFlags`] is the one parser of them. [`JsonDoc`] owns the
//! one-field-per-line layout the baseline scanners
//! ([`crate::field_str`], [`crate::field_u64`]) rely on.

use crate::Workload;
use cbm_store::{BatchPolicy, Mode, ShardConfig, StoreConfig, StoreReport};
use std::fmt::Display;
use std::str::FromStr;

/// Command-line arguments, read front to back.
pub struct Flags {
    args: std::vec::IntoIter<String>,
    prefix: &'static str,
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

impl Flags {
    /// The process's arguments after the program name.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1).collect(), "")
    }

    /// Read `args` (a subcommand's arguments, say); `prefix` leads
    /// every usage message (e.g. `"cbm-node: "`).
    pub fn new(args: Vec<String>, prefix: &'static str) -> Self {
        Flags {
            args: args.into_iter(),
            prefix,
        }
    }

    /// The value after `flag`, parsed; a missing or unparsable value
    /// prints `<flag> needs <what>` and exits 2.
    pub fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        self.parsed(flag, what, |s| s.parse().ok())
    }

    /// [`Flags::value`] with a custom parser (`None` rejects).
    pub fn parsed<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> T {
        match self.args.next().as_deref().and_then(parse) {
            Some(v) => v,
            None => self.fail(&format!("{flag} needs {what}")),
        }
    }

    /// Reject `flag`: prints `unknown flag '<flag>'` and exits 2.
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(&format!("unknown flag '{flag}'"))
    }

    fn fail(&self, msg: &str) -> ! {
        eprintln!("{}{msg}", self.prefix);
        std::process::exit(2)
    }
}

/// The custom-leg workload flags shared by `loadgen` and `cbm-node
/// run`: `--workers --objects --ops --seed --rf --locality --mode
/// --batch --read-ratio --remote-read-ratio`.
pub struct LegFlags {
    cfg: StoreConfig,
    read_ratio: f64,
    remote_read_ratio: f64,
    /// Whether any of the flags was given.
    pub given: bool,
}

impl Default for LegFlags {
    fn default() -> Self {
        LegFlags {
            cfg: StoreConfig::default(),
            read_ratio: 0.5,
            remote_read_ratio: 0.05,
            given: false,
        }
    }
}

impl LegFlags {
    /// Consume `flag` (and its value from `flags`) if it is a leg
    /// flag; `false` leaves it to the caller.
    pub fn parse(&mut self, flag: &str, flags: &mut Flags) -> bool {
        let ratio = |flags: &mut Flags| -> f64 {
            let v: f64 = flags.value(flag, "a number in [0,1]");
            v.clamp(0.0, 1.0)
        };
        let c = &mut self.cfg;
        match flag {
            "--workers" => c.workers = flags.value(flag, "a number"),
            "--objects" => c.objects = flags.value::<usize>(flag, "a number").max(1),
            "--ops" => c.ops_per_worker = flags.value(flag, "a number"),
            "--seed" => c.seed = flags.value(flag, "a number"),
            "--rf" => c.sharding = ShardConfig::rf(flags.value(flag, "a number")),
            "--locality" => c.sharding.locality = flags.value(flag, "a number"),
            "--mode" => {
                c.mode = flags.parsed(flag, "cc or ccv", |s| match s {
                    "cc" => Some(Mode::Causal),
                    "ccv" => Some(Mode::Convergent),
                    _ => None,
                })
            }
            "--batch" => {
                c.batch = flags.parsed(flag, "a number or 'off'", |s| match s {
                    "off" => Some(BatchPolicy::Off),
                    k => k.parse().ok().map(BatchPolicy::Every),
                })
            }
            "--read-ratio" => self.read_ratio = ratio(flags),
            "--remote-read-ratio" => self.remote_read_ratio = ratio(flags),
            _ => return false,
        }
        self.given = true;
        true
    }

    /// The leg's config and register workload. The verification
    /// period (`every_ops`) is capped at half the leg's per-worker ops.
    pub fn finish(self) -> (StoreConfig, Workload) {
        let mut cfg = self.cfg;
        cfg.verify.every_ops = cfg.verify.every_ops.min(cfg.ops_per_worker / 2).max(1);
        let workload = Workload::Register {
            read_ratio: self.read_ratio,
            remote_read_ratio: self.remote_read_ratio,
        };
        (cfg, workload)
    }
}

/// `s` as a JSON string. Strings are written verbatim, with any double
/// quote turned into a single one, so the line scanners never meet an
/// escaped quote.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "'"))
}

/// A one-line JSON array of already-rendered values.
pub fn list<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// A JSON document in the committed baselines' layout: two-space
/// indentation, one field (or one array element) per line, commas at
/// line ends. Values are passed already rendered ([`quote`] strings);
/// [`JsonDoc::inline`] writes a whole object on one line, which is
/// what the scanners expect of table rows.
pub struct JsonDoc {
    out: String,
    /// Closing bracket of each open container, and whether it has a
    /// member yet.
    open: Vec<(char, bool)>,
}

impl Default for JsonDoc {
    fn default() -> Self {
        JsonDoc {
            out: String::from("{"),
            open: vec![('}', false)],
        }
    }
}

impl JsonDoc {
    /// Start the member line: a comma after the previous member, then
    /// the indentation of the innermost open container.
    fn line(&mut self) {
        let (_, has_member) = self.open.last_mut().expect("document is open");
        if std::mem::replace(has_member, true) {
            self.out.push(',');
        }
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.open.len()));
    }

    /// `"key": value` in the innermost object.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.line();
        self.out.push_str(&format!("\"{key}\": {value}"));
        self
    }

    /// `"key": [` — elements follow until [`JsonDoc::end`].
    pub fn array(&mut self, key: &str) -> &mut Self {
        self.line();
        self.out.push_str(&format!("\"{key}\": ["));
        self.open.push((']', false));
        self
    }

    /// An object element of the innermost array, one field per line
    /// until [`JsonDoc::end`].
    pub fn object(&mut self) -> &mut Self {
        self.line();
        self.out.push('{');
        self.open.push(('}', false));
        self
    }

    /// A one-line object element of the innermost array.
    pub fn inline(&mut self, fields: &[(&str, &dyn Display)]) -> &mut Self {
        self.line();
        let fields: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        self.out.push_str(&format!("{{{}}}", fields.join(", ")));
        self
    }

    /// Close the innermost array or object.
    pub fn end(&mut self) -> &mut Self {
        let (close, _) = self.open.pop().expect("a container is open");
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.open.len()));
        self.out.push(close);
        self
    }

    /// Close the document; it ends with a newline.
    pub fn finish(mut self) -> String {
        while !self.open.is_empty() {
            self.end();
        }
        self.out.push('\n');
        self.out
    }
}

/// Print a finished leg's failures — failed windows, the monitor's
/// counts and escalations, a certification shortfall — and dump its
/// flight record when warranted ([`dump_flight_record`]). Returns
/// `true` iff the leg failed: a failed window, a drain divergence, or
/// an uncertified monitor-enabled run.
pub fn post_mortem(name: &str, r: &StoreReport, trace: bool, trace_dir: &str) -> bool {
    for w in r.windows.iter().filter(|w| w.result.is_err()) {
        eprintln!(
            "{name}: FAIL window {} [{}]: {:?}",
            w.window, w.criterion, w.result
        );
    }
    if r.monitor.enabled {
        eprintln!(
            "{name}: monitor {}/{} ops certified, {} escalation(s) ({} cleared, {} violations)",
            r.monitor.ops_checked,
            r.total_ops,
            r.monitor.escalations,
            r.monitor.cleared,
            r.monitor.violations
        );
        for rec in &r.monitor.records {
            eprintln!(
                "  ESCALATE worker {} epoch {} op {}: {} ({} events) -> {}",
                rec.worker, rec.epoch, rec.at_op, rec.pattern, rec.events, rec.verdict
            );
        }
    }
    let uncertified = r.monitor.enabled && !r.monitor.certified(r.total_ops);
    if uncertified {
        eprintln!(
            "{name}: FAIL monitor: certification shortfall ({}/{} ops) or confirmed violation",
            r.monitor.ops_checked, r.total_ops
        );
    }
    dump_flight_record(name, r, trace, trace_dir, "");
    !r.verified() || uncertified
}

/// Dump a leg's flight record, if the engine kept one, into
/// `trace_dir` as `<name>.trace.json` + `<name>.jsonl`: always under
/// `trace`, and otherwise whenever the leg failed verification,
/// escalated a monitor suspicion, or needed repair or recovery — so
/// every such leg leaves a post-mortem record. `prefix` leads the
/// progress line (a node id, say).
pub fn dump_flight_record(name: &str, r: &StoreReport, trace: bool, trace_dir: &str, prefix: &str) {
    let Some(rec) = &r.trace else { return };
    let wanted = trace
        || !r.verified()
        || r.monitor.escalations > 0
        || r.chaos.repairs > 0
        || !r.chaos.recoveries.is_empty();
    if wanted {
        match crate::write_trace(trace_dir, name, rec) {
            Ok((chrome, jsonl)) => eprintln!("{prefix}  trace: {chrome} + {jsonl}"),
            Err(e) => eprintln!("{prefix}  trace: could not write to {trace_dir}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|s| s.to_string()).collect(), "")
    }

    #[test]
    fn json_layout_is_one_member_per_line() {
        let mut d = JsonDoc::default();
        d.field("schema", quote("x-v1")).field("quick", true);
        d.array("rows");
        d.inline(&[("a", &1), ("b", &quote("say \"hi\""))]);
        d.inline(&[("a", &2), ("b", &"null")]);
        d.end();
        d.array("legs")
            .object()
            .field("n", list([1, 2]))
            .array("empty");
        let got = d.finish();
        let want = "{\n  \"schema\": \"x-v1\",\n  \"quick\": true,\n  \"rows\": [\n    \
                    {\"a\": 1, \"b\": \"say 'hi'\"},\n    {\"a\": 2, \"b\": null}\n  ],\n  \
                    \"legs\": [\n    {\n      \"n\": [1, 2],\n      \"empty\": [\n      ]\n    \
                    }\n  ]\n}\n";
        assert_eq!(got, want);
        assert_eq!(crate::field_u64(got.lines().nth(4).unwrap(), "a"), Some(1));
    }

    #[test]
    fn leg_flags_apply_defaults_clamps_and_window_cap() {
        let mut f = flags(&[
            "--ops",
            "10",
            "--read-ratio",
            "7",
            "--objects",
            "0",
            "--batch",
            "off",
        ]);
        let mut leg = LegFlags::default();
        while let Some(a) = f.next() {
            assert!(leg.parse(&a, &mut f), "{a} is a leg flag");
        }
        assert!(leg.given);
        let (cfg, w) = leg.finish();
        assert_eq!((cfg.ops_per_worker, cfg.objects), (10, 1));
        assert_eq!(cfg.batch, BatchPolicy::Off);
        assert_eq!(cfg.verify.every_ops, 5);
        assert_eq!(
            w,
            Workload::Register {
                read_ratio: 1.0,
                remote_read_ratio: 0.05
            }
        );
        assert!(!LegFlags::default().parse("--quick", &mut flags(&[])));
    }
}
